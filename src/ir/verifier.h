/**
 * @file
 * IR structural verifier.
 *
 * Checks control-flow well-formedness, per-opcode operand signatures,
 * register-class consistency, post-allocation physical-register bounds,
 * and post-scheduling bundle invariants (complete coverage, branch
 * placement, and the IA-64 no-intra-group-RAW/WAW rule with the
 * compare-to-branch exception).
 */
#ifndef EPIC_IR_VERIFIER_H
#define EPIC_IR_VERIFIER_H

#include <string>
#include <vector>

#include "ir/program.h"

namespace epic {

/** Verify one function; returns human-readable error strings (empty=ok). */
std::vector<std::string> verifyFunction(const Function &f);

/**
 * Verify a whole program (also checks call targets): the complete
 * error list, each naming its function; never aborts, so the
 * compilation firewall gates on it.
 */
std::vector<std::string> verifyProgram(const Program &p);

/** Panic if verification fails, after printing *every* error with its
 *  function name and the phase that produced it. */
void verifyOrDie(const Program &p, const char *phase);

} // namespace epic

#endif // EPIC_IR_VERIFIER_H
