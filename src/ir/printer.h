/**
 * @file
 * Human-readable dumping of functions and programs, including schedule
 * (issue-group/bundle) annotations once a function has been scheduled.
 */
#ifndef EPIC_IR_PRINTER_H
#define EPIC_IR_PRINTER_H

#include <ostream>

#include "ir/program.h"

namespace epic {

/** Print one function (blocks in id order, bundles if scheduled). */
void printFunction(std::ostream &os, const Function &f);

/** Print the whole program. */
void printProgram(std::ostream &os, const Program &p);

} // namespace epic

#endif // EPIC_IR_PRINTER_H
