/**
 * @file
 * Strict command-line value parsing for epiclab_run.
 *
 * `std::atoi`/`strtod` fallthrough turns `--jobs banana` into
 * `--jobs 0` silently; these helpers instead epic_fatal with the flag
 * name on anything that is not a fully-consumed, in-range number, so a
 * typo kills the run at the argument parser instead of producing a
 * quietly wrong experiment.
 */
#ifndef EPIC_SUPPORT_CLI_H
#define EPIC_SUPPORT_CLI_H

#include <cstdint>

namespace epic {

/**
 * Parse an integer flag value in [min, max]; epic_fatal (exit 1) on
 * non-numeric text, trailing garbage, or out-of-range values. `flag`
 * names the option in the error message.
 */
int64_t parseIntFlag(const char *flag, const char *text, int64_t min,
                     int64_t max);

/** Same discipline for a floating-point flag value in [min, max]. */
double parseFloatFlag(const char *flag, const char *text, double min,
                      double max);

} // namespace epic

#endif // EPIC_SUPPORT_CLI_H
