/**
 * @file
 * The paper's tables and figures: `epiclab_run --figure`.
 */
#ifndef EPIC_BENCH_FIGURES_H
#define EPIC_BENCH_FIGURES_H

#include <string>
#include <vector>

namespace epic {

/** The view names, in the order `all` renders them. */
std::vector<std::string> figureViews();

/**
 * Render the comma-separated views of `list` ("all" = every view) over
 * the workloads `only` selects, computing each run they read once on
 * `jobs` workers; the output does not depend on `jobs`. Returns the
 * exit status: non-zero when Table 1 finds a checksum mismatch or a
 * Figure 10 run fails.
 */
int renderFigures(const std::string &list,
                  const std::vector<std::string> &only, bool with_ds,
                  int jobs);

} // namespace epic

#endif // EPIC_BENCH_FIGURES_H
