/**
 * @file
 * Small numeric helpers for the paper's table/figure views: geometric
 * mean, arithmetic mean and a fixed-width console table printer.
 */
#ifndef EPIC_SUPPORT_STATS_H
#define EPIC_SUPPORT_STATS_H

#include <string>
#include <vector>

namespace epic {

/** Geometric mean of a series of positive values; 0 on empty input. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; 0 on empty input. */
double mean(const std::vector<double> &values);

/**
 * Fixed-width console table used by the table/figure views.
 *
 * Columns are sized to their widest cell; numeric formatting is the
 * caller's responsibility (pass preformatted strings via cell()).
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Begin a new row. */
    Table &row();
    /** Append a cell to the current row. */
    Table &cell(const std::string &text);
    /** Append a numeric cell with the given precision. */
    Table &cell(double value, int precision = 2);
    /** Append an integer cell. */
    Table &cell(long long value);

    /** Render the table to a string. */
    std::string str() const;
    /** Print to stdout. */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace epic

#endif // EPIC_SUPPORT_STATS_H
