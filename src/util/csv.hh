/**
 * @file
 * CSV emission for experiment output. The figure benches print their
 * series as CSV on stdout (and optionally to files) so they can be fed
 * straight into gnuplot/matplotlib to regenerate the paper's plots.
 */

#ifndef MERCURY_UTIL_CSV_HH
#define MERCURY_UTIL_CSV_HH

#include <ostream>
#include <string>
#include <vector>

namespace mercury {

class TimeSeries;

/**
 * Streams rows of comma-separated values with a fixed column schema.
 */
class CsvWriter
{
  public:
    /** Write to @p out; the header row is emitted immediately. */
    CsvWriter(std::ostream &out, std::vector<std::string> columns);

    /** Emit one row; must match the column count. */
    void row(const std::vector<double> &values);

    /** Emit one row of preformatted cells; must match the column count. */
    void rowStrings(const std::vector<std::string> &cells);

    size_t columnCount() const { return columns_.size(); }
    size_t rowsWritten() const { return rows_; }

  private:
    std::ostream &out_;
    std::vector<std::string> columns_;
    size_t rows_ = 0;
    std::string rowBuffer_; //!< one formatted row, reused
};

/**
 * Write several aligned time series as one CSV table. All series are
 * sampled at the times of the first one (linear interpolation), which
 * matches how the paper's figures overlay measured and emulated curves.
 */
void writeAlignedSeries(std::ostream &out,
                        const std::vector<const TimeSeries *> &series,
                        const std::string &timeColumn = "time_s");

/** Escape a cell per RFC 4180 (quotes/commas/newlines); a cell with
 *  leading or trailing whitespace is quoted as well. */
std::string csvEscape(const std::string &cell);

} // namespace mercury

#endif // MERCURY_UTIL_CSV_HH
