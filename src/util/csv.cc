#include "util/csv.hh"

#include <cctype>
#include <charconv>

#include "util/logging.hh"
#include "util/stats.hh"

namespace mercury {

std::string
csvEscape(const std::string &cell)
{
    // Leading or trailing whitespace is quoted too: readers trim
    // unquoted cells.
    bool needs_quotes =
        !cell.empty() &&
        (std::isspace(static_cast<unsigned char>(cell.front())) ||
         std::isspace(static_cast<unsigned char>(cell.back())));
    for (char ch : cell) {
        if (ch == ',' || ch == '"' || ch == '\n' || ch == '\r') {
            needs_quotes = true;
            break;
        }
    }
    if (!needs_quotes)
        return cell;
    std::string out = "\"";
    for (char ch : cell) {
        if (ch == '"')
            out += "\"\"";
        else
            out += ch;
    }
    out += '"';
    return out;
}

CsvWriter::CsvWriter(std::ostream &out, std::vector<std::string> columns)
    : out_(out), columns_(std::move(columns))
{
    if (columns_.empty())
        MERCURY_PANIC("CsvWriter: no columns");
    for (size_t i = 0; i < columns_.size(); ++i) {
        if (i)
            out_ << ',';
        out_ << csvEscape(columns_[i]);
    }
    out_ << '\n';
}

void
CsvWriter::row(const std::vector<double> &values)
{
    if (values.size() != columns_.size()) {
        MERCURY_PANIC("CsvWriter: row has ", values.size(),
                      " cells, expected ", columns_.size());
    }
    // std::to_chars in general format at precision 6 is printf's
    // "%.6g" in the C locale, byte for byte, minus printf's locale and
    // varargs work; the row goes out in one stream call.
    rowBuffer_.clear();
    char cell[64];
    for (size_t i = 0; i < values.size(); ++i) {
        if (i)
            rowBuffer_ += ',';
        char *end = std::to_chars(cell, cell + sizeof(cell), values[i],
                                  std::chars_format::general, 6)
                        .ptr;
        rowBuffer_.append(cell, end);
    }
    rowBuffer_ += '\n';
    out_.write(rowBuffer_.data(),
               static_cast<std::streamsize>(rowBuffer_.size()));
    ++rows_;
}

void
CsvWriter::rowStrings(const std::vector<std::string> &cells)
{
    if (cells.size() != columns_.size()) {
        MERCURY_PANIC("CsvWriter: row has ", cells.size(),
                      " cells, expected ", columns_.size());
    }
    for (size_t i = 0; i < cells.size(); ++i) {
        if (i)
            out_ << ',';
        out_ << csvEscape(cells[i]);
    }
    out_ << '\n';
    ++rows_;
}

void
writeAlignedSeries(std::ostream &out,
                   const std::vector<const TimeSeries *> &series,
                   const std::string &timeColumn)
{
    if (series.empty())
        MERCURY_PANIC("writeAlignedSeries: no series");
    std::vector<std::string> columns{timeColumn};
    for (const TimeSeries *ts : series)
        columns.push_back(ts->name());
    CsvWriter writer(out, columns);
    const TimeSeries &base = *series.front();
    for (size_t i = 0; i < base.size(); ++i) {
        std::vector<double> row{base.timeAt(i)};
        row.push_back(base.valueAt(i));
        for (size_t s = 1; s < series.size(); ++s)
            row.push_back(series[s]->sampleAt(base.timeAt(i)));
        writer.row(row);
    }
}

} // namespace mercury
