#include "core/trace.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <string_view>
#include <unordered_map>

#include "core/solver.hh"
#include "util/csv.hh"
#include "util/fileio.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace mercury {
namespace core {

void
UtilizationTrace::add(double time, const std::string &machine,
                      const std::string &component, double utilization)
{
    if (!samples_.empty() && time < samples_.back().time)
        sorted_ = false;
    samples_.push_back({time, machine, component, utilization});
}

void
UtilizationTrace::sortIfNeeded() const
{
    if (sorted_)
        return;
    std::stable_sort(samples_.begin(), samples_.end(),
                     [](const UtilizationSample &a,
                        const UtilizationSample &b) {
                         return a.time < b.time;
                     });
    sorted_ = true;
}

const std::vector<UtilizationSample> &
UtilizationTrace::samples() const
{
    sortIfNeeded();
    return samples_;
}

double
UtilizationTrace::duration() const
{
    sortIfNeeded();
    return samples_.empty() ? 0.0 : samples_.back().time;
}

namespace {

bool
isBlank(char ch)
{
    return ch != '\n' && std::isspace(static_cast<unsigned char>(ch));
}

/**
 * The cell that starts at @p pos, leaving @p pos on the ',' or line
 * break that ends it (or at the end of @p text). Leading blanks are
 * skipped. A cell that then starts with '"' is quoted the way
 * csvEscape writes it -- "" is one quote, and commas and line breaks
 * inside belong to the cell -- and is decoded into @p decoded and
 * kept verbatim; @p line_no advances over its line breaks. Any other
 * cell is a trimmed view of @p text.
 */
std::string_view
readCell(const std::string &text, size_t &pos, size_t &line_no,
         std::string &decoded)
{
    while (pos < text.size() && isBlank(text[pos]))
        ++pos;
    if (pos == text.size() || text[pos] != '"') {
        size_t start = pos;
        while (pos < text.size() && text[pos] != '\n' && text[pos] != ',')
            ++pos;
        return trimView(std::string_view(text).substr(start, pos - start));
    }
    size_t first_line = line_no;
    decoded.clear();
    for (++pos;;) {
        if (pos == text.size()) {
            fatal("utilization trace line ", first_line,
                  ": unterminated quoted field");
        }
        char ch = text[pos++];
        if (ch == '"' && pos < text.size() && text[pos] == '"') {
            decoded += '"';
            ++pos;
            continue;
        }
        if (ch == '"')
            break;
        if (ch == '\n')
            ++line_no;
        decoded += ch;
    }
    while (pos < text.size() && isBlank(text[pos]))
        ++pos;
    if (pos < text.size() && text[pos] != '\n' && text[pos] != ',') {
        fatal("utilization trace line ", line_no,
              ": text after a quoted field");
    }
    return decoded;
}

/** Shortest text that reads back as exactly @p value. */
void
appendDouble(std::string &out, double value)
{
    char cell[32];
    char *end = std::to_chars(cell, cell + sizeof(cell), value).ptr;
    out.append(cell, end);
}

} // namespace

UtilizationTrace
UtilizationTrace::load(std::istream &in)
{
    // One buffer, split into views: a row costs two number parses and
    // the two name copies the samples keep.
    const std::string text = readStream(in);
    UtilizationTrace trace;
    trace.samples_.reserve(
        static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1);
    std::string decoded[5]; // quoted cells of the row; [4] for extras
    size_t line_no = 0;
    // Each row leaves pos on its line break; the ++pos steps over it.
    for (size_t pos = 0; pos < text.size(); ++pos) {
        size_t row_line = ++line_no;
        size_t eol = std::min(text.find('\n', pos), text.size());
        std::string_view line =
            trimView(std::string_view(text).substr(pos, eol - pos));
        if (line.empty() || line[0] == '#' ||
            (row_line == 1 && startsWith(line, "time"))) {
            pos = eol;
            continue; // blank, comment or header row
        }
        std::string_view cells[4];
        size_t fields = 0;
        while (true) {
            std::string_view cell = readCell(
                text, pos, line_no, decoded[std::min<size_t>(fields, 4)]);
            if (fields < 4)
                cells[fields] = cell;
            ++fields;
            if (pos == text.size() || text[pos] != ',')
                break;
            ++pos;
        }
        if (fields != 4) {
            fatal("utilization trace line ", row_line, ": expected 4 "
                  "fields, got ", fields);
        }
        auto time = parseDouble(cells[0]);
        auto util = parseDouble(cells[3]);
        if (!time || !util) {
            fatal("utilization trace line ", row_line,
                  ": malformed number");
        }
        if (!trace.samples_.empty() && *time < trace.samples_.back().time)
            trace.sorted_ = false;
        trace.samples_.push_back({*time, std::string(cells[1]),
                                  std::string(cells[2]), *util});
    }
    return trace;
}

UtilizationTrace
UtilizationTrace::loadFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open utilization trace '", path, "'");
    return load(in);
}

void
UtilizationTrace::save(std::ostream &out) const
{
    sortIfNeeded();
    std::string text = "time_s,machine,component,utilization\n";
    for (const UtilizationSample &sample : samples_) {
        appendDouble(text, sample.time);
        text += ',';
        text += csvEscape(sample.machine);
        text += ',';
        text += csvEscape(sample.component);
        text += ',';
        appendDouble(text, sample.utilization);
        text += '\n';
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

UtilizationTrace
UtilizationTrace::replicated(
    const std::map<std::string, std::vector<std::string>> &mapping) const
{
    sortIfNeeded();
    UtilizationTrace out;
    for (const UtilizationSample &sample : samples_) {
        auto it = mapping.find(sample.machine);
        if (it == mapping.end()) {
            out.add(sample.time, sample.machine, sample.component,
                    sample.utilization);
            continue;
        }
        for (const std::string &clone : it->second)
            out.add(sample.time, clone, sample.component,
                    sample.utilization);
    }
    return out;
}

TraceRunner::TraceRunner(Solver &solver, const UtilizationTrace &trace)
    : solver_(solver), trace_(trace)
{
}

void
TraceRunner::record(const std::string &machine, const std::string &component)
{
    if (ran_)
        MERCURY_PANIC("TraceRunner: record() after run()");
    recorded_.emplace_back(machine, component);
    series_.emplace_back(machine + "." + component);
}

void
TraceRunner::recordAll()
{
    for (const std::string &machine_name : solver_.machineNames()) {
        for (const std::string &node : solver_.machine(machine_name)
                                           .nodeNames()) {
            record(machine_name, node);
        }
    }
}

void
TraceRunner::run(double duration_seconds)
{
    if (ran_)
        MERCURY_PANIC("TraceRunner: run() called twice");
    ran_ = true;
    double start = solver_.emulatedSeconds();
    if (duration_seconds < 0.0)
        duration_seconds = std::max(0.0, trace_.duration() - start);
    double end = start + duration_seconds;

    // Resolve recorded components and trace targets to solver handles
    // once, instead of walking the string -> alias -> NodeId map chain
    // for every sample and every recorded series each iteration.
    // Unresolvable names fall back to the string path so its panics
    // (unknown machine / component) are unchanged.
    std::vector<std::optional<Solver::NodeRef>> recorded_refs;
    recorded_refs.reserve(recorded_.size());
    for (const auto &[machine, component] : recorded_)
        recorded_refs.push_back(solver_.tryResolveRef(machine, component));

    // Every sample gets its handle here, parallel to samples(). A trace
    // repeats a few components per machine many times, so each
    // distinct (machine, component) pair is resolved once, through a
    // cache keyed by views of the samples' own strings.
    const auto &samples = trace_.samples();
    std::vector<std::optional<Solver::NodeRef>> sample_refs;
    sample_refs.reserve(samples.size());
    using Target =
        std::pair<std::string_view, std::optional<Solver::NodeRef>>;
    std::unordered_map<std::string_view, std::vector<Target>> resolved;
    for (const UtilizationSample &sample : samples) {
        std::vector<Target> &targets = resolved[sample.machine];
        auto it = std::find_if(targets.begin(), targets.end(),
                               [&](const Target &target) {
                                   return target.first == sample.component;
                               });
        if (it == targets.end()) {
            targets.emplace_back(sample.component,
                                 solver_.tryResolveRef(sample.machine,
                                                       sample.component));
            it = targets.end() - 1;
        }
        sample_refs.push_back(it->second);
    }

    // All times below are absolute emulated seconds. On a resumed
    // (checkpoint-restored) solver the first pass over the sample list
    // re-applies the pre-checkpoint prefix; the latest value per
    // component wins before the first iteration, which is exactly the
    // state the uninterrupted run has at this point.
    size_t next = 0;
    double now = solver_.emulatedSeconds();
    while (now < end - 1e-9) {
        // Apply every sample whose timestamp has passed.
        while (next < samples.size() &&
               samples[next].time <= now + 1e-9) {
            const UtilizationSample &sample = samples[next];
            if (sample_refs[next]) {
                solver_.setUtilization(*sample_refs[next],
                                       sample.utilization);
            } else {
                solver_.setUtilization(sample.machine, sample.component,
                                       sample.utilization);
            }
            ++next;
        }
        solver_.iterate();
        now = solver_.emulatedSeconds();
        for (size_t i = 0; i < recorded_.size(); ++i) {
            double value =
                recorded_refs[i]
                    ? solver_.temperature(*recorded_refs[i])
                    : solver_.temperature(recorded_[i].first,
                                          recorded_[i].second);
            series_[i].add(now, value);
        }
    }
}

const TimeSeries &
TraceRunner::series(const std::string &machine,
                    const std::string &component) const
{
    std::string key = machine + "." + component;
    for (const TimeSeries &ts : series_) {
        if (ts.name() == key)
            return ts;
    }
    MERCURY_PANIC("TraceRunner: '", key, "' was not recorded");
}

void
TraceRunner::writeCsv(std::ostream &out) const
{
    std::vector<const TimeSeries *> refs;
    refs.reserve(series_.size());
    for (const TimeSeries &ts : series_)
        refs.push_back(&ts);
    writeAlignedSeries(out, refs);
}

} // namespace core
} // namespace mercury
