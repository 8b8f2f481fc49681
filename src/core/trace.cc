#include "core/trace.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "core/solver.hh"
#include "util/csv.hh"
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

UtilizationTrace
UtilizationTrace::load(std::istream &in)
{
    UtilizationTrace trace;
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::string text = trim(line);
        if (text.empty() || text[0] == '#')
            continue;
        if (line_no == 1 && startsWith(text, "time"))
            continue; // header row
        std::vector<std::string> cells = split(text, ',');
        if (cells.size() != 4) {
            fatal("utilization trace line ", line_no, ": expected 4 "
                  "fields, got ", cells.size());
        }
        auto time = parseDouble(cells[0]);
        auto util = parseDouble(cells[3]);
        if (!time || !util) {
            fatal("utilization trace line ", line_no,
                  ": malformed number");
        }
        trace.add(*time, trim(cells[1]), trim(cells[2]), *util);
    }
    return trace;
}

UtilizationTrace
UtilizationTrace::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open utilization trace '", path, "'");
    return load(in);
}

void
UtilizationTrace::save(std::ostream &out) const
{
    sortIfNeeded();
    out << "time_s,machine,component,utilization\n";
    for (const UtilizationSample &sample : samples_) {
        out << format("%.6g,", sample.time) << csvEscape(sample.machine)
            << ',' << csvEscape(sample.component)
            << format(",%.6g\n", sample.utilization);
    }
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
