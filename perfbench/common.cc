#include "common.hh"

#include <dirent.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

#include "core/solver.hh"
#include "metrics/metrics.hh"
#include "util/random.hh"

namespace perfbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

const std::vector<MetricSpec> &
endToEndCatalog()
{
    static const std::vector<MetricSpec> kList = {
        {"setup_s", "s", ""},
        {"peak_rss_mb", "MB", ""},
        {"cpu_us_per_op", "us", ""},
    };
    return kList;
}

const std::vector<MetricSpec> &
perLayerCatalog()
{
    static const std::vector<MetricSpec> kList = {
        {"emu_s_per_s", "1/s", "ungated wall-clock rate | all"},
        {"graphdot.parse_s", "s", "setup_s | trace_churn, live_fleet"},
        {"core.trace_load_s", "s", "setup_s | trace_churn"},
        {"core.build_s", "s", "setup_s | trace_churn"},
        {"core.iter_us.p50", "us", "cpu_us_per_op, emu_s_per_s | trace_churn"},
        {"core.iter_us.p99", "us", "emu_s_per_s | trace_churn"},
        {"core.serial_iter_us.p50", "us", "context: pool share | trace_churn"},
        {"core.csv_write_s", "s", "emu_s_per_s | trace_churn"},
        {"core.iter_share", "ratio", "prediction 1 | trace_churn"},
        {"sensor.read_us.p50", "us", "ungated read latency | live_fleet"},
        {"sensor.read_us.p99", "us", "tail, not gated | live_fleet"},
        {"sensor.read_us.p999", "us", "tail, not gated | live_fleet"},
        {"gen.late_us.p99", "us", "validity of latencies | live_fleet"},
        {"monitor.flush_us.p50", "us", "nothing (generator) | live_fleet"},
        {"telemetry.read_ns", "ns", "sensor.read_us.p50 | live_fleet"},
        {"telemetry.retry_frac", "ratio", "sensor.read_us.p50 | live_fleet"},
        {"net.batch_mean", "count",
         "cpu_us_per_op, sensor.read_us.p50 | live_fleet"},
        {"net.busy_frac", "ratio",
         "cpu_us_per_op, sensor.read_us.p50 | live_fleet"},
        {"net.handle_us.p50", "us",
         "cpu_us_per_op, sensor.read_us.p50 | live_fleet"},
        {"solver.iter_us.p50", "us", "cpu_us_per_op | live_fleet"},
        {"solver.iter_us.p99", "us", "cpu_us_per_op | live_fleet"},
        {"solver.active_frac", "ratio", "cpu_us_per_op | live_fleet"},
        {"solver.cpu_share", "ratio", "prediction 2 | live_fleet"},
        {"replica.wal_bytes_per_update", "B", "cpu_us_per_op | live_fleet"},
        {"state.checkpoint_ms", "ms", "cpu_us_per_op | live_fleet"},
        {"state.restore_ms", "ms", "restart cost | live_fleet"},
        {"daemon.ctxsw_per_op", "count",
         "cpu_us_per_op, sensor.read_us.p50 | live_fleet"},
        {"daemon.writes_per_update", "count", "cpu_us_per_op | live_fleet"},
        {"freon.host_ms_per_sim_s.p50", "ms", "emu_s_per_s | freon_emergency"},
        {"freon.host_ms_per_sim_s.p99", "ms", "emu_s_per_s | freon_emergency"},
        {"lb.requests", "count", "work behind emu_s_per_s | freon_emergency"},
        {"lb.drop_frac", "ratio", "work behind emu_s_per_s | freon_emergency"},
        {"freon.actuations", "count",
         "work behind emu_s_per_s | freon_emergency"},
        {"freon.rate_corr", "ratio", "prediction 3 | freon_emergency"},
    };
    return kList;
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (!ok) {
        correct = false;
        ++checkFailures;
        notes.push_back("CHECK FAILED: " + what);
    }
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * double(values.size() - 1);
    size_t lo = size_t(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - double(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
correlation(const std::vector<double> &x, const std::vector<double> &y)
{
    size_t n = std::min(x.size(), y.size());
    if (n < 2)
        return 0.0;
    double mx = std::accumulate(x.begin(), x.begin() + long(n), 0.0) / n;
    double my = std::accumulate(y.begin(), y.begin() + long(n), 0.0) / n;
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (size_t i = 0; i < n; ++i) {
        sxy += (x[i] - mx) * (y[i] - my);
        sxx += (x[i] - mx) * (x[i] - mx);
        syy += (y[i] - my) * (y[i] - my);
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

int32_t
Tracer::begin(const char *name, uint64_t request)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.start = nowNs();
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    spans_.push_back(span);
    int32_t index = int32_t(spans_.size() - 1);
    open_.push_back(index);
    return index;
}

void
Tracer::end(int32_t index)
{
    if (!enabled_ || index < 0)
        return;
    spans_[size_t(index)].end = nowNs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

void
Tracer::add(const char *name, int64_t start, int64_t end, int32_t parent,
            uint64_t request)
{
    if (!enabled_)
        return;
    Span span;
    span.name = name;
    span.start = start;
    span.end = end;
    span.parent = parent;
    span.request = request;
    spans_.push_back(span);
}

std::map<std::string, double>
selfTimes(const std::vector<const Tracer *> &tracers)
{
    std::map<std::string, double> out;
    for (const Tracer *tracer : tracers) {
        const auto &spans = tracer->spans();
        // Children nest inside their parent and never overlap one
        // another on one thread, so the covered part is their sum.
        std::vector<int64_t> child(spans.size(), 0);
        for (const Tracer::Span &span : spans) {
            if (span.parent >= 0)
                child[size_t(span.parent)] += span.end - span.start;
        }
        for (size_t i = 0; i < spans.size(); ++i) {
            int64_t self = spans[i].end - spans[i].start - child[i];
            out[spans[i].name] += double(std::max<int64_t>(self, 0)) * 1e-9;
        }
    }
    return out;
}

void
writeSpans(const std::string &path, const std::vector<const Tracer *> &tracers)
{
    std::ofstream out(path);
    out << "name,start_ns,end_ns,parent,request,thread\n";
    for (const Tracer *tracer : tracers) {
        for (const Tracer::Span &span : tracer->spans()) {
            out << span.name << ',' << span.start << ',' << span.end << ','
                << span.parent << ',' << span.request << ','
                << tracer->thread() << '\n';
        }
    }
}

double
inProcessPlaneActivity()
{
    double active = 0.0;
    for (const mercury::metrics::Sample &sample :
         mercury::metrics::Registry::global().samples()) {
        bool plane = sample.name.rfind("net_", 0) == 0 ||
                     sample.name.rfind("replica_", 0) == 0 ||
                     sample.name.rfind("telemetry_", 0) == 0;
        if (plane && sample.value != 0.0)
            active += 1.0;
    }
    return active;
}

void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

/** First number after @p key in a "Key:  value" /proc text file. */
bool
procField(const std::string &path, const std::string &key, double *value)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0) {
            *value = std::strtod(line.c_str() + key.size(), nullptr);
            return true;
        }
    }
    return false;
}

} // namespace

double
peakRssMb(pid_t pid)
{
    std::string path = pid == 0 ? std::string("/proc/self/status")
                                : format("/proc/%d/status", int(pid));
    double kb = 0.0;
    if (!procField(path, "VmHWM:", &kb))
        return 0.0;
    return kb / 1024.0;
}

TaskCounters
readTaskCounters(pid_t pid)
{
    TaskCounters counters;
    std::string task_dir = format("/proc/%d/task", int(pid));
    if (DIR *dir = opendir(task_dir.c_str())) {
        while (dirent *entry = readdir(dir)) {
            if (entry->d_name[0] == '.')
                continue;
            std::string base = task_dir + "/" + entry->d_name;
            std::ifstream sched(base + "/schedstat");
            unsigned long long on_cpu_ns = 0;
            if (sched >> on_cpu_ns)
                counters.cpuSeconds += double(on_cpu_ns) * 1e-9;
            double voluntary = 0.0, involuntary = 0.0;
            procField(base + "/status", "voluntary_ctxt_switches:",
                      &voluntary);
            procField(base + "/status", "nonvoluntary_ctxt_switches:",
                      &involuntary);
            counters.contextSwitches += uint64_t(voluntary + involuntary);
        }
        closedir(dir);
    }
    double syscw = 0.0;
    procField(format("/proc/%d/io", int(pid)), "syscw:", &syscw);
    counters.writeSyscalls = uint64_t(syscw);
    return counters;
}

uint64_t
fnv1a(const void *data, size_t size, uint64_t hash)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
hex(uint64_t value)
{
    return format("%016llx", static_cast<unsigned long long>(value));
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    return bool(out);
}

Room
makeRoom(uint64_t seed, int machines)
{
    Room room;
    for (int i = 0; i < machines; ++i)
        room.names.push_back(format("m%04d", i));
    // Exactly an eighth get the second disk, at seeded positions.
    std::vector<int> order(static_cast<size_t>(machines));
    std::iota(order.begin(), order.end(), 0);
    mercury::Rng rng(seed ^ 0x726f6f6dULL);
    for (int i = machines - 1; i > 0; --i)
        std::swap(order[size_t(i)], order[size_t(rng.uniformInt(0, i))]);
    room.twoDisk.assign(size_t(machines), false);
    for (int i = 0; i < machines / 8; ++i)
        room.twoDisk[size_t(order[size_t(i)])] = true;
    return room;
}

namespace {

/** Table 1's server (Figure 1(a)/(b)), optionally with a second disk
 *  beside the first: the inlet's disk share is split between them. */
void
appendMachine(std::ostringstream &out, const std::string &name,
              bool two_disks)
{
    out << "machine " << name << " {\n"
        << "    inlet_temperature = 21.6;\n"
        << "    fan_cfm = 38.6;\n"
        << "    initial_temperature = 21.6;\n"
        << "    node disk_platters [kind=component, mass=0.336, c=896, "
           "pmin=9, pmax=14];\n"
        << "    node disk_shell [kind=component, mass=0.505, c=896];\n";
    if (two_disks) {
        out << "    node disk2_platters [kind=component, mass=0.336, "
               "c=896, pmin=9, pmax=14];\n"
            << "    node disk2_shell [kind=component, mass=0.505, c=896];\n";
    }
    out << "    node cpu [kind=component, mass=0.151, c=896, pmin=7, "
           "pmax=31];\n"
        << "    node ps [kind=component, mass=1.643, c=896, pmin=40, "
           "pmax=40];\n"
        << "    node motherboard [kind=component, mass=0.718, c=1245, "
           "pmin=4, pmax=4];\n"
        << "    node inlet [kind=inlet];\n"
        << "    node disk_air [kind=air];\n"
        << "    node disk_air_down [kind=air];\n";
    if (two_disks) {
        out << "    node disk2_air [kind=air];\n"
            << "    node disk2_air_down [kind=air];\n";
    }
    out << "    node ps_air [kind=air];\n"
        << "    node ps_air_down [kind=air];\n"
        << "    node void_air [kind=air];\n"
        << "    node cpu_air [kind=air];\n"
        << "    node cpu_air_down [kind=air];\n"
        << "    node exhaust [kind=exhaust];\n"
        << "    disk_platters -- disk_shell [k=2];\n"
        << "    disk_shell -- disk_air [k=1.9];\n";
    if (two_disks) {
        out << "    disk2_platters -- disk2_shell [k=2];\n"
            << "    disk2_shell -- disk2_air [k=1.9];\n";
    }
    out << "    cpu -- cpu_air [k=0.75];\n"
        << "    ps -- ps_air [k=4];\n"
        << "    motherboard -- void_air [k=10];\n"
        << "    motherboard -- cpu [k=0.1];\n";
    if (two_disks) {
        out << "    inlet -> disk_air [fraction=0.2];\n"
            << "    inlet -> disk2_air [fraction=0.2];\n"
            << "    disk2_air -> disk2_air_down [fraction=1];\n"
            << "    disk2_air_down -> void_air [fraction=1];\n";
    } else {
        out << "    inlet -> disk_air [fraction=0.4];\n";
    }
    out << "    inlet -> ps_air [fraction=0.5];\n"
        << "    inlet -> void_air [fraction=0.1];\n"
        << "    disk_air -> disk_air_down [fraction=1];\n"
        << "    disk_air_down -> void_air [fraction=1];\n"
        << "    ps_air -> ps_air_down [fraction=1];\n"
        << "    ps_air_down -> void_air [fraction=0.85];\n"
        << "    ps_air_down -> cpu_air [fraction=0.15];\n"
        << "    void_air -> cpu_air [fraction=0.05];\n"
        << "    void_air -> exhaust [fraction=0.95];\n"
        << "    cpu_air -> cpu_air_down [fraction=1];\n"
        << "    cpu_air_down -> exhaust [fraction=1];\n"
        << "}\n\n";
}

} // namespace

std::string
roomConfigText(const Room &room)
{
    std::ostringstream out;
    for (size_t i = 0; i < room.names.size(); ++i)
        appendMachine(out, room.names[i], room.twoDisk[i]);
    out << "room hall {\n"
        << "    source ac [temperature=18];\n"
        << "    sink hall_exhaust;\n";
    for (const std::string &name : room.names)
        out << "    machine " << name << ";\n";
    std::string fraction = format("%.17g", 1.0 / double(room.names.size()));
    for (const std::string &name : room.names)
        out << "    ac -> " << name << " [fraction=" << fraction << "];\n";
    for (const std::string &name : room.names)
        out << "    " << name << " -> hall_exhaust [fraction=1];\n";
    out << "}\n";
    return out.str();
}

void
buildSolver(mercury::core::Solver &solver,
            const mercury::core::ConfigSpec &config)
{
    for (const mercury::core::MachineSpec &machine : config.machines)
        solver.addMachine(machine);
    if (config.room)
        solver.setRoom(*config.room);
}

} // namespace perfbench
