/**
 * @file
 * Shared plumbing for the three benchmark workloads: arguments, the
 * metric catalogue, order statistics, the span tracer, /proc readers
 * and the generated 1024-machine room every large workload uses.
 *
 * Everything here stays outside the program under test: the workloads
 * call the program only through its public headers (or, for
 * live_fleet, its UDP protocol), and time those calls from outside.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/strings.hh"

namespace mercury {
namespace core {
class Solver;
struct ConfigSpec;
} // namespace core
} // namespace mercury

namespace perfbench {

using mercury::format;
using Clock = std::chrono::steady_clock;

/** Steady-clock nanoseconds (the one time base of every span). */
int64_t nowNs();

/** Seconds between two nowNs() stamps. */
inline double
secondsBetween(int64_t start_ns, int64_t end_ns)
{
    return double(end_ns - start_ns) * 1e-9;
}

/** CPU time of this process, all threads, user + system [s]. */
double processCpuSeconds();

/** Command line of one benchmark process. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string solverd; //!< mercury_solverd binary (live_fleet)
    std::string runDir;  //!< working directory for generated inputs
};

/** Metric name -> value; absent per-layer entries print as 0. */
using Values = std::map<std::string, double>;

/** One reported metric. */
struct MetricSpec
{
    const char *name;
    const char *unit;
    /** Per-layer only: the end-to-end metric it should move, and on
     *  which workload ("moves | on"). */
    const char *movesOn;
};

/**
 * End-to-end metrics, in BENCHMARK.json order. Every workload reports
 * every one of them (the result format requires it). Only metrics
 * that repeat within their bound on a noisy shared host are here; the
 * wall-clock rates and latencies are in the traced report.
 */
const std::vector<MetricSpec> &endToEndCatalog();

/** Per-layer metrics (traced run), in BENCHMARK.json order. */
const std::vector<MetricSpec> &perLayerCatalog();

/** Result of one pass (traced or untraced) of a workload. */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t checkFailures = 0; //!< output checks failed so far
    Values endToEnd;
    Values perLayer;
    /** Per-layer self time [s] derived from the spans (traced). */
    std::map<std::string, double> selfSeconds;
    /** Human-readable report lines (checks, digests, predictions). */
    std::vector<std::string> notes;

    /** Record an output check; a failing one makes the run incorrect. */
    void check(bool ok, const std::string &what);
    void note(const std::string &line) { notes.push_back(line); }
};

/** @name Order statistics (linear interpolation, like numpy's default) */
/// @{
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/** Pearson correlation; 0 when either side is constant. */
double correlation(const std::vector<double> &x,
                   const std::vector<double> &y);
/// @}

/**
 * In-memory span recorder. Spans carry a name, start/end stamps, the
 * index of the enclosing span (-1 for a root) and a request id, and
 * are only written out when the benchmark ends. One Tracer per
 * thread; a disabled tracer records nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        int64_t start = 0;
        int64_t end = 0;
        int32_t parent = -1;
        uint64_t request = 0;
    };

    explicit Tracer(bool enabled = false, int thread = 0)
        : enabled_(enabled), thread_(thread)
    {
    }

    /** Open a span under the innermost open one; returns its index. */
    int32_t begin(const char *name, uint64_t request = 0);
    void end(int32_t index);
    /** Record a finished span with explicit stamps and parent. */
    void add(const char *name, int64_t start, int64_t end, int32_t parent,
             uint64_t request = 0);

    const std::vector<Span> &spans() const { return spans_; }
    int thread() const { return thread_; }

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, uint64_t request = 0)
            : tracer_(tracer), index_(tracer.begin(name, request))
        {
        }
        ~Scope() { tracer_.end(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int32_t index_;
    };

  private:
    bool enabled_;
    int thread_;
    std::vector<Span> spans_;
    std::vector<int32_t> open_;
};

/** Self time per span name: duration minus the children it encloses. */
std::map<std::string, double>
selfTimes(const std::vector<const Tracer *> &tracers);

/** Write every span as CSV (name,start_ns,end_ns,parent,request,thread). */
void writeSpans(const std::string &path,
                const std::vector<const Tracer *> &tracers);

/** Nonzero request-plane, shared-memory and WAL instruments in this
 *  process's global metrics registry (0 for the in-process
 *  workloads, which must not touch those layers). */
double inProcessPlaneActivity();

/** @name /proc readers */
/// @{
/** Reset this process's RSS high-water mark (/proc/self/clear_refs 5). */
void resetPeakRss();
/** VmHWM of @p pid (0 = self) [MB]; 0 when unreadable. */
double peakRssMb(pid_t pid = 0);

/** Thread-summed counters of another process. */
struct TaskCounters
{
    double cpuSeconds = 0.0; //!< sum of per-thread on-CPU time
    uint64_t contextSwitches = 0;
    uint64_t writeSyscalls = 0; //!< /proc/<pid>/io syscw
};
TaskCounters readTaskCounters(pid_t pid);
/// @}

/** 64-bit FNV-1a, chainable through @p hash. */
uint64_t fnv1a(const void *data, size_t size,
               uint64_t hash = 0xcbf29ce484222325ULL);

/** Hex rendering of a digest. */
std::string hex(uint64_t value);

/** Write @p text to @p path; false on I/O error. */
bool writeFile(const std::string &path, const std::string &text);

/**
 * The generated machine room shared by trace_churn and live_fleet:
 * Table 1 servers behind one air conditioner (Figure 1(c) scaled out),
 * with a seeded eighth of the machines carrying a second disk (a
 * second topology, so a kernel that batches identical machines still
 * meets a mixed fleet).
 */
struct Room
{
    std::vector<std::string> names;
    std::vector<bool> twoDisk;
};

/** Reference room size (ROADMAP's 1024-machine fleet). */
inline constexpr int kRoomMachines = 1024;

Room makeRoom(uint64_t seed, int machines = kRoomMachines);

/**
 * The room in the config language. Fractions are written with 17
 * significant digits, so the text never depends on how the program's
 * own writer rounds them (graphdot::writeConfig prints %g, which makes
 * a 4096-machine table1Room fail its own 1e-6 fraction check).
 */
std::string roomConfigText(const Room &room);

/** Instantiate a parsed config's machines and room in @p solver. */
void buildSolver(mercury::core::Solver &solver,
                 const mercury::core::ConfigSpec &config);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
