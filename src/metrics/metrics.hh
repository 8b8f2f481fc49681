/**
 * @file
 * Lock-cheap metrics registry shared by every Mercury daemon.
 *
 * Three instrument kinds cover the fleet's needs:
 *
 *  - Counter:   monotonic event count. inc() is one relaxed atomic
 *               fetch_add, cheap enough for the solver iteration loop
 *               (the release bench gates it below 50 ns).
 *  - Gauge:     last-written double (PD-controller output, backlog
 *               depth). set() is one relaxed atomic store.
 *  - Histogram: fixed-bucket latency distribution with p50/p99
 *               snapshots. observe() is a bucket scan plus two relaxed
 *               atomic updates; no allocation, no locks.
 *
 * A Registry names instruments and renders them three ways: a compact
 * one-line-per-metric summary (the MetricsRequest RPC / `fiddle
 * metrics`), Prometheus text exposition (--metrics-path file writer),
 * and a flat name/value vector (tests and benchmarks).
 *
 * Components that already keep their own counters export them through
 * registered callbacks; CallbackGuard unregisters on destruction so a
 * short-lived component (tests create and destroy daemons freely)
 * never leaves a dangling closure behind in the process-global
 * registry.
 *
 * Registration and rendering take a mutex; the instrument fast paths
 * never do. Instrument pointers returned by the registry stay valid
 * for the registry's lifetime.
 */

#ifndef MERCURY_METRICS_METRICS_HH
#define MERCURY_METRICS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mercury {
namespace metrics {

/** Monotonic event counter. */
class Counter
{
  public:
    void
    inc(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-written double value. */
class Gauge
{
  public:
    void set(double value);

    /** Atomic add (CAS loop); for +=/-= style gauges. */
    void add(double delta);

    double value() const;

  private:
    std::atomic<uint64_t> bits_{0}; // bit pattern of a double
};

/** Fixed-bucket histogram with atomic bucket counts. */
class Histogram
{
  public:
    /** Cumulative view taken at one instant; quantiles interpolate
     *  linearly inside the owning bucket. */
    struct Snapshot
    {
        std::vector<double> bounds;   //!< inclusive upper bounds
        std::vector<uint64_t> counts; //!< bounds.size()+1 (overflow)
        uint64_t count = 0;
        double sum = 0.0;

        double mean() const;
        double quantile(double q) const;
        double p50() const { return quantile(0.50); }
        double p99() const { return quantile(0.99); }
    };

    /** @p bounds must be strictly increasing upper bounds; one
     *  overflow bucket is appended implicitly. */
    explicit Histogram(std::vector<double> bounds);

    void observe(double value);

    Snapshot snapshot() const;

    /** Log-spaced 1-2.5-5 seconds bounds from 1 us to 10 s; the
     *  default for every latency histogram in the fleet. */
    static std::vector<double> latencyBounds();

  private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<uint64_t>[]> counts_;
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sumBits_{0}; // double bit pattern, CAS-added
};

/** One flattened metric value (histograms expand to several). */
struct Sample
{
    std::string name;
    double value = 0.0;
};

/**
 * Named instrument registry. Lookup-or-create by name; re-requesting
 * an existing name with the same kind returns the same instrument,
 * with a different kind it panics (programmer error).
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** The process-wide default registry every daemon shares. */
    static Registry &global();

    Counter *counter(const std::string &name, const std::string &help = "");
    Gauge *gauge(const std::string &name, const std::string &help = "");
    Histogram *histogram(const std::string &name,
                         std::vector<double> bounds,
                         const std::string &help = "");

    /** Export an externally-maintained value (a component's own
     *  counter) as a gauge-like metric. Returns a token; the
     *  callback stays registered until removeCallback(name, token).
     *  Registering an existing callback name replaces it (new
     *  token wins). Prefer CallbackGuard over calling these
     *  directly. */
    uint64_t addCallback(const std::string &name, const std::string &help,
                         std::function<double()> fn);

    /** Remove a callback if @p token still owns the name. */
    void removeCallback(const std::string &name, uint64_t token);

    /** Compact text: one metric per line, sorted by name.
     *  Counters/gauges render "name value"; histograms render
     *  "name count=N mean=M p50=X p99=Y". */
    std::string renderSummary() const;

    /** Prometheus text exposition (TYPE comments, histogram
     *  _bucket/_sum/_count series). */
    std::string renderProm() const;

    /** Flat name/value samples, sorted by name; histograms expand to
     *  _count/_sum/_p50/_p99. */
    std::vector<Sample> samples() const;

    /** Current values for a fixed name list (NaN when a name is
     *  missing). */
    std::vector<double> valuesFor(const std::vector<std::string> &names) const;

  private:
    enum class Kind { Counter, Gauge, Histogram, Callback };

    struct Instrument
    {
        Kind kind;
        std::string help;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        std::function<double()> callback;
        uint64_t token = 0;
    };

    Instrument *findOrCreate(const std::string &name, Kind kind,
                             const std::string &help);
    void appendSamples(const std::string &name, const Instrument &inst,
                       std::vector<Sample> *out) const;

    mutable std::mutex mutex_;
    std::map<std::string, Instrument> instruments_;
    uint64_t nextToken_ = 1;
};

/**
 * RAII bundle of callback registrations. Components register their
 * exported counters through one of these; destruction (or release())
 * removes every callback so the registry never calls into a dead
 * object.
 */
class CallbackGuard
{
  public:
    CallbackGuard() = default;
    CallbackGuard(const CallbackGuard &) = delete;
    CallbackGuard &operator=(const CallbackGuard &) = delete;
    ~CallbackGuard() { release(); }

    void add(Registry &registry, const std::string &name,
             const std::string &help, std::function<double()> fn);

    /** Unregister everything added so far. */
    void release();

  private:
    struct Entry
    {
        Registry *registry;
        std::string name;
        uint64_t token;
    };
    std::vector<Entry> entries_;
};

/**
 * Write renderProm() to @p path through atomicWriteFile (util/fileio):
 * tmp file in the same directory, fsync, rename. Callers write it at
 * most once per --metrics-seconds and at exit. Returns false (with a
 * warn) on I/O failure.
 */
bool writeTextFile(const Registry &registry, const std::string &path);

} // namespace metrics
} // namespace mercury

#endif // MERCURY_METRICS_METRICS_HH
