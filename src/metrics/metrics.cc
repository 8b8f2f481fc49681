#include "metrics/metrics.hh"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "util/fileio.hh"
#include "util/logging.hh"

namespace mercury {
namespace metrics {

// --------------------------------------------------------------------
// Gauge

void
Gauge::set(double value)
{
    bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
}

void
Gauge::add(double delta)
{
    uint64_t old = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        old, std::bit_cast<uint64_t>(std::bit_cast<double>(old) + delta),
        std::memory_order_relaxed, std::memory_order_relaxed)) {
    }
}

double
Gauge::value() const
{
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
}

// --------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds))
{
    if (bounds_.empty())
        MERCURY_PANIC("histogram needs at least one bucket bound");
    for (size_t i = 1; i < bounds_.size(); ++i) {
        if (!(bounds_[i] > bounds_[i - 1]))
            MERCURY_PANIC("histogram bounds must be strictly increasing");
    }
    counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
}

void
Histogram::observe(double value)
{
    // Branchless-ish linear scan: the bound vectors are small (~22
    // entries) and latency samples cluster in the low buckets, so a
    // scan beats binary search in practice and stays trivially
    // correct.
    size_t bucket = bounds_.size(); // overflow
    for (size_t i = 0; i < bounds_.size(); ++i) {
        if (value <= bounds_[i]) {
            bucket = i;
            break;
        }
    }
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    uint64_t old = sumBits_.load(std::memory_order_relaxed);
    while (!sumBits_.compare_exchange_weak(
        old, std::bit_cast<uint64_t>(std::bit_cast<double>(old) + value),
        std::memory_order_relaxed, std::memory_order_relaxed)) {
    }
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot snap;
    snap.bounds = bounds_;
    snap.counts.resize(bounds_.size() + 1);
    for (size_t i = 0; i < snap.counts.size(); ++i)
        snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum =
        std::bit_cast<double>(sumBits_.load(std::memory_order_relaxed));
    return snap;
}

double
Histogram::Snapshot::mean() const
{
    return count ? sum / static_cast<double>(count) : 0.0;
}

double
Histogram::Snapshot::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double rank = q * static_cast<double>(count);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        uint64_t in_bucket = counts[i];
        if (in_bucket == 0)
            continue;
        if (static_cast<double>(cumulative + in_bucket) >= rank) {
            // Interpolate linearly inside this bucket.
            double lower = i == 0 ? 0.0 : bounds[i - 1];
            double upper = i < bounds.size()
                               ? bounds[i]
                               : bounds.back(); // overflow: clamp
            double into = rank - static_cast<double>(cumulative);
            double frac = into / static_cast<double>(in_bucket);
            return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
        }
        cumulative += in_bucket;
    }
    return bounds.back();
}

std::vector<double>
Histogram::latencyBounds()
{
    std::vector<double> bounds;
    for (double decade = 1e-6; decade < 20.0; decade *= 10.0) {
        bounds.push_back(decade);
        bounds.push_back(decade * 2.5);
        bounds.push_back(decade * 5.0);
    }
    // 1us .. 50s: plenty for every control-loop latency we track.
    return bounds;
}

// --------------------------------------------------------------------
// Registry

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

Registry::Instrument *
Registry::findOrCreate(const std::string &name, Kind kind,
                       const std::string &help)
{
    auto [it, inserted] = instruments_.try_emplace(name);
    Instrument &inst = it->second;
    if (inserted) {
        inst.kind = kind;
        inst.help = help;
    } else if (inst.kind != kind) {
        MERCURY_PANIC("metric '", name,
                      "' re-registered with a different kind");
    }
    return &inst;
}

Counter *
Registry::counter(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> guard(mutex_);
    Instrument *inst = findOrCreate(name, Kind::Counter, help);
    if (!inst->counter)
        inst->counter = std::make_unique<Counter>();
    return inst->counter.get();
}

Gauge *
Registry::gauge(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> guard(mutex_);
    Instrument *inst = findOrCreate(name, Kind::Gauge, help);
    if (!inst->gauge)
        inst->gauge = std::make_unique<Gauge>();
    return inst->gauge.get();
}

Histogram *
Registry::histogram(const std::string &name, std::vector<double> bounds,
                    const std::string &help)
{
    std::lock_guard<std::mutex> guard(mutex_);
    Instrument *inst = findOrCreate(name, Kind::Histogram, help);
    if (!inst->histogram)
        inst->histogram = std::make_unique<Histogram>(std::move(bounds));
    return inst->histogram.get();
}

uint64_t
Registry::addCallback(const std::string &name, const std::string &help,
                      std::function<double()> fn)
{
    std::lock_guard<std::mutex> guard(mutex_);
    Instrument *inst = findOrCreate(name, Kind::Callback, help);
    inst->callback = std::move(fn);
    inst->token = nextToken_++;
    if (!inst->help.empty() && inst->help != help && !help.empty())
        inst->help = help;
    return inst->token;
}

void
Registry::removeCallback(const std::string &name, uint64_t token)
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = instruments_.find(name);
    if (it == instruments_.end() || it->second.kind != Kind::Callback)
        return;
    // A later registration replaced us; the name is theirs now.
    if (it->second.token != token)
        return;
    instruments_.erase(it);
}

namespace {

std::string
formatValue(double value)
{
    // Counters and integral gauges render without an exponent.
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRId64,
                      static_cast<int64_t>(value));
        return buf;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
}

} // namespace

void
Registry::appendSamples(const std::string &name, const Instrument &inst,
                        std::vector<Sample> *out) const
{
    switch (inst.kind) {
      case Kind::Counter:
        out->push_back({name, static_cast<double>(inst.counter->value())});
        break;
      case Kind::Gauge:
        out->push_back({name, inst.gauge->value()});
        break;
      case Kind::Callback:
        out->push_back({name, inst.callback ? inst.callback() : 0.0});
        break;
      case Kind::Histogram: {
        auto snap = inst.histogram->snapshot();
        out->push_back({name + "_count", static_cast<double>(snap.count)});
        out->push_back({name + "_sum", snap.sum});
        out->push_back({name + "_p50", snap.p50()});
        out->push_back({name + "_p99", snap.p99()});
        break;
      }
    }
}

std::vector<Sample>
Registry::samples() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::vector<Sample> out;
    out.reserve(instruments_.size());
    for (const auto &[name, inst] : instruments_)
        appendSamples(name, inst, &out);
    return out;
}

std::vector<double>
Registry::valuesFor(const std::vector<std::string> &names) const
{
    // Flatten once, then match; the name lists are small.
    std::vector<Sample> flat = samples();
    std::vector<double> out(names.size(),
                            std::numeric_limits<double>::quiet_NaN());
    for (size_t i = 0; i < names.size(); ++i) {
        for (const Sample &sample : flat) {
            if (sample.name == names[i]) {
                out[i] = sample.value;
                break;
            }
        }
    }
    return out;
}

std::string
Registry::renderSummary() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::ostringstream oss;
    for (const auto &[name, inst] : instruments_) {
        switch (inst.kind) {
          case Kind::Counter:
            oss << name << ' ' << inst.counter->value() << '\n';
            break;
          case Kind::Gauge:
            oss << name << ' ' << formatValue(inst.gauge->value()) << '\n';
            break;
          case Kind::Callback:
            oss << name << ' '
                << formatValue(inst.callback ? inst.callback() : 0.0)
                << '\n';
            break;
          case Kind::Histogram: {
            auto snap = inst.histogram->snapshot();
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "%s count=%llu mean=%.3g p50=%.3g p99=%.3g\n",
                          name.c_str(),
                          static_cast<unsigned long long>(snap.count),
                          snap.mean(), snap.p50(), snap.p99());
            oss << buf;
            break;
          }
        }
    }
    return oss.str();
}

std::string
Registry::renderProm() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    std::ostringstream oss;
    for (const auto &[name, inst] : instruments_) {
        if (!inst.help.empty())
            oss << "# HELP " << name << ' ' << inst.help << '\n';
        switch (inst.kind) {
          case Kind::Counter:
            oss << "# TYPE " << name << " counter\n";
            oss << name << ' ' << inst.counter->value() << '\n';
            break;
          case Kind::Gauge:
            oss << "# TYPE " << name << " gauge\n";
            oss << name << ' ' << formatValue(inst.gauge->value()) << '\n';
            break;
          case Kind::Callback:
            oss << "# TYPE " << name << " gauge\n";
            oss << name << ' '
                << formatValue(inst.callback ? inst.callback() : 0.0)
                << '\n';
            break;
          case Kind::Histogram: {
            auto snap = inst.histogram->snapshot();
            oss << "# TYPE " << name << " histogram\n";
            uint64_t cumulative = 0;
            for (size_t i = 0; i < snap.bounds.size(); ++i) {
                cumulative += snap.counts[i];
                oss << name << "_bucket{le=\""
                    << formatValue(snap.bounds[i]) << "\"} " << cumulative
                    << '\n';
            }
            cumulative += snap.counts.back();
            oss << name << "_bucket{le=\"+Inf\"} " << cumulative << '\n';
            oss << name << "_sum " << formatValue(snap.sum) << '\n';
            oss << name << "_count " << snap.count << '\n';
            break;
          }
        }
    }
    return oss.str();
}

// --------------------------------------------------------------------
// CallbackGuard

void
CallbackGuard::add(Registry &registry, const std::string &name,
                   const std::string &help, std::function<double()> fn)
{
    uint64_t token = registry.addCallback(name, help, std::move(fn));
    entries_.push_back({&registry, name, token});
}

void
CallbackGuard::release()
{
    for (const Entry &entry : entries_)
        entry.registry->removeCallback(entry.name, entry.token);
    entries_.clear();
}

// --------------------------------------------------------------------
// Text file writer

bool
writeTextFile(const Registry &registry, const std::string &path)
{
    std::string error;
    if (!atomicWriteFile(path, registry.renderProm(), &error)) {
        warn("metrics: cannot write ", path, ": ", error);
        return false;
    }
    return true;
}

} // namespace metrics
} // namespace mercury
