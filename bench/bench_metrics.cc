/**
 * @file
 * Cost of the metrics hot path. The registry's promise is that
 * instrumenting a daemon's inner loops is effectively free: a counter
 * increment is one relaxed fetch_add (scripts/bench.py
 * gates it under 50 ns), a histogram observation is a short bucket
 * scan plus two relaxed atomics, and the only mutex in the subsystem
 * is taken at registration/render time — never on the increment path.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "metrics/metrics.hh"

namespace {

using namespace mercury;

/** The gated number: one uncontended counter increment. */
void
BM_CounterInc(benchmark::State &state)
{
    metrics::Counter counter;
    for (auto _ : state)
        counter.inc();
    benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterInc);

/**
 * The same increment with every thread hammering one cache line —
 * worst case for a daemon whose request threads share a counter.
 */
void
BM_CounterIncContended(benchmark::State &state)
{
    static metrics::Counter counter;
    for (auto _ : state)
        counter.inc();
    if (state.thread_index() == 0)
        benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterIncContended)->Threads(4)->UseRealTime();

void
BM_GaugeSet(benchmark::State &state)
{
    metrics::Gauge gauge;
    double value = 0.0;
    for (auto _ : state) {
        gauge.set(value);
        value += 1.0;
    }
    benchmark::DoNotOptimize(gauge.value());
}
BENCHMARK(BM_GaugeSet);

/** One observation into the 24-bucket latency histogram. */
void
BM_HistogramObserve(benchmark::State &state)
{
    metrics::Histogram hist(metrics::Histogram::latencyBounds());
    double value = 1e-6;
    for (auto _ : state) {
        hist.observe(value);
        value = value < 1.0 ? value * 1.7 : 1e-6; // walk the buckets
    }
    benchmark::DoNotOptimize(hist.snapshot().count);
}
BENCHMARK(BM_HistogramObserve);

/**
 * Reading a snapshot (what the RPC handler and the Prometheus writer
 * do) while nobody is writing: a linear copy of the bucket array.
 */
void
BM_HistogramSnapshot(benchmark::State &state)
{
    metrics::Histogram hist(metrics::Histogram::latencyBounds());
    for (int i = 0; i < 1000; ++i)
        hist.observe(1e-4 * (i % 100 + 1));
    for (auto _ : state) {
        auto snap = hist.snapshot();
        benchmark::DoNotOptimize(snap.count);
    }
}
BENCHMARK(BM_HistogramSnapshot);

/**
 * Name lookup through the registry mutex. Two orders of magnitude
 * slower than inc() — the number that justifies "look up once at
 * init, keep the pointer" as the instrumentation idiom.
 */
void
BM_RegistryCounterLookup(benchmark::State &state)
{
    metrics::Registry registry;
    registry.counter("requests_total");
    for (auto _ : state)
        benchmark::DoNotOptimize(registry.counter("requests_total"));
}
BENCHMARK(BM_RegistryCounterLookup);

/** Full text render of a realistically sized daemon registry. */
void
BM_RegistryRenderSummary(benchmark::State &state)
{
    metrics::Registry registry;
    for (int i = 0; i < 30; ++i)
        registry.counter("counter_" + std::to_string(i))->inc(i);
    for (int i = 0; i < 4; ++i) {
        auto *hist =
            registry.histogram("hist_" + std::to_string(i),
                               metrics::Histogram::latencyBounds());
        for (int j = 0; j < 100; ++j)
            hist->observe(1e-4 * (j + 1));
    }
    for (auto _ : state) {
        std::string text = registry.renderSummary();
        benchmark::DoNotOptimize(text.data());
    }
}
BENCHMARK(BM_RegistryRenderSummary);

} // namespace

BENCHMARK_MAIN();
