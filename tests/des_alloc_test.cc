/**
 * @file
 * The discrete-event request path allocates nothing in steady state.
 *
 * This binary replaces the global operator new with a counting one, so
 * it is kept apart from the other tests. It runs the §5 request path
 * (workload generator -> load balancer -> 4 servers) at the paper's
 * 70 % peak for 2000 simulated seconds and counts heap allocations
 * after a 100 s warm-up, by which point the event heap, slot tables
 * and free lists have grown to their working size.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cluster/server_machine.hh"
#include "lb/load_balancer.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

namespace {

std::atomic<bool> counting{false};
std::atomic<uint64_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line: inlined into a new-expression's cleanup, the free()
// would draw GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace mercury {
namespace {

TEST(DesAlloc, RequestPathAllocatesNothingInSteadyState)
{
    sim::Simulator simulator;
    lb::LoadBalancer balancer;
    std::vector<std::unique_ptr<cluster::ServerMachine>> servers;
    for (int i = 0; i < 4; ++i) {
        servers.push_back(std::make_unique<cluster::ServerMachine>(
            simulator, "m" + std::to_string(i + 1)));
        balancer.addServer(servers.back().get());
    }
    workload::WorkloadConfig config;
    config.peakRate = workload::peakRateForUtilization(0.70, 4, config);
    workload::WorkloadGenerator generator(simulator, balancer, config);
    generator.start();

    simulator.runUntil(sim::seconds(100.0));
    uint64_t before = balancer.submitted();
    counting = true;
    simulator.runUntil(sim::seconds(config.duration));
    counting = false;
    uint64_t requests = balancer.submitted() - before;
    uint64_t counted = allocations.load();

    std::printf("%llu allocations for %llu requests\n",
                static_cast<unsigned long long>(counted),
                static_cast<unsigned long long>(requests));
    ASSERT_GT(requests, 100000u);
    EXPECT_GT(balancer.completed(), 0u);
    EXPECT_LT(counted * 1000, requests)
        << counted << " allocations for " << requests << " requests";
}

} // namespace
} // namespace mercury
