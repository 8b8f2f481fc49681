#include "cluster/server_machine.hh"

#include <algorithm>

#include "util/logging.hh"

namespace mercury {
namespace cluster {

ServerMachine::ServerMachine(sim::Simulator &simulator, std::string name,
                             ServerConfig config)
    : simulator_(simulator), name_(std::move(name)), config_(config)
{
    if (config_.maxConnections <= 0)
        MERCURY_PANIC("ServerMachine: non-positive connection limit");
    lastSampleTime_ = simulator_.nowSeconds();
}

void
ServerMachine::enterState(PowerState next)
{
    if (state_ == next)
        return;
    state_ = next;
    if (stateFn_)
        stateFn_(*this, next);
}

bool
ServerMachine::offer(const Request &request)
{
    double now = simulator_.nowSeconds();
    if (state_ != PowerState::On) {
        ++dropped_;
        if (completion_)
            completion_(*this, request, RequestOutcome::DroppedNoServer);
        return false;
    }
    if (active_ >= config_.maxConnections) {
        ++dropped_;
        if (completion_)
            completion_(*this, request, RequestOutcome::DroppedOverload);
        return false;
    }

    // CPU and disk are modelled as parallel unit-rate FIFO queues; the
    // request completes when the slower one finishes its share.
    double cpu_start = std::max(now, cpuFreeAt_);
    double disk_start = std::max(now, diskFreeAt_);
    double queueing = std::max(cpu_start - now, disk_start - now);
    if (queueing > config_.maxQueueSeconds) {
        ++dropped_;
        if (completion_)
            completion_(*this, request, RequestOutcome::DroppedOverload);
        return false;
    }

    double cpu_demand = request.cpuSeconds / cpuSpeed_;
    double cpu_end = cpu_start + cpu_demand;
    double disk_end = disk_start + request.diskSeconds;
    cpuFreeAt_ = cpu_end;
    diskFreeAt_ = disk_end;
    cpuBusyBefore_ += cpu_demand; // total scheduled busy time
    diskBusyBefore_ += request.diskSeconds;

    ++active_;
    double completion_time = std::max(cpu_end, disk_end);
    uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<uint32_t>(inFlight_.size());
        inFlight_.push_back(request);
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        inFlight_[slot] = request;
    }
    simulator_.at(sim::seconds(completion_time),
                  [this, slot] { finishRequest(slot); });
    return true;
}

void
ServerMachine::finishRequest(uint32_t slot)
{
    // Copy out first: the completion hook may offer this machine a new
    // request, which can reuse the slot or grow the table.
    const Request request = inFlight_[slot];
    freeSlots_.push_back(slot);
    --active_;
    ++served_;
    double latency = simulator_.nowSeconds() - request.arrivalTime;
    if (latency >= 0.0) {
        latencyStats_.add(latency);
        latencyHistogram_.add(latency);
    }
    if (completion_)
        completion_(*this, request, RequestOutcome::Completed);
    if (state_ == PowerState::Draining && active_ == 0)
        enterState(PowerState::Off);
}

void
ServerMachine::setCpuSpeed(double relative)
{
    if (relative <= 0.0 || relative > 1.0)
        MERCURY_PANIC("ServerMachine: cpu speed ", relative,
                      " outside (0, 1]");
    cpuSpeed_ = relative;
}

void
ServerMachine::beginShutdown()
{
    if (state_ != PowerState::On)
        return;
    if (active_ == 0) {
        enterState(PowerState::Off);
    } else {
        enterState(PowerState::Draining);
    }
}

void
ServerMachine::powerOn()
{
    if (state_ != PowerState::Off)
        return;
    enterState(PowerState::Booting);
    simulator_.after(sim::seconds(config_.bootSeconds), [this] {
        if (state_ == PowerState::Booting)
            enterState(PowerState::On);
    });
}

double
ServerMachine::busyUpTo(double free_at, double busy_accum) const
{
    // All work was scheduled in the past, and pending intervals form a
    // contiguous chain ending at free_at, so the not-yet-elapsed part
    // of the scheduled busy time is exactly max(0, free_at - now).
    double now = simulator_.nowSeconds();
    return busy_accum - std::max(0.0, free_at - now);
}

ServerMachine::UtilizationSample
ServerMachine::sampleUtilization()
{
    double now = simulator_.nowSeconds();
    double window = now - lastSampleTime_;
    UtilizationSample sample;
    double cpu_busy_now = busyUpTo(cpuFreeAt_, cpuBusyBefore_);
    double disk_busy_now = busyUpTo(diskFreeAt_, diskBusyBefore_);
    if (window > 1e-12) {
        sample.cpu = std::clamp((cpu_busy_now - lastCpuBusy_) / window,
                                0.0, 1.0);
        sample.disk = std::clamp((disk_busy_now - lastDiskBusy_) / window,
                                 0.0, 1.0);
    }
    lastCpuBusy_ = cpu_busy_now;
    lastDiskBusy_ = disk_busy_now;
    lastSampleTime_ = now;
    return sample;
}

} // namespace cluster
} // namespace mercury
