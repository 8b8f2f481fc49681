#include "sensor/sensor_api.hh"

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <chrono>

#include "metrics/metrics.hh"
#include "sensor/client.hh"
#include "telemetry/layout.hh"
#include "telemetry/reader.hh"
#include "util/logging.hh"

namespace {

using mercury::proto::SolverService;
using mercury::sensor::LocalTransport;
using mercury::sensor::SensorClient;
using mercury::sensor::Transport;
using mercury::sensor::UdpTransport;
using mercury::telemetry::Reader;

struct OpenSensor
{
    /** Shared per (host, port, machine): descriptors for the same
     *  solver machine batch onto one client in readsensors(). */
    std::shared_ptr<SensorClient> client;
    std::string component;

    /** Telemetry fast path; null when the solver is remote or shm is
     *  disabled. The resolved slot is cached; Reader::read() rejects
     *  it automatically when the mapping generation moves on. */
    std::shared_ptr<Reader> shm;
    std::optional<Reader::Slot> slot;

    int lastPath = MERCURY_SENSOR_PATH_NONE;
};

std::mutex registryMutex;
std::map<int, OpenSensor> registry;
int nextDescriptor = 1;
SolverService *localService = nullptr;

/** Read-latency split by path, plus the fallback counter (global
 *  registry; the C API has no other configuration surface). */
struct PathMetrics
{
    mercury::metrics::Counter *shmReads;
    mercury::metrics::Histogram *shmLatency;
    mercury::metrics::Histogram *udpLatency;
    mercury::metrics::Counter *shmFallbacks;
};

/**
 * One shm read in this many is timed into sensor_shm_read_seconds:
 * two clock reads and an observe cost about as much as the ~100 ns
 * read itself. sensor_shm_reads_total counts every shm read.
 */
constexpr uint64_t kShmTimingStride = 64;

/** Shm read attempts so far (descriptors with a segment); guarded by
 *  registryMutex. */
uint64_t shmAttempts = 0;

PathMetrics &
pathMetrics()
{
    static PathMetrics instance = [] {
        auto &reg = mercury::metrics::Registry::global();
        PathMetrics m;
        m.shmReads = reg.counter(
            "sensor_shm_reads_total",
            "readsensor() reads served by the shm fast path");
        m.shmLatency = reg.histogram(
            "sensor_shm_read_seconds",
            mercury::metrics::Histogram::latencyBounds(),
            "readsensor() latency over the shm fast path, one read in 64");
        m.udpLatency = reg.histogram(
            "sensor_udp_read_seconds",
            mercury::metrics::Histogram::latencyBounds(),
            "readsensor() latency over the network path");
        m.shmFallbacks = reg.counter(
            "sensor_shm_fallback_total",
            "reads that had a shm segment but fell back to the network");
        return m;
    }();
    return instance;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** (host '\n' port '\n' machine) -> live client, for batching. */
std::map<std::string, std::weak_ptr<SensorClient>> clientCache;

/** shm name -> live reader, so one process maps a segment once. */
std::map<std::string, std::weak_ptr<Reader>> readerCache;

std::string
localHostname()
{
    char buf[256] = {};
    if (::gethostname(buf, sizeof(buf) - 1) != 0)
        return "localhost";
    return buf;
}

/** Is the solver host this host, making its shm segment reachable? */
bool
hostIsLocal(const std::string &host)
{
    return host == "local" || host == "localhost" ||
           host == "127.0.0.1" || host == "::1" ||
           host == localHostname();
}

bool
shmDisabled()
{
    const char *value = std::getenv("MERCURY_NO_SHM");
    return value && *value && std::string(value) != "0";
}

std::string
shmNameFor(int port)
{
    const char *override_name = std::getenv("MERCURY_SHM_NAME");
    if (override_name && *override_name)
        return mercury::telemetry::normalizeShmName(override_name);
    return mercury::telemetry::defaultShmName(
        static_cast<uint16_t>(port));
}

std::shared_ptr<Reader>
readerFor(const std::string &shm_name)
{
    auto &weak = readerCache[shm_name];
    std::shared_ptr<Reader> reader = weak.lock();
    if (!reader) {
        reader = std::make_shared<Reader>(shm_name);
        weak = reader;
    }
    return reader;
}

/**
 * Try the telemetry segment. Caches the resolved slot; a read refused
 * because the writer restarted with a new topology drops the cache and
 * resolves once more before giving up (registryMutex held).
 */
std::optional<double>
readShmLocked(OpenSensor &sensor)
{
    if (!sensor.shm)
        return std::nullopt;
    for (int attempt = 0; attempt < 2; ++attempt) {
        if (!sensor.slot) {
            sensor.slot = sensor.shm->resolve(sensor.client->machine(),
                                              sensor.component);
            if (!sensor.slot)
                return std::nullopt;
        }
        auto sample = sensor.shm->read(*sensor.slot);
        if (sample)
            return sample->temperature;
        sensor.slot.reset();
    }
    return std::nullopt;
}

} // namespace

int
opensensor_for(const char *host, int port, const char *machine,
               const char *component)
{
    if (!host || !machine || !component || port <= 0 || port > 65535)
        return -1;

    std::string host_name = host;
    std::string cache_key =
        host_name + "\n" + std::to_string(port) + "\n" + machine;

    std::unique_ptr<Transport> transport;
    {
        std::lock_guard<std::mutex> guard(registryMutex);
        if (host_name == "local" && localService) {
            transport = std::make_unique<LocalTransport>(*localService);
        }
    }
    if (!transport) {
        auto udp = std::make_unique<UdpTransport>(
            host_name, static_cast<uint16_t>(port));
        if (!udp->valid())
            return -1;
        transport = std::move(udp);
    }

    std::lock_guard<std::mutex> guard(registryMutex);
    OpenSensor sensor;
    auto &weak = clientCache[cache_key];
    sensor.client = weak.lock();
    if (!sensor.client) {
        sensor.client = std::make_shared<SensorClient>(
            std::move(transport), machine);
        weak = sensor.client;
    }
    sensor.component = component;
    if (hostIsLocal(host_name) && !shmDisabled())
        sensor.shm = readerFor(shmNameFor(port));

    int sd = nextDescriptor++;
    registry[sd] = std::move(sensor);
    return sd;
}

int
opensensor(const char *host, int port, const char *component)
{
    return opensensor_for(host, port, localHostname().c_str(), component);
}

float
readsensor(int sd)
{
    // The registry lock is held across the round trip so a concurrent
    // closesensor() cannot free the client mid-read. Descriptors are a
    // convenience API; heavy multi-threaded use should hold its own
    // SensorClient instances instead.
    std::lock_guard<std::mutex> guard(registryMutex);
    auto it = registry.find(sd);
    if (it == registry.end())
        return std::numeric_limits<float>::quiet_NaN();
    OpenSensor &sensor = it->second;

    bool timed = sensor.shm && shmAttempts++ % kShmTimingStride == 0;
    auto start = timed ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{};
    auto fast = readShmLocked(sensor);
    if (fast) {
        sensor.lastPath = MERCURY_SENSOR_PATH_SHM;
        pathMetrics().shmReads->inc();
        if (timed)
            pathMetrics().shmLatency->observe(secondsSince(start));
        return static_cast<float>(*fast);
    }
    if (sensor.shm)
        pathMetrics().shmFallbacks->inc();

    // The network read is timed always; an untimed shm miss (~100 ns)
    // is left out of its ~100 us.
    if (!timed)
        start = std::chrono::steady_clock::now();
    auto value = sensor.client->read(sensor.component);
    pathMetrics().udpLatency->observe(secondsSince(start));
    if (!value)
        return std::numeric_limits<float>::quiet_NaN();
    sensor.lastPath = MERCURY_SENSOR_PATH_UDP;
    return static_cast<float>(*value);
}

int
readsensors(const int *descriptors, float *temperatures, int count)
{
    if (!descriptors || !temperatures || count < 0)
        return -1;

    std::lock_guard<std::mutex> guard(registryMutex);
    int successes = 0;

    // Descriptors still needing the network after the shm pass,
    // grouped by client so every machine costs one batched request
    // per 12 components.
    std::map<SensorClient *, std::vector<int>> pending;

    for (int i = 0; i < count; ++i) {
        temperatures[i] = std::numeric_limits<float>::quiet_NaN();
        auto it = registry.find(descriptors[i]);
        if (it == registry.end())
            continue;
        OpenSensor &sensor = it->second;
        bool timed = sensor.shm && shmAttempts++ % kShmTimingStride == 0;
        auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
        auto fast = readShmLocked(sensor);
        if (fast) {
            sensor.lastPath = MERCURY_SENSOR_PATH_SHM;
            pathMetrics().shmReads->inc();
            if (timed)
                pathMetrics().shmLatency->observe(secondsSince(start));
            temperatures[i] = static_cast<float>(*fast);
            ++successes;
            continue;
        }
        if (sensor.shm)
            pathMetrics().shmFallbacks->inc();
        pending[sensor.client.get()].push_back(i);
    }

    for (auto &[client, indices] : pending) {
        std::vector<std::string> components;
        components.reserve(indices.size());
        for (int i : indices)
            components.push_back(registry[descriptors[i]].component);
        auto start = std::chrono::steady_clock::now();
        std::vector<std::optional<double>> values =
            client->readMany(components);
        pathMetrics().udpLatency->observe(secondsSince(start));
        for (size_t k = 0; k < indices.size(); ++k) {
            if (!values[k])
                continue;
            int i = indices[k];
            registry[descriptors[i]].lastPath = MERCURY_SENSOR_PATH_UDP;
            temperatures[i] = static_cast<float>(*values[k]);
            ++successes;
        }
    }
    return successes;
}

void
closesensor(int sd)
{
    std::lock_guard<std::mutex> guard(registryMutex);
    registry.erase(sd);
}

int
sensorpath(int sd)
{
    std::lock_guard<std::mutex> guard(registryMutex);
    auto it = registry.find(sd);
    if (it == registry.end())
        return MERCURY_SENSOR_PATH_NONE;
    return it->second.lastPath;
}

void
installLocalSolver(SolverService *service)
{
    std::lock_guard<std::mutex> guard(registryMutex);
    localService = service;
}
