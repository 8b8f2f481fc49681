/**
 * @file
 * The Section 5 experimental setup, packaged: 4 Apache servers behind
 * an LVS load balancer, Mercury deployed on the server nodes (Table 1
 * inputs), tempd on every server, admd at the balancer, a diurnal
 * trace with 30% CGI requests peaking at 70% utilization, and fiddle-
 * injected cooling emergencies. One call runs the whole experiment
 * deterministically and returns every series the paper plots.
 */

#ifndef MERCURY_FREON_EXPERIMENT_HH
#define MERCURY_FREON_EXPERIMENT_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cluster/dvfs.hh"
#include "core/fan.hh"
#include "freon/controller.hh"
#include "guard/sensor_guard.hh"
#include "net/faults.hh"
#include "util/stats.hh"
#include "workload/generator.hh"

namespace mercury {
namespace freon {

/** Everything configurable about one cluster experiment. */
struct ExperimentConfig
{
    /** Server count (the paper evaluates 4). */
    int servers = 4;

    /** Which policy admd runs. */
    PolicyKind policy = PolicyKind::FreonBase;

    /** Freon thresholds/gains, matched to the Table 1 emulated
     *  server's sensitivity (see FreonConfig::table1Defaults). */
    FreonConfig freon = FreonConfig::table1Defaults();

    /** Workload; peakRate <= 0 derives the 70%-of-4-servers rate. */
    workload::WorkloadConfig workload;

    /** AC supply temperature [degC] (Table 1's nominal inlet). */
    double acTemperature = 21.6;

    /** A fiddle-injected cooling emergency. */
    struct Emergency
    {
        double time = 0.0;        //!< seconds into the run
        std::string machine;
        double inletCelsius = 0.0;
    };

    /** Figure 11's two cooling emergencies at 480 s, lasting the whole
     *  run (inlet steps scaled to this model's thermal sensitivity —
     *  see addPaperEmergencies()). */
    std::vector<Emergency> emergencies;

    /** Freon-EC regions (defaulted to {m1,m3} / {m2,m4} when empty). */
    std::map<std::string, int> regionOf;

    /** Freon-EC floor on active servers. */
    int minActiveServers = 1;

    /** Recording period for the output series [s]. */
    double recordPeriod = 10.0;

    /** Extra simulated tail after the workload ends [s]. */
    double tailSeconds = 0.0;

    /** CPU-local DVFS governors on every machine (Section 4.3's
     *  hardware alternative; combinable with any policy). */
    bool enableDvfs = false;
    cluster::DvfsConfig dvfs;

    /** Variable-speed fans steered by the CPU temperature (Section 7
     *  extension). */
    bool enableVariableFans = false;
    core::FanCurve fanCurve;

    /**
     * Sensor trust layer: route every tempd reading through one
     * cluster-wide SensorGuard (streams keyed "machine.component")
     * and let admd run its degraded-mode fail-safe. Default off —
     * the guard-off path is bit-for-bit the pre-guard experiment.
     */
    bool sensorGuard = false;
    guard::GuardConfig guardConfig;

    /**
     * Sensor-level fault injection, keyed by stream name ("m1.cpu").
     * Applied to readings *between* the sensor client and tempd —
     * the solver's ground truth stays clean, which is exactly what
     * lets a test compare emulated reality against what a lying
     * sensor told Freon. Active with or without the guard.
     */
    std::map<std::string, net::SensorFaultSpec> sensorFaults;

    /**
     * Polled once per simulated second; return true to end the run
     * early with whatever has been recorded so far (freon_clusterd's
     * SIGINT/SIGTERM path). Empty = run the full horizon.
     */
    std::function<bool()> shouldStop;

    /**
     * Write the final metrics snapshot (Prometheus text format) here
     * before the experiment objects are torn down — the balancer's and
     * admd's registry hooks die with them, so a caller writing after
     * runExperiment() returns would miss every lb_ and freon_ series.
     */
    std::string metricsPath;

    /** Install the paper's two Figure 11 emergencies at 480 s. */
    void addPaperEmergencies();
};

/** Everything the paper's figures need. */
struct ExperimentResult
{
    /** True when shouldStop ended the run before the horizon. */
    bool stoppedEarly = false;

    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t dropped = 0;
    double dropRate = 0.0;

    /** Completion-latency summary over the whole run [s]. */
    double meanLatency = 0.0;
    double p95Latency = 0.0;
    double p99Latency = 0.0;

    /** Per machine: CPU temperature [degC] over time. */
    std::map<std::string, TimeSeries> cpuTemperature;

    /** Per machine: CPU utilization over time. */
    std::map<std::string, TimeSeries> cpuUtilization;

    /** Per machine: disk temperature [degC] over time. */
    std::map<std::string, TimeSeries> diskTemperature;

    /** Active (on/booting) server count over time. */
    TimeSeries activeServers{"active_servers"};

    /** Whole-cluster electrical power [W] over time. */
    TimeSeries clusterPower{"cluster_power_w"};

    /** Total electrical energy over the run [J]. */
    double energyJoules = 0.0;

    uint64_t serversTurnedOff = 0;
    uint64_t serversTurnedOn = 0;
    uint64_t weightAdjustments = 0;

    /** DVFS: per-machine relative frequency over time (when enabled). */
    std::map<std::string, TimeSeries> cpuFrequency;

    /** DVFS: total downward frequency transitions. */
    uint64_t throttleEvents = 0;

    /** Variable fans: per-machine CFM over time (when enabled). */
    std::map<std::string, TimeSeries> fanCfm;

    /** First time each machine's CPU crossed T_h; -1 if never. */
    std::map<std::string, double> firstTimeOverHigh;

    /** Highest CPU temperature seen per machine. */
    std::map<std::string, double> peakCpuTemperature;

    /** @name Sensor trust layer (populated when sensorGuard is on) */
    /// @{
    uint64_t guardAnomalies = 0;
    uint64_t guardSubstitutions = 0;
    uint64_t guardQuarantines = 0;
    uint64_t guardRecoveries = 0;
    uint64_t degradedReports = 0;
    uint64_t failSafeApplications = 0;

    /** Per-stream guard snapshot at end of run. */
    std::vector<guard::SensorGuard::StreamStatus> guardStreams;

    /** Stream -> first time it entered QUARANTINED (absent if never). */
    std::map<std::string, double> quarantinedAtSeconds;
    /// @}

    /** Restriction install/lift edges admd performed (flap metric). */
    uint64_t restrictionTransitions = 0;
};

/** Run one experiment to completion (deterministic). */
ExperimentResult runExperiment(const ExperimentConfig &config);

} // namespace freon
} // namespace mercury

#endif // MERCURY_FREON_EXPERIMENT_HH
