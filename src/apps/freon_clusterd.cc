/**
 * @file
 * freon_clusterd: command-line driver for the Section 5 cluster
 * experiments. Picks a policy, a cluster size and emergency settings,
 * runs the deterministic experiment and emits the same CSV series the
 * paper's figures plot.
 *
 *   freon_clusterd --policy freon-ec --servers 4 --duration 2000 \
 *                  --paper-emergencies
 */

#include <csignal>
#include <iostream>

#include "freon/experiment.hh"
#include "util/csv.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace {

using namespace mercury;

volatile std::sig_atomic_t stopRequested = 0;

void
handleSignal(int)
{
    stopRequested = 1;
}

freon::PolicyKind
parsePolicy(const std::string &name)
{
    std::string low = toLower(name);
    if (low == "none")
        return freon::PolicyKind::None;
    if (low == "freon" || low == "base")
        return freon::PolicyKind::FreonBase;
    if (low == "traditional")
        return freon::PolicyKind::Traditional;
    if (low == "freon-ec" || low == "ec")
        return freon::PolicyKind::FreonEC;
    if (low == "two-stage" || low == "freon-two-stage")
        return freon::PolicyKind::FreonTwoStage;
    fatal("unknown policy '", name,
          "' (none | freon | traditional | freon-ec | two-stage)");
}

net::SensorFaultSpec::Mode
parseFaultMode(const std::string &name)
{
    std::string low = toLower(name);
    if (low == "stuck" || low == "stuck-at")
        return net::SensorFaultSpec::Mode::StuckAt;
    if (low == "spike")
        return net::SensorFaultSpec::Mode::Spike;
    if (low == "drift")
        return net::SensorFaultSpec::Mode::Drift;
    if (low == "dropout")
        return net::SensorFaultSpec::Mode::Dropout;
    fatal("unknown sensor fault mode '", name,
          "' (stuck-at | spike | drift | dropout)");
}

/** "m1.cpu:stuck-at:480" (stream:mode[:start[:end]]), comma-joined. */
void
parseSensorFaults(const std::string &text,
                  std::map<std::string, net::SensorFaultSpec> *out)
{
    for (const std::string &entry : split(text, ',')) {
        if (trim(entry).empty())
            continue;
        auto parts = split(trim(entry), ':');
        if (parts.size() < 2 || parts.size() > 4)
            fatal("--sensor-fault wants stream:mode[:start[:end]]");
        net::SensorFaultSpec spec;
        spec.mode = parseFaultMode(parts[1]);
        if (parts.size() > 2) {
            auto start = parseDouble(parts[2]);
            if (!start)
                fatal("--sensor-fault: bad start time '", parts[2], "'");
            spec.startSeconds = *start;
        }
        if (parts.size() > 3) {
            auto end = parseDouble(parts[3]);
            if (!end)
                fatal("--sensor-fault: bad end time '", parts[3], "'");
            spec.endSeconds = *end;
        }
        (*out)[parts[0]] = spec;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("freon_clusterd",
                  "run a Freon cluster experiment and emit its series");
    flags.defineString("policy", "freon",
                       "none | freon | traditional | freon-ec | "
                       "two-stage");
    flags.defineInt("servers", 4, "cluster size");
    flags.defineDouble("duration", 2000.0, "experiment length [s]");
    flags.defineBool("paper-emergencies", true,
                     "inject the Figure 11 inlet emergencies at 480 s");
    flags.defineString("emergency", "",
                       "extra emergency time:machine:inletC "
                       "(e.g. 600:m2:33)");
    flags.defineBool("dvfs", false, "enable per-CPU DVFS governors");
    flags.defineBool("variable-fans", false,
                     "enable temperature-driven fans");
    flags.defineDouble("record-period", 10.0, "series sample period [s]");
    flags.defineBool("summary-only", false, "suppress the CSV series");
    flags.defineString("metrics-path", "",
                       "write the final metrics snapshot (Prometheus "
                       "text format) here when the run ends");
    flags.defineBool("sensor-guard", false,
                     "route tempd readings through the sensor trust "
                     "layer (fault detection, substitution, degraded "
                     "modes)");
    flags.defineString("sensor-fault", "",
                       "inject sensor faults: stream:mode[:start[:end]]"
                       " entries joined by commas, e.g. "
                       "m1.cpu:stuck-at:480,m2.cpu:spike:600");
    if (!flags.parse(argc, argv))
        return 0;

    freon::ExperimentConfig config;
    config.policy = parsePolicy(flags.getString("policy"));
    config.servers = static_cast<int>(flags.getInt("servers"));
    config.workload.duration = flags.getDouble("duration");
    config.recordPeriod = flags.getDouble("record-period");
    config.enableDvfs = flags.getBool("dvfs");
    config.enableVariableFans = flags.getBool("variable-fans");
    if (flags.getBool("paper-emergencies"))
        config.addPaperEmergencies();
    if (!flags.getString("emergency").empty()) {
        auto parts = split(flags.getString("emergency"), ':');
        if (parts.size() != 3)
            fatal("--emergency wants time:machine:inletC");
        auto time = parseDouble(parts[0]);
        auto temp = parseDouble(parts[2]);
        if (!time || !temp)
            fatal("--emergency wants numeric time and temperature");
        config.emergencies.push_back({*time, parts[1], *temp});
    }

    // A SIGINT/SIGTERM ends the run early but still flushes the series
    // and summary recorded so far (exit 0): an interrupted sweep keeps
    // its partial data.
    config.sensorGuard = flags.getBool("sensor-guard");
    if (!flags.getString("sensor-fault").empty())
        parseSensorFaults(flags.getString("sensor-fault"),
                          &config.sensorFaults);

    config.shouldStop = [] { return stopRequested != 0; };
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);

    config.metricsPath = flags.getString("metrics-path");

    freon::ExperimentResult result = freon::runExperiment(config);
    if (result.stoppedEarly)
        std::cerr << "freon_clusterd: interrupted, emitting partial "
                     "series\n";

    if (!flags.getBool("summary-only")) {
        std::vector<const TimeSeries *> series;
        for (const auto &[name, ts] : result.cpuTemperature)
            series.push_back(&ts);
        for (const auto &[name, ts] : result.cpuUtilization)
            series.push_back(&ts);
        series.push_back(&result.activeServers);
        series.push_back(&result.clusterPower);
        writeAlignedSeries(std::cout, series);
    }

    std::cerr << format(
        "policy=%s submitted=%llu completed=%llu dropped=%llu "
        "(%.2f%%)\n",
        flags.getString("policy").c_str(),
        static_cast<unsigned long long>(result.submitted),
        static_cast<unsigned long long>(result.completed),
        static_cast<unsigned long long>(result.dropped),
        100.0 * result.dropRate);
    std::cerr << format(
        "adjustments=%llu off=%llu on=%llu energy=%.0f J\n",
        static_cast<unsigned long long>(result.weightAdjustments),
        static_cast<unsigned long long>(result.serversTurnedOff),
        static_cast<unsigned long long>(result.serversTurnedOn),
        result.energyJoules);
    for (const auto &[name, peak] : result.peakCpuTemperature) {
        std::cerr << format("%s peak=%.2f C firstOverTh=%.0f s\n",
                            name.c_str(), peak,
                            result.firstTimeOverHigh.at(name));
    }
    if (config.sensorGuard) {
        std::cerr << format(
            "guard anomalies=%llu subst=%llu quarantines=%llu "
            "recoveries=%llu degraded=%llu failsafe=%llu\n",
            static_cast<unsigned long long>(result.guardAnomalies),
            static_cast<unsigned long long>(result.guardSubstitutions),
            static_cast<unsigned long long>(result.guardQuarantines),
            static_cast<unsigned long long>(result.guardRecoveries),
            static_cast<unsigned long long>(result.degradedReports),
            static_cast<unsigned long long>(
                result.failSafeApplications));
        for (const auto &[stream, at] : result.quarantinedAtSeconds) {
            std::cerr << format("guard %s quarantined at %.0f s\n",
                                stream.c_str(), at);
        }
    }
    return 0;
}
