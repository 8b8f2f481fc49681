#include "freon/experiment.hh"

#include <memory>

#include "cluster/server_machine.hh"
#include "cluster/thermal_bridge.hh"
#include "core/solver.hh"
#include "fiddle/command.hh"
#include "lb/load_balancer.hh"
#include "metrics/metrics.hh"
#include "proto/solver_service.hh"
#include "sensor/client.hh"
#include "sim/simulator.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace mercury {
namespace freon {

void
ExperimentConfig::addPaperEmergencies()
{
    // "At 480 seconds, fiddle raised the inlet temperature of machine
    // 1 to 38.6 C and machine 3 to 35.6 C. (The emergencies are set to
    // last the entire experiment.)" Paired with the Table 1-scaled
    // thresholds (FreonConfig::table1Defaults) these exact values
    // reproduce the published behaviour: m1 crosses T_h first as the
    // load approaches its peak, m3 follows once it absorbs m1's
    // shifted load, and the traditional policy red-lines both.
    emergencies.push_back({480.0, "m1", 38.6});
    emergencies.push_back({480.0, "m3", 35.6});
}

ExperimentResult
runExperiment(const ExperimentConfig &config)
{
    if (config.servers < 1)
        fatal("experiment needs at least one server");

    sim::Simulator simulator;

    // --- Mercury: Table 1 machines under one AC (Figure 1(c)). ---
    core::Solver solver;
    std::vector<std::string> names;
    std::vector<core::MachineSpec> specs;
    for (int i = 0; i < config.servers; ++i) {
        std::string name = "m" + std::to_string(i + 1);
        names.push_back(name);
        specs.push_back(core::table1Server(name));
        solver.addMachine(specs.back());
    }
    solver.setRoom(core::table1Room(names, config.acTemperature));

    // --- The cluster: servers, LVS, workload. ---
    cluster::ThermalBridge bridge(simulator, solver);
    std::vector<std::unique_ptr<cluster::ServerMachine>> machines;
    lb::LoadBalancer balancer;
    balancer.registerMetrics(metrics::Registry::global());
    for (int i = 0; i < config.servers; ++i) {
        machines.push_back(std::make_unique<cluster::ServerMachine>(
            simulator, names[i]));
        balancer.addServer(machines.back().get());
        bridge.attach(*machines.back(), specs[i]);
    }
    bridge.start(solver.iterationSeconds());

    workload::WorkloadConfig workload_config = config.workload;
    if (workload_config.peakRate <= 0.0) {
        workload_config.peakRate = workload::peakRateForUtilization(
            0.70, config.servers, workload_config);
    }
    workload::WorkloadGenerator generator(simulator, balancer,
                                          workload_config);
    generator.start();

    // --- Freon: admd at the balancer, tempd on every server. ---
    FreonController::Options options;
    options.config = config.freon;
    options.policy = config.policy;
    options.minActiveServers = config.minActiveServers;
    options.regionOf = config.regionOf;
    if (options.policy == PolicyKind::FreonEC && options.regionOf.empty()) {
        // The paper groups machines 1 and 3 in region 0, 2 and 4 in
        // region 1.
        for (int i = 0; i < config.servers; ++i)
            options.regionOf[names[i]] = (i % 2 == 0) ? 0 : 1;
    }
    FreonController controller(simulator, balancer, options);
    controller.start();

    // Sensor-level fault injectors, keyed by stream; they corrupt the
    // reading after the sensor plane answers, so the solver's ground
    // truth stays honest while tempd sees the lie.
    std::map<std::string, std::unique_ptr<net::SensorFaultInjector>>
        injectors;
    for (const auto &[stream, spec] : config.sensorFaults)
        injectors[stream] = std::make_unique<net::SensorFaultInjector>(spec);

    // The cluster-wide trust layer (one guard, streams keyed
    // "machine.component"); null when disabled, and every wrapper
    // below collapses to the pre-guard behavior.
    std::unique_ptr<guard::SensorGuard> guard;
    if (config.sensorGuard)
        guard = std::make_unique<guard::SensorGuard>(config.guardConfig);
    bridge.service().setSensorGuard(guard.get());

    // tempd reads temperatures through the same message-level sensor
    // interface a real deployment would use.
    std::vector<std::unique_ptr<sensor::SensorClient>> sensors;
    std::vector<std::unique_ptr<Tempd>> tempds;
    for (const std::string &name : names) {
        sensors.push_back(std::make_unique<sensor::SensorClient>(
            std::make_unique<sensor::LocalTransport>(bridge.service()),
            name));
        sensor::SensorClient *client = sensors.back().get();
        core::ThermalGraph &graph = solver.machine(name);
        auto fault = [&injectors, &simulator,
                      name](const std::string &component,
                            std::optional<double> value) {
            auto it = injectors.find(name + "." + component);
            if (it == injectors.end())
                return value;
            return it->second->apply(simulator.nowSeconds(), value);
        };
        auto read = [client,
                     fault](const std::string &component) {
            return fault(component, client->read(component));
        };
        auto util = [&graph, &solver, name](const std::string &component) {
            return graph.utilization(solver.resolveNode(name, component));
        };
        tempds.push_back(std::make_unique<Tempd>(
            simulator, name, config.freon, read,
            [&controller](const TempdReport &report) {
                controller.onReport(report);
            },
            util));
        tempds.back()->setBatchedRead(
            [client, fault](const std::vector<std::string> &components) {
                std::vector<std::optional<double>> values =
                    client->readMany(components);
                for (size_t i = 0;
                     i < components.size() && i < values.size(); ++i)
                    values[i] = fault(components[i], values[i]);
                return values;
            });
        if (guard)
            tempds.back()->setGuard(guard.get());
        tempds.back()->start();
    }

    // --- Optional hardware-side mechanisms. ---
    std::vector<std::unique_ptr<cluster::DvfsGovernor>> governors;
    if (config.enableDvfs) {
        for (int i = 0; i < config.servers; ++i) {
            const std::string &name = names[i];
            core::ThermalGraph &graph = solver.machine(name);
            const core::NodeSpec *cpu_spec = specs[i].findNode("cpu");
            double p_min = cpu_spec->minPower;
            double p_max = cpu_spec->maxPower;
            cluster::ServerMachine &machine = *machines[i];
            auto read = [&graph] { return graph.temperature("cpu"); };
            // Dynamic power scales ~f^3 with voltage tracking
            // frequency; skip while the bridge holds the machine dark.
            auto apply = [&graph, &machine, p_min, p_max](double f) {
                if (!machine.isOff()) {
                    graph.setPowerRange(
                        "cpu", p_min,
                        p_min + (p_max - p_min) * f * f * f);
                }
            };
            governors.push_back(std::make_unique<cluster::DvfsGovernor>(
                simulator, machine, read, apply, config.dvfs));
            governors.back()->start();
        }
    }

    std::vector<std::unique_ptr<core::FanController>> fans;
    if (config.enableVariableFans) {
        for (const std::string &name : names) {
            fans.push_back(std::make_unique<core::FanController>(
                solver.machine(name), "cpu", config.fanCurve));
        }
        simulator.every(sim::seconds(1.0), [&fans] {
            for (auto &fan : fans)
                fan->update();
            return true;
        });
    }

    // --- Emergencies, injected exactly like a fiddle script. ---
    for (const ExperimentConfig::Emergency &emergency :
         config.emergencies) {
        simulator.at(sim::seconds(emergency.time), [&solver, emergency] {
            fiddle::FiddleResult result = fiddle::applyLine(
                solver, format("fiddle %s temperature inlet %g",
                               emergency.machine.c_str(),
                               emergency.inletCelsius));
            if (!result.ok)
                warn("experiment emergency failed: ", result.message);
        });
    }

    // --- Recording. ---
    ExperimentResult result;
    for (const std::string &name : names) {
        result.cpuTemperature.emplace(name,
                                      TimeSeries(name + ".cpu_temp"));
        result.cpuUtilization.emplace(name,
                                      TimeSeries(name + ".cpu_util"));
        result.diskTemperature.emplace(name,
                                       TimeSeries(name + ".disk_temp"));
        result.peakCpuTemperature[name] = 0.0;
        if (config.enableDvfs)
            result.cpuFrequency.emplace(name, TimeSeries(name + ".freq"));
        if (config.enableVariableFans)
            result.fanCfm.emplace(name, TimeSeries(name + ".fan_cfm"));
    }
    simulator.every(sim::seconds(config.recordPeriod), [&] {
        double now = simulator.nowSeconds();
        int active = controller.activeServers();
        result.activeServers.add(now, active);
        double power = 0.0;
        for (const std::string &name : names) {
            core::ThermalGraph &graph = solver.machine(name);
            double cpu_temp = graph.temperature("cpu");
            result.cpuTemperature.at(name).add(now, cpu_temp);
            result.cpuUtilization.at(name).add(now,
                                               graph.utilization("cpu"));
            result.diskTemperature.at(name).add(
                now, graph.temperature("disk_platters"));
            result.peakCpuTemperature[name] =
                std::max(result.peakCpuTemperature[name], cpu_temp);
            power += graph.totalPower();
        }
        for (size_t i = 0; i < governors.size(); ++i) {
            result.cpuFrequency.at(names[i]).add(
                now, governors[i]->frequency());
        }
        for (size_t i = 0; i < fans.size(); ++i)
            result.fanCfm.at(names[i]).add(now, fans[i]->currentCfm());
        result.clusterPower.add(now, power);
        return true;
    });

    // --- Run. ---
    if (config.shouldStop) {
        simulator.every(sim::seconds(1.0), [&] {
            if (config.shouldStop())
                simulator.requestStop();
            return true;
        });
    }
    double horizon = workload_config.duration + config.tailSeconds;
    simulator.runUntil(sim::seconds(horizon));
    result.stoppedEarly = simulator.stopRequested();

    // --- Collect. ---
    result.submitted = balancer.submitted();
    result.completed = balancer.completed();
    result.dropped = balancer.dropped();
    result.dropRate = balancer.dropRate();
    result.meanLatency = balancer.latencyStats().mean();
    Histogram latency = balancer.latencyHistogram();
    result.p95Latency = latency.quantile(0.95);
    result.p99Latency = latency.quantile(0.99);
    result.serversTurnedOff = controller.serversTurnedOff();
    result.serversTurnedOn = controller.serversTurnedOn();
    result.weightAdjustments = controller.weightAdjustments();
    result.degradedReports = controller.degradedReports();
    result.failSafeApplications = controller.failSafeApplications();
    result.restrictionTransitions = controller.restrictionTransitions();
    if (guard) {
        result.guardAnomalies = guard->anomaliesTotal();
        result.guardSubstitutions = guard->substitutionsTotal();
        result.guardQuarantines = guard->quarantinesTotal();
        result.guardRecoveries = guard->recoveriesTotal();
        result.guardStreams = guard->streamStatuses();
        for (const auto &status : result.guardStreams) {
            if (status.quarantinedAt >= 0.0) {
                result.quarantinedAtSeconds[status.stream] =
                    status.quarantinedAt;
            }
        }
    }
    for (const auto &governor : governors)
        result.throttleEvents += governor->throttleEvents();
    for (const std::string &name : names) {
        result.energyJoules += solver.machine(name).energyConsumed();
        double threshold = config.freon.components.count("cpu")
                               ? config.freon.components.at("cpu").high
                               : 67.0;
        result.firstTimeOverHigh[name] =
            result.cpuTemperature.at(name).firstTimeAbove(threshold);
    }
    if (!config.metricsPath.empty()) {
        metrics::writeTextFile(metrics::Registry::global(),
                               config.metricsPath);
    }
    bridge.service().setSensorGuard(nullptr); // guard dies before bridge
    return result;
}

} // namespace freon
} // namespace mercury
