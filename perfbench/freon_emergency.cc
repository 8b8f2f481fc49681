/**
 * @file
 * freon_emergency: the Section 5 scenario through freon::runExperiment
 * -- 4 servers, the paper's diurnal trace (the generator's default
 * seed) and Figure 11's emergencies at 480 s -- under Traditional,
 * Freon base and Freon-EC in turn. Trios repeat until --seconds have
 * passed; metrics are medians over trios.
 *
 * The scenario is one fixed input: --seed does not change it, so every
 * simulated statistic, and their digest, is the same on every run, and
 * host-time changes are separable from behaviour changes.
 */

#include "freon/experiment.hh"
#include "metrics/metrics.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

constexpr int kMinTrios = 2;
/** Simulated seconds per bin when correlating host time with load. */
constexpr size_t kCorrelationBin = 20;

struct Policy
{
    const char *name;
    mercury::freon::PolicyKind kind;
};

const Policy kPolicies[] = {
    {"traditional", mercury::freon::PolicyKind::Traditional},
    {"freon", mercury::freon::PolicyKind::FreonBase},
    {"freon-ec", mercury::freon::PolicyKind::FreonEC},
};

uint64_t
digestOf(const mercury::freon::ExperimentResult &r)
{
    uint64_t h = fnv1a(&r.submitted, sizeof r.submitted);
    h = fnv1a(&r.completed, sizeof r.completed, h);
    h = fnv1a(&r.dropped, sizeof r.dropped, h);
    h = fnv1a(&r.serversTurnedOff, sizeof r.serversTurnedOff, h);
    h = fnv1a(&r.serversTurnedOn, sizeof r.serversTurnedOn, h);
    h = fnv1a(&r.weightAdjustments, sizeof r.weightAdjustments, h);
    h = fnv1a(&r.energyJoules, sizeof r.energyJoules, h);
    for (const auto &[machine, peak] : r.peakCpuTemperature)
        h = fnv1a(&peak, sizeof peak, h);
    for (double v : r.activeServers.values())
        h = fnv1a(&v, sizeof v, h);
    return h;
}

/** Per-policy output check (the paper's Figure 11/12 behaviour). */
void
checkPolicy(Outcome &outcome, const Policy &policy,
            const mercury::freon::ExperimentResult &r, double redline)
{
    using mercury::freon::PolicyKind;
    std::string what = policy.name;
    switch (policy.kind) {
      case PolicyKind::Traditional:
        outcome.check(r.serversTurnedOff == 2 && r.dropped > 0,
                      what + format(": 2 servers off and drops > 0 (saw %llu "
                                    "off, %llu drops)",
                                    static_cast<unsigned long long>(
                                        r.serversTurnedOff),
                                    static_cast<unsigned long long>(
                                        r.dropped)));
        break;
      case PolicyKind::FreonBase:
        outcome.check(r.dropped == 0 && r.serversTurnedOff == 0 &&
                          r.peakCpuTemperature.at("m1") < redline &&
                          r.peakCpuTemperature.at("m3") < redline,
                      what + format(": 0 drops, 0 servers off, m1/m3 peaks "
                                    "below T_r %.1f (saw %llu drops, %llu "
                                    "off, peaks %.2f/%.2f)",
                                    redline,
                                    static_cast<unsigned long long>(r.dropped),
                                    static_cast<unsigned long long>(
                                        r.serversTurnedOff),
                                    r.peakCpuTemperature.at("m1"),
                                    r.peakCpuTemperature.at("m3")));
        break;
      default:
        outcome.check(r.dropped == 0 && r.activeServers.minValue() == 1.0 &&
                          r.activeServers.maxValue() == 4.0,
                      what + format(": 1<->4 active servers, 0 drops (saw "
                                    "%.0f..%.0f active, %llu drops)",
                                    r.activeServers.minValue(),
                                    r.activeServers.maxValue(),
                                    static_cast<unsigned long long>(
                                        r.dropped)));
        break;
    }
}

double
registryValue(const char *name)
{
    return mercury::metrics::Registry::global().valuesFor({name}).front();
}

} // namespace

Outcome
runFreonEmergency(const Args &args, bool traced)
{
    using namespace mercury;
    Outcome outcome;
    Tracer tracer(traced);
    resetPeakRss();

    std::vector<double> setup_sums, emu, cpu_per_request;
    // Host time per simulated second, kept only by the traced run: the
    // untraced run's own memory stays flat however many trios run, so
    // peak_rss_mb measures the program.
    std::vector<double> per_second_us;
    std::vector<double> bin_lb_requests, bin_host_ms;
    double trio_requests = 0.0, trio_drops = 0.0, trio_actuations = 0.0;
    uint64_t first_digest = 0;

    int64_t began = nowNs();
    int trio = 0;
    while (trio < kMinTrios || secondsBetween(began, nowNs()) < args.seconds) {
        Tracer::Scope trio_span(tracer, "trio", uint64_t(trio));
        double setup_sum = 0.0, simulated = 0.0, host = 0.0, cpu = 0.0;
        double requests = 0.0, drops = 0.0, actuations = 0.0;
        uint64_t digest = fnv1a(nullptr, 0);
        for (const Policy &policy : kPolicies) {
            uint64_t failures_before = outcome.checkFailures;
            freon::ExperimentConfig config;
            config.policy = policy.kind;
            config.workload.duration = 2000.0;
            config.addPaperEmergencies();
            std::vector<int64_t> polls;
            std::vector<double> submitted;
            polls.reserve(2100);
            config.shouldStop = [&] {
                polls.push_back(nowNs());
                if (traced)
                    submitted.push_back(registryValue("lb_submitted_total"));
                return false;
            };
            double cpu0 = processCpuSeconds();
            int64_t t0 = nowNs();
            int32_t span = tracer.begin("freon::runExperiment", trio);
            freon::ExperimentResult result = freon::runExperiment(config);
            tracer.end(span);
            int64_t t1 = nowNs();
            double cpu1 = processCpuSeconds();

            outcome.check(!polls.empty() && !result.stoppedEarly,
                          format("%s ran its horizon", policy.name));
            if (polls.empty()) {
                ++outcome.attempted;
                ++outcome.failed;
                continue;
            }
            // Simulator::every first fires one period in, so this span
            // also holds the first simulated second of DES work.
            setup_sum += secondsBetween(t0, polls.front());
            simulated += config.workload.duration;
            host += secondsBetween(t0, t1);
            cpu += cpu1 - cpu0;
            requests += double(result.submitted);
            drops += double(result.dropped);
            actuations += double(result.weightAdjustments +
                                 result.serversTurnedOff +
                                 result.serversTurnedOn);
            tracer.add("setup(call->first shouldStop)", t0, polls.front(),
                       span);
            double bin_ms = 0.0, bin_requests = 0.0;
            for (size_t k = 1; k < polls.size(); ++k) {
                double us = double(polls[k] - polls[k - 1]) * 1e-3;
                if (traced)
                    per_second_us.push_back(us);
                tracer.add("simulated second", polls[k - 1], polls[k], span);
                if (traced && k < submitted.size()) {
                    bin_ms += us * 1e-3;
                    bin_requests += submitted[k] - submitted[k - 1];
                    if (k % kCorrelationBin == 0) {
                        bin_host_ms.push_back(bin_ms);
                        bin_lb_requests.push_back(bin_requests);
                        bin_ms = bin_requests = 0.0;
                    }
                }
            }
            checkPolicy(outcome, policy, result,
                        config.freon.components.at("cpu").redline);
            ++outcome.attempted;
            if (outcome.checkFailures != failures_before)
                ++outcome.failed;
            uint64_t policy_digest = digestOf(result);
            digest = fnv1a(&policy_digest, sizeof policy_digest, digest);
            if (trio == 0) {
                outcome.note(format(
                    "%-11s submitted %llu dropped %llu off %llu on %llu "
                    "weight changes %llu active %.0f..%.0f peak m1 %.2f C",
                    policy.name,
                    static_cast<unsigned long long>(result.submitted),
                    static_cast<unsigned long long>(result.dropped),
                    static_cast<unsigned long long>(result.serversTurnedOff),
                    static_cast<unsigned long long>(result.serversTurnedOn),
                    static_cast<unsigned long long>(
                        result.weightAdjustments),
                    result.activeServers.minValue(),
                    result.activeServers.maxValue(),
                    result.peakCpuTemperature.at("m1")));
            }
        }
        if (trio == 0) {
            first_digest = digest;
            outcome.note("simulated-statistics digest " + hex(digest));
        }
        if (digest != first_digest)
            ++outcome.failed;
        outcome.check(digest == first_digest,
                      format("trio %d repeats trio 0's statistics", trio));
        setup_sums.push_back(setup_sum);
        emu.push_back(simulated / host);
        cpu_per_request.push_back(cpu * 1e6 / requests);
        trio_requests = requests;
        trio_drops = drops;
        trio_actuations = actuations;
        ++trio;
    }
    outcome.note(format("%d trios of 3 x 2000 simulated s; %.1f simulated s "
                        "per host s (median trio)",
                        trio, median(emu)));

    Values &e2e = outcome.endToEnd;
    e2e["setup_s"] = median(setup_sums);
    e2e["peak_rss_mb"] = peakRssMb();
    e2e["cpu_us_per_op"] = median(cpu_per_request);

    if (!traced)
        return outcome;

    Values &layer = outcome.perLayer;
    layer["emu_s_per_s"] = median(emu);
    layer["freon.host_ms_per_sim_s.p50"] =
        quantile(per_second_us, 0.5) * 1e-3;
    layer["freon.host_ms_per_sim_s.p99"] =
        quantile(per_second_us, 0.99) * 1e-3;
    layer["lb.requests"] = trio_requests;
    layer["lb.drop_frac"] = trio_requests > 0 ? trio_drops / trio_requests : 0;
    layer["freon.actuations"] = trio_actuations;
    layer["freon.rate_corr"] = correlation(bin_host_ms, bin_lb_requests);
    double plane = inProcessPlaneActivity();

    bool prediction = layer["freon.rate_corr"] >= 0.5 && plane == 0.0;
    outcome.note(format("prediction 3 %s: host time vs LB requests per "
                        "simulated second, r = %.2f over %zu bins of %zu "
                        "simulated s (want >= 0.5); request-plane/shm/WAL "
                        "instruments active: %.0f (want 0)",
                        prediction ? "PASS" : "MISS", layer["freon.rate_corr"],
                        bin_host_ms.size(), kCorrelationBin, plane));
    outcome.selfSeconds = selfTimes({&tracer});
    writeSpans(args.runDir + "/spans.csv", {&tracer});
    return outcome;
}

} // namespace perfbench
