/**
 * @file
 * perfbench: one benchmark process runs one workload and prints a
 * report followed, as the last line of stdout, by the result object
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * With --trace 0 the metrics are the end-to-end ones. With --trace 1
 * the workload runs twice, untraced and then traced; the report puts
 * both runs' end-to-end numbers side by side (their difference is the
 * tracing overhead) and the metrics are the per-layer ones. The exit
 * code is 1 when an output check failed, 2 on a usage error.
 *
 *   perfbench --workload trace_churn --seed 7 --seconds 10 --trace 0 \
 *             --solverd <mercury_solverd> --run-dir <working dir>
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "trace_churn|live_fleet|freon_emergency --seed N "
                 "--seconds S --trace 0|1 --solverd PATH --run-dir DIR\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                usage("--seed wants a whole number");
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(args.seconds > 0.0) ||
                !std::isfinite(args.seconds))
                usage("--seconds wants a positive number");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace wants 0 or 1");
            args.trace = value == "1";
        } else if (key == "--solverd") {
            args.solverd = value;
        } else if (key == "--run-dir") {
            args.runDir = value;
        } else {
            usage(("unknown flag " + key).c_str());
        }
    }
    if (args.runDir.empty())
        usage("--run-dir is required");
    return args;
}

Outcome
runOnce(const Args &args, bool traced)
{
    if (args.workload == "trace_churn")
        return runTraceChurn(args, traced);
    if (args.workload == "live_fleet")
        return runLiveFleet(args, traced);
    return runFreonEmergency(args, traced);
}

void
printNotes(const char *label, const Outcome &outcome)
{
    for (const std::string &line : outcome.notes)
        std::printf("[%s] %s\n", label, line.c_str());
}

void
printResult(const Outcome &a, const Outcome *b, const Values &metrics,
            const std::vector<MetricSpec> &catalog)
{
    bool correct = a.correct && (!b || b->correct);
    unsigned long long attempted = a.attempted + (b ? b->attempted : 0);
    unsigned long long failed = a.failed + (b ? b->failed : 0);
    std::string json = format("{\"correct\": %s, \"attempted\": %llu, "
                              "\"failed\": %llu, \"metrics\": {",
                              correct ? "true" : "false", attempted, failed);
    bool first = true;
    for (const MetricSpec &spec : catalog) {
        auto it = metrics.find(spec.name);
        double value = it == metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(value))
            value = 0.0;
        json += format("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                       first ? "" : ", ", spec.name, value, spec.unit);
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    if (args.workload != "trace_churn" && args.workload != "live_fleet" &&
        args.workload != "freon_emergency")
        usage("unknown workload");
    if (args.workload == "live_fleet" && args.solverd.empty())
        usage("live_fleet needs --solverd");

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);

    Outcome plain = runOnce(args, false);
    printNotes("untraced", plain);
    if (!args.trace) {
        std::printf("%-24s %14s %s\n", "end-to-end metric", "value", "unit");
        for (const MetricSpec &spec : endToEndCatalog())
            std::printf("%-24s %14.6g %s\n", spec.name,
                        plain.endToEnd[spec.name], spec.unit);
        std::fflush(stdout);
        printResult(plain, nullptr, plain.endToEnd, endToEndCatalog());
        return plain.correct ? 0 : 1;
    }

    Outcome traced = runOnce(args, true);
    printNotes("traced", traced);
    std::printf("\n%-24s %14s %14s %9s %s\n", "end-to-end metric",
                "untraced", "traced", "overhead", "unit");
    for (const MetricSpec &spec : endToEndCatalog()) {
        double u = plain.endToEnd[spec.name], t = traced.endToEnd[spec.name];
        std::printf("%-24s %14.6g %14.6g %8.1f%% %s\n", spec.name, u, t,
                    u != 0.0 ? 100.0 * (t - u) / u : 0.0, spec.unit);
    }
    std::printf("\n%-30s %14s %-6s %s\n", "per-layer metric", "value", "unit",
                "should move | on");
    for (const MetricSpec &spec : perLayerCatalog()) {
        std::printf("%-30s %14.6g %-6s %s\n", spec.name,
                    traced.perLayer[spec.name], spec.unit, spec.movesOn);
    }
    std::printf("\n%-30s %14s\n", "span self time", "seconds");
    for (const auto &[name, seconds] : traced.selfSeconds)
        std::printf("%-30s %14.6f\n", name.c_str(), seconds);
    std::fflush(stdout);
    printResult(plain, &traced, traced.perLayer, perLayerCatalog());
    return plain.correct && traced.correct ? 0 : 1;
}
