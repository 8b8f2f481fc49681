/**
 * @file
 * trace_churn: offline mode the way mercury_trace runs it.
 *
 * Inputs (from the seed): the generated 1024-machine room and a trace
 * in which every machine's cpu and disk utilization (and the second
 * disk's, on two-disk machines) changes every 20-40 emulated seconds.
 *
 * One episode is the mercury_trace path: graphdot::loadConfigFile ->
 * UtilizationTrace::loadFile -> Solver (default SolverConfig) ->
 * TraceRunner::run -> writeCsv of a fixed recorded subset. Episodes
 * repeat until --seconds have passed and every metric is a median over
 * them. Trace mode has no quiescence, so every machine steps every
 * iteration.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "core/solver.hh"
#include "core/trace.hh"
#include "graphdot/parser.hh"
#include "replica/wal.hh"
#include "state/checkpoint.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

/** Emulated seconds one episode replays. */
constexpr int kHorizon = 1200;
/** Iterations of the serial (threads=1) replay in the traced run. */
constexpr int kSerialIterations = 200;
/** Every kRecordStride-th machine's cpu and disk are recorded. */
constexpr int kRecordStride = 64;
constexpr int kMinEpisodes = 3;

std::string
traceText(const Room &room, uint64_t seed)
{
    struct Row
    {
        double time;
        size_t machine;
        const char *component;
        double value;
    };
    std::vector<Row> rows;
    for (size_t i = 0; i < room.names.size(); ++i) {
        mercury::Rng rng(seed * 0x9e3779b97f4a7c15ULL + i + 1);
        double t = 0.0;
        while (t < kHorizon) {
            rows.push_back({t, i, "cpu", rng.uniform(0.05, 0.95)});
            rows.push_back({t, i, "disk", rng.uniform(0.05, 0.6)});
            if (room.twoDisk[i])
                rows.push_back(
                    {t, i, "disk2_platters", rng.uniform(0.05, 0.6)});
            t = std::round((t + rng.uniform(20.0, 40.0)) * 1000.0) / 1000.0;
        }
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row &a, const Row &b) {
                         return a.time < b.time;
                     });
    std::ostringstream out;
    out << "time_s,machine,component,utilization\n";
    for (const Row &row : rows) {
        out << format("%.3f,%s,%s,%.6f\n", row.time,
                      room.names[row.machine].c_str(), row.component,
                      row.value);
    }
    return out.str();
}

/** Every node temperature finite and inside a physical band. */
bool
temperaturesSane(const mercury::core::Solver &solver, double *lo, double *hi)
{
    mercury::state::Checkpoint snapshot =
        mercury::state::captureSolver(solver);
    *lo = 1e9;
    *hi = -1e9;
    for (const auto &machine : snapshot.machines) {
        for (double t : machine.temperatures) {
            if (!std::isfinite(t))
                return false;
            *lo = std::min(*lo, t);
            *hi = std::max(*hi, t);
        }
    }
    return *lo >= 15.0 && *hi <= 150.0;
}

} // namespace

Outcome
runTraceChurn(const Args &args, bool traced)
{
    using namespace mercury;
    Outcome outcome;
    Tracer tracer(traced);

    Room room = makeRoom(args.seed);
    const std::string config_path = args.runDir + "/room.dot";
    const std::string trace_path = args.runDir + "/trace.csv";
    const std::string csv_path = args.runDir + "/temperatures.csv";
    outcome.check(writeFile(config_path, roomConfigText(room)) &&
                      writeFile(trace_path, traceText(room, args.seed)),
                  "write generated inputs");
    resetPeakRss();

    std::vector<double> setup, parse, load, build, csv_write, emu,
        cpu_per_op, share;
    // Hook-to-hook intervals, kept only by the traced run: the untraced
    // run's own memory stays flat however many episodes run, so
    // peak_rss_mb measures the program.
    std::vector<double> intervals_us;
    uint64_t first_hash = 0, first_csv = 0, threaded_hash_at_serial = 0;
    std::vector<int64_t> stamps;
    stamps.reserve(kHorizon + 1);

    int64_t began = nowNs();
    int episode = 0;
    while (episode < kMinEpisodes ||
           secondsBetween(began, nowNs()) < args.seconds) {
        Tracer::Scope episode_span(tracer, "episode", uint64_t(episode));
        uint64_t failures_before = outcome.checkFailures;
        int64_t t0 = nowNs();
        core::ConfigSpec config;
        {
            Tracer::Scope span(tracer, "graphdot.loadConfigFile");
            config = graphdot::loadConfigFile(config_path);
        }
        int64_t t1 = nowNs();
        core::UtilizationTrace trace;
        {
            Tracer::Scope span(tracer, "core.UtilizationTrace::loadFile");
            trace = core::UtilizationTrace::loadFile(trace_path);
        }
        int64_t t2 = nowNs();
        core::Solver solver;
        {
            Tracer::Scope span(tracer, "core.Solver+addMachine+setRoom");
            buildSolver(solver, config);
        }
        int64_t t3 = nowNs();
        setup.push_back(secondsBetween(t0, t3));
        parse.push_back(secondsBetween(t0, t1));
        load.push_back(secondsBetween(t1, t2));
        build.push_back(secondsBetween(t2, t3));

        core::TraceRunner runner(solver, trace);
        for (size_t i = 0; i < room.names.size(); i += kRecordStride) {
            runner.record(room.names[i], "cpu");
            runner.record(room.names[i], "disk");
        }
        stamps.clear();
        bool capture_hash = traced && episode == 0;
        solver.setIterationHook([&] {
            stamps.push_back(nowNs());
            if (capture_hash && solver.iterations() == kSerialIterations)
                threaded_hash_at_serial = replica::stateHash(solver);
        });

        double cpu0 = processCpuSeconds();
        int64_t r0 = nowNs();
        int32_t run_span = tracer.begin("core.TraceRunner::run");
        runner.run(kHorizon);
        tracer.end(run_span);
        int64_t r1 = nowNs();
        {
            Tracer::Scope span(tracer, "core.TraceRunner::writeCsv");
            std::ofstream out(csv_path);
            runner.writeCsv(out);
        }
        int64_t r2 = nowNs();
        double cpu1 = processCpuSeconds();
        solver.setIterationHook(nullptr);

        double timed_s = secondsBetween(r0, r2);
        csv_write.push_back(secondsBetween(r1, r2));
        emu.push_back(double(kHorizon) / timed_s);
        cpu_per_op.push_back((cpu1 - cpu0) * 1e6 /
                             (double(room.names.size()) * kHorizon));
        double covered = 0.0;
        int64_t previous = r0;
        for (int64_t stamp : stamps) {
            if (traced)
                intervals_us.push_back(double(stamp - previous) * 1e-3);
            covered += secondsBetween(previous, stamp);
            tracer.add("core.iterate(hook-to-hook)", previous, stamp,
                       run_span);
            previous = stamp;
        }
        share.push_back(covered / timed_s);

        // Output checks.
        double lo = 0.0, hi = 0.0;
        outcome.check(solver.iterations() == uint64_t(kHorizon) &&
                          stamps.size() == size_t(kHorizon),
                      format("episode %d ran %llu iterations, wanted %d",
                             episode,
                             static_cast<unsigned long long>(
                                 solver.iterations()),
                             kHorizon));
        outcome.check(temperaturesSane(solver, &lo, &hi),
                      format("episode %d temperatures finite and in "
                             "[15, 150] C (saw %.2f..%.2f)",
                             episode, lo, hi));
        uint64_t hash = replica::stateHash(solver);
        std::ifstream csv(csv_path, std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(csv)),
                          std::istreambuf_iterator<char>());
        uint64_t csv_digest = fnv1a(bytes.data(), bytes.size());
        size_t rows = size_t(std::count(bytes.begin(), bytes.end(), '\n'));
        outcome.check(rows == size_t(kHorizon) + 1,
                      format("episode %d wrote %zu CSV rows, wanted %d",
                             episode, rows, kHorizon + 1));
        if (episode == 0) {
            first_hash = hash;
            first_csv = csv_digest;
            outcome.note(format("final stateHash %s, csv digest %s, "
                                "temperatures %.2f..%.2f C",
                                hex(hash).c_str(), hex(csv_digest).c_str(),
                                lo, hi));
        }
        outcome.check(hash == first_hash && csv_digest == first_csv,
                      format("episode %d repeats episode 0 bitwise", episode));
        ++outcome.attempted;
        if (outcome.checkFailures != failures_before)
            ++outcome.failed;
        ++episode;
    }
    outcome.note(format("%d episodes of %d emulated s over %zu machines; "
                        "%.1f emulated s per host s over the timed phase "
                        "(median episode)",
                        episode, kHorizon, room.names.size(), median(emu)));

    Values &e2e = outcome.endToEnd;
    e2e["setup_s"] = median(setup);
    e2e["peak_rss_mb"] = peakRssMb();
    e2e["cpu_us_per_op"] = median(cpu_per_op);

    if (!traced)
        return outcome;

    // Serial replay of the same inputs: its state must equal the
    // threaded run's at the same iteration, bitwise.
    {
        core::ConfigSpec config = graphdot::loadConfigFile(config_path);
        core::UtilizationTrace trace =
            core::UtilizationTrace::loadFile(trace_path);
        core::SolverConfig serial_config;
        serial_config.threads = 1;
        core::Solver serial(serial_config);
        buildSolver(serial, config);
        core::TraceRunner runner(serial, trace);
        std::vector<int64_t> serial_stamps;
        serial.setIterationHook(
            [&] { serial_stamps.push_back(nowNs()); });
        int64_t s0 = nowNs();
        {
            Tracer::Scope span(tracer, "core.TraceRunner::run(threads=1)");
            runner.run(kSerialIterations);
        }
        serial.setIterationHook(nullptr);
        std::vector<double> serial_us;
        int64_t previous = s0;
        for (int64_t stamp : serial_stamps) {
            serial_us.push_back(double(stamp - previous) * 1e-3);
            previous = stamp;
        }
        uint64_t serial_hash = replica::stateHash(serial);
        ++outcome.attempted;
        if (serial_hash != threaded_hash_at_serial)
            ++outcome.failed;
        outcome.check(serial_hash == threaded_hash_at_serial,
                      format("threads=1 replay stateHash %s equals the "
                             "threaded run's %s at iteration %d",
                             hex(serial_hash).c_str(),
                             hex(threaded_hash_at_serial).c_str(),
                             kSerialIterations));
        outcome.perLayer["core.serial_iter_us.p50"] = median(serial_us);
    }

    Values &layer = outcome.perLayer;
    layer["emu_s_per_s"] = median(emu);
    layer["graphdot.parse_s"] = median(parse);
    layer["core.trace_load_s"] = median(load);
    layer["core.build_s"] = median(build);
    layer["core.iter_us.p50"] = quantile(intervals_us, 0.50);
    layer["core.iter_us.p99"] = quantile(intervals_us, 0.99);
    layer["core.csv_write_s"] = median(csv_write);
    layer["core.iter_share"] = median(share);
    double plane = inProcessPlaneActivity();

    bool prediction = median(share) >= 0.90 && plane == 0.0;
    outcome.note(format("prediction 1 %s: hook-to-hook iterations cover "
                        "%.1f%% of the timed phase (want >= 90%%); "
                        "request-plane/shm/WAL instruments active: %.0f "
                        "(want 0)",
                        prediction ? "PASS" : "MISS", 100.0 * median(share),
                        plane));
    outcome.selfSeconds = selfTimes({&tracer});
    writeSpans(args.runDir + "/spans.csv", {&tracer});
    return outcome;
}

} // namespace perfbench
