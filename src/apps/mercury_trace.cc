/**
 * @file
 * mercury_trace: the offline mode. Drives a solver from a utilization
 * trace file and writes the full usage+temperature time series as CSV
 * — "the end result is another file containing all the usage and
 * temperature information for each component in the system over time"
 * (Section 2.3). --replicate clones one traced machine across many,
 * the paper's trick for emulating large clusters.
 *
 *   mercury_trace --config configs/table1_server.dot \
 *                 --trace load.csv --duration 5000 > temps.csv
 *
 * --replay-wal reproduces a live daemon run instead: it replays a
 * mutation WAL (optionally on top of the checkpoint the WAL generation
 * started from) through the same solver and dumps the resulting state
 * — bitwise identical to what the daemon held, because the solver is
 * deterministic and the WAL captures every input in drain order.
 *
 *   mercury_trace --config configs/table1_server.dot \
 *                 --replay-wal solver.wal \
 *                 --replay-checkpoint solver.ck > state.txt
 */

#include <iostream>

#include "core/solver.hh"
#include "core/trace.hh"
#include "graphdot/parser.hh"
#include "graphdot/writer.hh"
#include "proto/solver_service.hh"
#include "proto/wal_codec.hh"
#include "replica/wal.hh"
#include "state/checkpoint.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace {

/** Replay a WAL into @p solver and dump the final state to stdout. */
int
replayWalFile(mercury::core::Solver &solver, const std::string &wal_path,
              const std::string &checkpoint_path,
              long long replay_to_iteration)
{
    using namespace mercury;

    if (!checkpoint_path.empty()) {
        state::Checkpoint checkpoint;
        std::string error;
        if (!state::loadCheckpointFile(checkpoint_path, &checkpoint,
                                       &error) ||
            !state::restoreSolver(solver, checkpoint, &error)) {
            fatal("cannot restore '", checkpoint_path, "': ", error);
        }
        inform("mercury_trace: checkpoint restored at iteration ",
               solver.iterations());
    }

    replica::WalReadResult wal;
    std::string error;
    if (!replica::readWalFile(wal_path, &wal, &error))
        fatal("cannot read WAL '", wal_path, "': ", error);
    if (!wal.tailOk)
        warn("mercury_trace: WAL tail damaged (", wal.tailError,
             "); replaying the ", wal.records.size(),
             " record(s) before the tear");

    // handleReplicated applies a decoded mutation exactly the way the
    // live daemon's queue drain did, with no reply machinery.
    proto::SolverService service(solver);
    replica::ReplayStats stats;
    bool ok = replica::replayWal(
        solver, wal,
        [&](const replica::WalRecord &record) {
            auto message = proto::decodeWalMutation(
                record.payload.data(), record.payload.size());
            if (message)
                service.handleReplicated(*message);
            else
                warn("mercury_trace: undecodable mutation at sequence ",
                     record.sequence, ", skipping");
        },
        replay_to_iteration < 0 ? 0
                                : uint64_t(replay_to_iteration),
        &stats, &error);
    if (!ok)
        fatal("replay failed: ", error);
    inform("mercury_trace: replayed ", stats.applied, " mutation(s), ",
           stats.skipped, " skipped, ", stats.markers,
           " marker(s); final iteration ", stats.finalIteration);

    solver.saveState(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mercury;

    FlagSet flags("mercury_trace", "offline trace-driven emulation");
    flags.defineString("config", "configs/table1_server.dot",
                       "modified-dot config file");
    flags.defineString("trace", "", "utilization trace CSV");
    flags.defineDouble("duration", -1.0,
                       "emulated seconds (default: trace duration)");
    flags.defineString("record", "all",
                       "comma-separated machine.node list, or 'all'");
    flags.defineString("replicate", "",
                       "clone a traced machine: src=dst1+dst2+...");
    flags.defineDouble("iteration-seconds", 1.0,
                       "emulated seconds per solver iteration");
    flags.defineInt("threads", 1,
                    "machine-stepping executors (1 = serial, 0 = all "
                    "hardware threads)");
    flags.defineBool("graphviz", false,
                     "dump the first machine as Graphviz dot and exit");
    flags.defineString("checkpoint-path", "",
                       "save the solver state here when the run ends");
    flags.defineBool("resume", false,
                     "restore --checkpoint-path first and continue the "
                     "trace from where that run stopped");
    flags.defineString("replay-wal", "",
                       "replay this mutation WAL and dump the final "
                       "solver state (no trace run)");
    flags.defineString("replay-checkpoint", "",
                       "restore this checkpoint before replaying the "
                       "WAL (the generation's base state)");
    flags.defineInt("replay-to", -1,
                    "keep stepping to this iteration after the WAL's "
                    "last record (negative: stop at the last record)");
    if (!flags.parse(argc, argv))
        return 0;

    core::ConfigSpec config =
        graphdot::loadConfigFile(flags.getString("config"));
    if (config.machines.empty())
        fatal("config has no machines");

    if (flags.getBool("graphviz")) {
        graphdot::writeGraphviz(std::cout, config.machines.front());
        return 0;
    }

    if (!flags.getString("replay-wal").empty()) {
        core::SolverConfig replay_config;
        replay_config.iterationSeconds =
            flags.getDouble("iteration-seconds");
        long long replay_threads = flags.getInt("threads");
        if (replay_threads < 0)
            fatal("--threads must be >= 0");
        replay_config.threads = static_cast<unsigned>(replay_threads);
        core::Solver replay_solver(replay_config);
        for (const core::MachineSpec &machine : config.machines)
            replay_solver.addMachine(machine);
        if (config.room)
            replay_solver.setRoom(*config.room);
        return replayWalFile(replay_solver,
                             flags.getString("replay-wal"),
                             flags.getString("replay-checkpoint"),
                             flags.getInt("replay-to"));
    }

    if (flags.getString("trace").empty())
        fatal("--trace is required (CSV: time_s,machine,component,util)");
    core::UtilizationTrace trace =
        core::UtilizationTrace::loadFile(flags.getString("trace"));

    std::string replicate = flags.getString("replicate");
    if (!replicate.empty()) {
        auto parts = split(replicate, '=');
        if (parts.size() != 2)
            fatal("--replicate wants src=dst1+dst2+...");
        std::map<std::string, std::vector<std::string>> mapping;
        mapping[parts[0]] = split(parts[1], '+');
        trace = trace.replicated(mapping);
    }

    core::SolverConfig solver_config;
    solver_config.iterationSeconds = flags.getDouble("iteration-seconds");
    long long threads = flags.getInt("threads");
    if (threads < 0)
        fatal("--threads must be >= 0");
    solver_config.threads = static_cast<unsigned>(threads);
    core::Solver solver(solver_config);
    for (const core::MachineSpec &machine : config.machines)
        solver.addMachine(machine);
    if (config.room)
        solver.setRoom(*config.room);

    std::string checkpoint_path = flags.getString("checkpoint-path");
    if (flags.getBool("resume")) {
        if (checkpoint_path.empty())
            fatal("--resume needs --checkpoint-path");
        state::Checkpoint checkpoint;
        std::string error;
        if (!state::loadCheckpointFile(checkpoint_path, &checkpoint,
                                       &error) ||
            !state::restoreSolver(solver, checkpoint, &error)) {
            fatal("cannot resume from '", checkpoint_path, "': ", error);
        }
        inform("mercury_trace: resumed at ", solver.emulatedSeconds(),
               " emulated seconds");
    }

    core::TraceRunner runner(solver, trace);
    std::string record = flags.getString("record");
    if (record == "all") {
        runner.recordAll();
    } else {
        for (const std::string &item : split(record, ',')) {
            auto dot = item.find('.');
            if (dot == std::string::npos)
                fatal("--record items look like machine.node, got '",
                      item, "'");
            runner.record(item.substr(0, dot), item.substr(dot + 1));
        }
    }

    runner.run(flags.getDouble("duration"));
    runner.writeCsv(std::cout);

    if (!checkpoint_path.empty()) {
        std::string error;
        if (!state::saveCheckpointFile(checkpoint_path,
                                       state::captureSolver(solver),
                                       &error)) {
            fatal("cannot save checkpoint '", checkpoint_path, "': ",
                  error);
        }
    }
    return 0;
}
