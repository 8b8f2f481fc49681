#include "fiddle/command.hh"

#include "core/solver.hh"
#include "util/strings.hh"

namespace mercury {
namespace fiddle {

namespace {

FiddleResult
fail(const std::string &message)
{
    return {false, message};
}

FiddleResult
success(const std::string &message = "ok")
{
    return {true, message};
}

/** Split an "a:b" edge target. */
std::optional<std::pair<std::string, std::string>>
splitEdgeTarget(const std::string &target)
{
    size_t colon = target.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= target.size()) {
        return std::nullopt;
    }
    return std::make_pair(target.substr(0, colon), target.substr(colon + 1));
}

/**
 * Apply @p set(value) to a machine constant, then undo it with
 * @p set(previous) when one solver iteration of @p graph would need
 * more than ThermalGraph::kMaxSubsteps substeps: the model must never
 * step unstably, and the refusal names the cap.
 */
template <typename Set>
FiddleResult
setWithinSubstepCap(const core::Solver &solver,
                    const core::ThermalGraph &graph, Set set, double value,
                    double previous)
{
    set(value);
    std::string refusal = graph.substepCapError(solver.iterationSeconds());
    if (refusal.empty())
        return success();
    set(previous);
    return fail(refusal);
}

} // namespace

std::optional<FiddleCommand>
parseCommand(const std::string &line, std::string *error)
{
    std::vector<std::string> tokens = splitWhitespace(line);
    if (!tokens.empty() && tokens[0] == "fiddle")
        tokens.erase(tokens.begin());
    if (tokens.size() < 2) {
        setError(error, "usage: [fiddle] <machine> <property> ...");
        return std::nullopt;
    }

    FiddleCommand cmd;
    cmd.line = trim(line);
    cmd.machine = tokens[0];
    cmd.property = tokens[1];

    auto parse_values = [&](size_t first, size_t expected,
                            bool allow_auto) -> bool {
        if (allow_auto && tokens.size() == first + 1 &&
            tokens[first] == "auto") {
            cmd.autoValue = true;
            return true;
        }
        if (tokens.size() != first + expected) {
            setError(error, "command '" + cmd.property + "' expects " +
                                format("%zu", expected) + " value(s)");
            return false;
        }
        for (size_t i = first; i < tokens.size(); ++i) {
            auto value = parseDouble(tokens[i]);
            if (!value) {
                setError(error, "malformed number '" + tokens[i] + "'");
                return false;
            }
            cmd.values.push_back(*value);
        }
        return true;
    };

    const std::string &prop = cmd.property;
    if (prop == "temperature" || prop == "pin" || prop == "utilization") {
        if (tokens.size() < 3) {
            setError(error, "command '" + prop + "' needs a target");
            return std::nullopt;
        }
        cmd.target = tokens[2];
        if (!parse_values(3, 1, prop == "temperature"))
            return std::nullopt;
    } else if (prop == "unpin") {
        if (tokens.size() != 3) {
            setError(error, "usage: <machine> unpin <node>");
            return std::nullopt;
        }
        cmd.target = tokens[2];
    } else if (prop == "fan") {
        if (!parse_values(2, 1, false))
            return std::nullopt;
    } else if (prop == "k" || prop == "fraction") {
        if (tokens.size() < 3) {
            setError(error, "command '" + prop + "' needs an edge target");
            return std::nullopt;
        }
        cmd.target = tokens[2];
        if (!splitEdgeTarget(cmd.target)) {
            setError(error,
                     "edge target must look like 'a:b', got '" +
                         cmd.target + "'");
            return std::nullopt;
        }
        if (!parse_values(3, 1, false))
            return std::nullopt;
    } else if (prop == "power") {
        if (tokens.size() < 3) {
            setError(error, "usage: <machine> power <component> <min> "
                            "<max>");
            return std::nullopt;
        }
        cmd.target = tokens[2];
        if (!parse_values(3, 2, false))
            return std::nullopt;
    } else if (prop == "ac") {
        if (cmd.machine != "room") {
            setError(error, "'ac' commands must address 'room'");
            return std::nullopt;
        }
        if (tokens.size() < 3) {
            setError(error, "usage: room ac <source> <value>");
            return std::nullopt;
        }
        cmd.target = tokens[2];
        if (!parse_values(3, 1, false))
            return std::nullopt;
    } else {
        setError(error, "unknown property '" + prop + "'");
        return std::nullopt;
    }
    return cmd;
}

FiddleResult
apply(core::Solver &solver, const FiddleCommand &cmd)
{
    // Room-scoped commands.
    if (cmd.machine == "room") {
        if (!solver.hasRoom())
            return fail("no room model installed");
        core::RoomModel &room = solver.room();
        if (cmd.property == "ac") {
            if (!room.isSource(cmd.target))
                return fail("no air source '" + cmd.target + "'");
            room.setSourceTemperature(cmd.target, cmd.values[0]);
            return success();
        }
        if (cmd.property == "fraction") {
            auto edge = splitEdgeTarget(cmd.target);
            if (!room.hasEdge(edge->first, edge->second))
                return fail("no room edge " + cmd.target);
            if (cmd.values[0] < 0.0 || cmd.values[0] > 1.0)
                return fail("fraction must be in [0, 1]");
            room.setEdgeFraction(edge->first, edge->second, cmd.values[0]);
            return success();
        }
        return fail("property '" + cmd.property +
                    "' is not valid for 'room'");
    }

    if (!solver.hasMachine(cmd.machine))
        return fail("unknown machine '" + cmd.machine + "'");
    core::ThermalGraph &graph = solver.machine(cmd.machine);

    if (cmd.property == "temperature") {
        if (cmd.target == "inlet") {
            if (cmd.autoValue) {
                solver.clearInletOverride(cmd.machine);
                return success("inlet returned to ambient control");
            }
            solver.setInletTemperature(cmd.machine, cmd.values[0]);
            return success();
        }
        auto node = solver.tryResolveNode(cmd.machine, cmd.target);
        if (!node)
            return fail("unknown node '" + cmd.target + "'");
        if (cmd.autoValue)
            return fail("'auto' is only valid for the inlet");
        graph.setTemperature(*node, cmd.values[0]);
        return success();
    }
    if (cmd.property == "pin") {
        auto node = solver.tryResolveNode(cmd.machine, cmd.target);
        if (!node)
            return fail("unknown node '" + cmd.target + "'");
        graph.pinTemperature(*node, cmd.values[0]);
        return success();
    }
    if (cmd.property == "unpin") {
        auto node = solver.tryResolveNode(cmd.machine, cmd.target);
        if (!node)
            return fail("unknown node '" + cmd.target + "'");
        graph.unpinTemperature(*node);
        return success();
    }
    if (cmd.property == "utilization") {
        auto node = solver.tryResolveNode(cmd.machine, cmd.target);
        if (!node || !graph.isPowered(*node))
            return fail("no powered component '" + cmd.target + "'");
        graph.setUtilization(*node, cmd.values[0]);
        return success();
    }
    if (cmd.property == "fan") {
        if (cmd.values[0] < 0.0)
            return fail("fan flow must be non-negative");
        return setWithinSubstepCap(
            solver, graph, [&](double cfm) { graph.setFanCfm(cfm); },
            cmd.values[0], graph.fanCfm());
    }
    if (cmd.property == "k") {
        auto edge = splitEdgeTarget(cmd.target);
        if (!graph.hasHeatEdge(edge->first, edge->second))
            return fail("no heat edge " + cmd.target);
        if (cmd.values[0] <= 0.0)
            return fail("k must be positive");
        return setWithinSubstepCap(
            solver, graph,
            [&](double k) { graph.setHeatK(edge->first, edge->second, k); },
            cmd.values[0], graph.heatK(edge->first, edge->second));
    }
    if (cmd.property == "fraction") {
        auto edge = splitEdgeTarget(cmd.target);
        if (!graph.hasAirEdge(edge->first, edge->second))
            return fail("no air edge " + cmd.target);
        if (cmd.values[0] < 0.0 || cmd.values[0] > 1.0)
            return fail("fraction must be in [0, 1]");
        return setWithinSubstepCap(
            solver, graph,
            [&](double fraction) {
                graph.setAirFraction(edge->first, edge->second, fraction);
            },
            cmd.values[0], graph.airFraction(edge->first, edge->second));
    }
    if (cmd.property == "power") {
        auto node = solver.tryResolveNode(cmd.machine, cmd.target);
        if (!node || !graph.isPowered(*node))
            return fail("no powered component '" + cmd.target + "'");
        if (cmd.values[0] < 0.0 || cmd.values[1] < cmd.values[0])
            return fail("power range must satisfy 0 <= min <= max");
        graph.setPowerRange(*node, cmd.values[0], cmd.values[1]);
        return success();
    }
    return fail("unknown property '" + cmd.property + "'");
}

FiddleResult
applyLine(core::Solver &solver, const std::string &line)
{
    std::string error;
    auto cmd = parseCommand(line, &error);
    if (!cmd)
        return fail(error);
    return apply(solver, *cmd);
}

} // namespace fiddle
} // namespace mercury
