/**
 * @file
 * fiddle: the thermal-emergency tool (paper Section 2.3, Figure 4).
 * Sends one command to the solver, or replays a whole script with real
 * `sleep` pacing.
 *
 *   fiddle machine1 temperature inlet 30
 *   fiddle --script emergencies.fiddle
 *
 * The solver address comes from --solver (host:port) or the
 * MERCURY_SOLVER environment variable; default 127.0.0.1:8367.
 */

#include <cstdlib>
#include <chrono>
#include <iostream>
#include <thread>

#include "fiddle/script.hh"
#include "sensor/client.hh"
#include "sensor/sensor_api.hh"
#include "util/flags.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace {

using namespace mercury;

/** Parse "host:port" with a default port of 8367. */
std::pair<std::string, uint16_t>
parseSolverAddress(const std::string &spec)
{
    size_t colon = spec.rfind(':');
    if (colon == std::string::npos)
        return {spec, 8367};
    auto port = parseInt(spec.substr(colon + 1));
    if (!port || *port <= 0 || *port > 65535)
        fatal("bad solver address '", spec, "'");
    return {spec.substr(0, colon), static_cast<uint16_t>(*port)};
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("fiddle",
                  "inject thermal emergencies into a running solver");
    flags.defineString("solver", "",
                       "solver address host[:port] (default: "
                       "$MERCURY_SOLVER or 127.0.0.1:8367)");
    flags.defineString("script", "",
                       "replay a fiddle script (sleep lines pace in "
                       "real time)");
    flags.defineString("read", "",
                       "read one sensor (machine:component) through the "
                       "sensor library and print which path answered");
    if (!flags.parse(argc, argv))
        return 0;

    std::string address = flags.getString("solver");
    if (address.empty()) {
        const char *env = std::getenv("MERCURY_SOLVER");
        address = env ? env : "127.0.0.1:8367";
    }
    auto [host, port] = parseSolverAddress(address);

    if (!flags.getString("read").empty()) {
        std::string spec = flags.getString("read");
        size_t colon = spec.find(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= spec.size())
            fatal("--read wants machine:component");
        std::string machine = spec.substr(0, colon);
        std::string component = spec.substr(colon + 1);
        int sd = opensensor_for(host.c_str(), port, machine.c_str(),
                                component.c_str());
        if (sd < 0)
            fatal("opensensor_for failed for ", spec);
        float value = readsensor(sd);
        int path = sensorpath(sd);
        closesensor(sd);
        if (value != value) {
            std::cout << "error: read failed\n";
            return 1;
        }
        std::cout << machine << ':' << component << " = " << value
                  << " C (via "
                  << (path == MERCURY_SENSOR_PATH_SHM ? "shm" : "udp")
                  << ")\n";
        return 0;
    }

    sensor::SensorClient client(
        std::make_unique<sensor::UdpTransport>(host, port), "fiddle");

    if (!flags.getString("script").empty()) {
        fiddle::FiddleScript script =
            fiddle::FiddleScript::loadFile(flags.getString("script"));
        double clock = 0.0;
        for (const fiddle::TimedCommand &timed : script.commands()) {
            if (timed.time > clock) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(timed.time - clock));
                clock = timed.time;
            }
            auto [ok, message] = client.fiddle(timed.command.line);
            if (!ok)
                warn("'", timed.command.line, "': ", message);
        }
        return 0;
    }

    // `fiddle metrics`: pull the daemon's full metrics snapshot over
    // the paginated RPC (a plain FiddleReply truncates at one packet).
    if (flags.positional().size() == 1 &&
        flags.positional()[0] == "metrics") {
        auto text = client.metricsText();
        if (!text)
            fatal("no metrics reply from the solver");
        std::cout << *text;
        return 0;
    }

    // `fiddle guard`: page out the sensor trust layer's full
    // per-stream health report (one FiddleReply carries ~96 bytes, so
    // the daemon serves it in "<nextOffset>|<chunk>" fragments).
    // `fiddle guard <stream>` falls through to the one-shot path and
    // prints that stream's single health line.
    if (flags.positional().size() == 1 &&
        flags.positional()[0] == "guard") {
        std::string text;
        size_t offset = 0;
        // 512 fragments bound the report at ~48 KB against a server
        // that never sends nextOffset 0.
        for (int page = 0; page < 512; ++page) {
            auto [ok, message] =
                client.fiddle(format("guard page %zu", offset));
            if (!ok)
                fatal("guard report failed: ", message);
            size_t bar = message.find('|');
            std::optional<long long> next;
            if (bar != std::string::npos)
                next = parseInt(message.substr(0, bar));
            if (!next || *next < 0)
                fatal("malformed guard page reply: ", message);
            text += message.substr(bar + 1);
            if (*next == 0)
                break;
            if (static_cast<size_t>(*next) <= offset)
                fatal("non-advancing guard page reply");
            offset = static_cast<size_t>(*next);
        }
        std::cout << text;
        return 0;
    }

    // One-shot: the positional arguments are the command itself.
    if (flags.positional().empty())
        fatal("usage: fiddle [--solver host:port] <machine> <property> "
              "...  (or --script <file>)");
    std::string line;
    for (const std::string &token : flags.positional()) {
        if (!line.empty())
            line += ' ';
        line += token;
    }
    auto [ok, message] = client.fiddle(line);
    std::cout << (ok ? "ok" : "error") << ": " << message << '\n';
    return ok ? 0 : 1;
}
