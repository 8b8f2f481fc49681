/**
 * @file
 * Parser for the modified-dot configuration language, producing the
 * core::ConfigSpec consumed by the solver.
 *
 * Grammar sketch:
 *
 *   config      := (machineDecl | roomDecl)*
 *   machineDecl := 'machine' name '{' machineItem* '}'
 *   machineItem := ident '=' value ';'                  // settings
 *                | 'node' name attrs? ';'
 *                | name '--' name attrs? ';'            // heat edge
 *                | name '->' name attrs? ';'            // air edge
 *   roomDecl    := ('room' | 'cluster') name '{' roomItem* '}'
 *   roomItem    := 'source' name attrs? ';'
 *                | 'sink' name ';'
 *                | 'mix' name ';'
 *                | 'machine' name 'uses' name ';'
 *                | name '->' name attrs? ';'
 *   attrs       := '[' ident '=' value (',' ident '=' value)* ']'
 *   name        := identifier | string
 *   number      := [+-]? digit+ ('.' digit*)? ([eE] [+-]? digit+)?
 *
 * A number that overflows, underflows to zero or lands in the
 * subnormal range is an error ("malformed number").
 *
 * Machine settings: inlet_temperature, fan_cfm, initial_temperature.
 * Node attributes: kind (component|air|inlet|exhaust), mass, c (alias
 * specific_heat), pmin, pmax, temperature. Heat-edge attribute: k.
 * Air-edge attribute: fraction.
 */

#ifndef MERCURY_GRAPHDOT_PARSER_HH
#define MERCURY_GRAPHDOT_PARSER_HH

#include <string>
#include <vector>

#include "core/spec.hh"
#include "graphdot/token.hh"

namespace mercury {
namespace graphdot {

/** Result of parsing: the config plus all accumulated diagnostics. */
struct ParseResult
{
    core::ConfigSpec config;
    std::vector<std::string> errors;

    bool ok() const { return errors.empty(); }
};

/** Parse configuration text. Never throws; errors are collected. */
ParseResult parseConfig(const std::string &source);

/**
 * Parse a configuration file; fatal (user error) on I/O problems,
 * syntax errors or semantic validation failures.
 */
core::ConfigSpec loadConfigFile(const std::string &path);

} // namespace graphdot
} // namespace mercury

#endif // MERCURY_GRAPHDOT_PARSER_HH
