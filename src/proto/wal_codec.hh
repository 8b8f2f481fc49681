/**
 * @file
 * Compact WAL payload encoding for queued mutations.
 *
 * The WAL records every message the solver thread drains from the
 * request plane's mutation queue. Re-logging the 128-byte wire packet
 * would triple the log's footprint (a utilization update's useful
 * content is ~35 bytes), so mutations get their own length-prefixed
 * little-endian encoding here (through util/bytes) — the replica
 * library stays payload-agnostic and ships these bytes verbatim.
 *
 * Only messages that mutate solver state are loggable: utilization
 * updates always, fiddle requests unless the command line is one of
 * the read-only service commands (stats/guard/replica) or a
 * checkpoint save (which mutates the disk, not the solver — the WAL
 * marks saves with its own CheckpointMarker record). Read RPCs never
 * reach the queue's mutation path with effects, and replay answers
 * nothing anyway, so they encode to "not loggable".
 */

#ifndef MERCURY_PROTO_WAL_CODEC_HH
#define MERCURY_PROTO_WAL_CODEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "proto/messages.hh"

namespace mercury {
namespace proto {

/** True when @p line (a FiddleRequest command line) mutates solver
 *  state and therefore belongs in the WAL. */
bool fiddleLineMutates(const std::string &line);

/**
 * Encode @p message as a WAL payload; empty vector when the message
 * is not a loggable mutation.
 */
std::vector<uint8_t> encodeWalMutation(const Message &message);

/** Decode a WAL payload back into a message; nullopt when malformed. */
std::optional<Message> decodeWalMutation(const uint8_t *data, size_t size);

} // namespace proto
} // namespace mercury

#endif // MERCURY_PROTO_WAL_CODEC_HH
