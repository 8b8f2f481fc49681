/**
 * @file
 * CRC-32C (Castagnoli), the one checksum on disk and on the wire: WAL
 * records, replication frames and checkpoint files all carry it.
 */

#ifndef MERCURY_UTIL_CRC32C_HH
#define MERCURY_UTIL_CRC32C_HH

#include <cstddef>
#include <cstdint>

namespace mercury {

/**
 * CRC-32C of @p size bytes. Takes the SSE4.2 instruction path when
 * the CPU has it: the WAL append sits inside the solver's iteration
 * budget and a checkpoint save hashes the whole fleet state, so the
 * checksum must be cycles, not a table walk per byte.
 */
uint32_t crc32c(const uint8_t *data, size_t size);

/** The portable byte-at-a-time path crc32c() falls back to; bitwise
 *  equal to the hardware path on every input. */
uint32_t crc32cSoftware(const uint8_t *data, size_t size);

} // namespace mercury

#endif // MERCURY_UTIL_CRC32C_HH
