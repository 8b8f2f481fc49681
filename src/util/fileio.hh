/**
 * @file
 * The one file layer: every durable whole-file write and every
 * whole-file read of a binary format goes through here.
 *
 * atomicWriteFile() writes the checkpoint (state/checkpoint), the
 * Prometheus metrics file (metrics::writeTextFile) and the little
 * metadata files (--port-file, supervisord's failover flip), where a
 * reader must never observe a half-written value; the WAL appends
 * through the same writeAll(). readFileBytes() loads the checkpoint
 * and the WAL (replica/wal) under a size ceiling, so a hostile or
 * runaway file is refused before it is read. readStream() reads the
 * text inputs (graphdot configs, utilization traces) whole, so their
 * parsers work on one buffer.
 */

#ifndef MERCURY_UTIL_FILEIO_HH
#define MERCURY_UTIL_FILEIO_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mercury {

/**
 * Replace @p path with @p contents atomically: write to path.tmp,
 * fsync, rename over path, fsync the containing directory. Readers see
 * either the old file or the new one, never a prefix. Returns false
 * (with a diagnostic in @p error when non-null) on any syscall
 * failure; the destination is untouched in that case.
 */
bool atomicWriteFile(const std::string &path, std::string_view contents,
                     std::string *error = nullptr);

/** write(2) all @p size bytes to @p fd, riding out short writes and
 *  EINTR; false (errno set) on failure. */
bool writeAll(int fd, const void *data, size_t size);

/**
 * Crash atomicWriteFile() at a chosen stage (tests only): the write
 * returns false as if the process died there, leaving the filesystem
 * in the corresponding intermediate state. 0 disables.
 *   1 = after creating an empty .tmp
 *   2 = after writing half the .tmp bytes
 *   3 = after the full .tmp, before the rename
 */
void setAtomicWriteFaultStageForTest(int stage);

/**
 * Read all of @p path into @p out. Fails (with a diagnostic in
 * @p error when non-null) when the file cannot be opened or read, or
 * is larger than @p max_bytes. A file that shrinks underneath the
 * read yields the bytes that were there; the caller's decoder rejects
 * the short buffer.
 */
bool readFileBytes(const std::string &path, size_t max_bytes,
                   std::vector<uint8_t> *out, std::string *error = nullptr);

/** Everything left in @p in, read in large blocks (pipes work too). */
std::string readStream(std::istream &in);

} // namespace mercury

#endif // MERCURY_UTIL_FILEIO_HH
