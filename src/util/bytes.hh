/**
 * @file
 * The one little-endian byte codec behind every wire and disk format:
 * request-plane packets, the WAL and its mutation payloads, replication
 * datagrams and the checkpoint.
 *
 * ByteWriter appends into storage its caller owns (a proto::Packet, or
 * a std::vector the caller keeps), so it makes no allocation of its
 * own. ByteReader is bounds-checked: its first failure — a short
 * buffer, a NaN or infinite double, a string or count over the
 * caller's ceiling, or the caller's own fail() — latches with the
 * offset it happened at, and every later read returns zero. A decoder
 * reads its whole layout and checks ok() once.
 */

#ifndef MERCURY_UTIL_BYTES_HH
#define MERCURY_UTIL_BYTES_HH

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace mercury {

/** @p v with its bytes in little-endian order: the identity on a
 *  little-endian host, a byte swap on a big-endian one (its own
 *  inverse, so it both encodes and decodes). */
template <typename T>
constexpr T
littleEndian(T v)
{
    if constexpr (sizeof(T) > 1 && std::endian::native == std::endian::big) {
        T out = 0;
        for (size_t i = 0; i < sizeof(T); ++i)
            out = static_cast<T>((out << 8) | ((v >> (8 * i)) & 0xff));
        return out;
    }
    return v;
}

/** Little-endian serializer over caller-owned storage. */
class ByteWriter
{
  public:
    /** Append to @p out, growing it. */
    explicit ByteWriter(std::vector<uint8_t> &out)
        : grow_(&out), pos_(out.size())
    {
    }

    /** Fill @p capacity bytes at @p data from the start; writing past
     *  the end is a programming error and panics. */
    ByteWriter(uint8_t *data, size_t capacity)
        : data_(data), capacity_(capacity)
    {
    }

    void u8(uint8_t v) { put(v); }
    void u16(uint16_t v) { put(v); }
    void u32(uint32_t v) { put(v); }
    void u64(uint64_t v) { put(v); }
    void f64(double v) { put(std::bit_cast<uint64_t>(v)); }

    void
    bytes(const void *data, size_t size)
    {
        if (size != 0)
            std::memcpy(take(size), data, size);
    }

    void
    zeros(size_t size)
    {
        if (size != 0)
            std::memset(take(size), 0, size);
    }

    /** A u8 length, then the bytes; over 255 bytes panics. */
    void
    string8(std::string_view s)
    {
        if (s.size() > 0xff)
            overflow(s.size());
        u8(static_cast<uint8_t>(s.size()));
        bytes(s.data(), s.size());
    }

    /** A u32 length, then the bytes. */
    void
    string32(std::string_view s)
    {
        u32(static_cast<uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }

    /** Offset of the next write from the start of the buffer. */
    size_t offset() const { return pos_; }

    /** Overwrite already-written bytes at @p offset: a length or a
     *  checksum only known once its body is written. */
    void patchU32(size_t offset, uint32_t v) { patch(offset, v); }
    void patchU64(size_t offset, uint64_t v) { patch(offset, v); }

  private:
    /** The next @p size bytes, claimed. The fixed-buffer path stays
     *  small enough to inline; growing a vector is out of line. */
    uint8_t *
    take(size_t size)
    {
        if (grow_)
            return grow(size);
        if (capacity_ - pos_ < size)
            overflow(size);
        pos_ += size;
        return data_ + pos_ - size;
    }

    template <typename T>
    void
    put(T v)
    {
        v = littleEndian(v);
        std::memcpy(take(sizeof(T)), &v, sizeof(T));
    }

    template <typename T>
    void
    patch(size_t offset, T v)
    {
        if (offset + sizeof(T) > pos_)
            overflow(sizeof(T));
        v = littleEndian(v);
        std::memcpy((grow_ ? grow_->data() : data_) + offset, &v, sizeof(T));
    }

    uint8_t *grow(size_t size);
    [[noreturn]] void overflow(size_t size) const;

    std::vector<uint8_t> *grow_ = nullptr;
    uint8_t *data_ = nullptr;
    size_t capacity_ = 0;
    size_t pos_ = 0;
};

/** Bounds-checked little-endian parser with a latched first failure. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size) : data_(data), size_(size)
    {
    }

    bool ok() const { return ok_; }

    /** "<what> at offset <n>" for the first failure; empty while ok(). */
    const std::string &error() const { return error_; }

    /** Where the first failure happened; meaningful once !ok(). */
    size_t errorOffset() const { return errorOffset_; }

    size_t offset() const { return pos_; }
    size_t remaining() const { return size_ - pos_; }

    /** Latch a failure at the current offset (the first one wins), for
     *  a decoder's own range checks. Returns false. */
    bool fail(std::string_view what) { return failAt(pos_, what); }

    uint8_t u8() { return get<uint8_t>(); }
    uint16_t u16() { return get<uint16_t>(); }
    uint32_t u32() { return get<uint32_t>(); }
    uint64_t u64() { return get<uint64_t>(); }

    /** A double that must be finite: NaN and +-Inf fail. */
    double
    f64()
    {
        size_t at = pos_;
        double v = std::bit_cast<double>(u64());
        if (std::isfinite(v))
            return v;
        failAt(at, "non-finite double");
        return 0.0;
    }

    /** @p size raw bytes, in place; nullptr once failed. */
    const uint8_t *
    bytes(size_t size)
    {
        if (!need(size))
            return nullptr;
        pos_ += size;
        return data_ + pos_ - size;
    }

    /** A NUL-padded field of @p width bytes: its bytes up to the
     *  first NUL, or all @p width when unterminated. */
    std::string
    fixedString(size_t width)
    {
        const uint8_t *field = bytes(width);
        if (!field)
            return {};
        size_t length = 0;
        while (length < width && field[length] != 0)
            ++length;
        return std::string(reinterpret_cast<const char *>(field), length);
    }

    /** A u8 (string8) or u32 (string32) length, then that many bytes;
     *  a length over @p max_bytes fails. */
    std::string string8(size_t max_bytes);
    std::string string32(size_t max_bytes);

    /** A u32 element count; above @p ceiling it fails as an absurd
     *  @p what count and reads as 0, so a loop over it stops. */
    uint32_t count(uint32_t ceiling, const char *what);

  private:
    bool
    need(size_t size)
    {
        if (ok_ && size_ - pos_ < size)
            truncated(size);
        return ok_;
    }

    template <typename T>
    T
    get()
    {
        if (!need(sizeof(T)))
            return 0;
        T v;
        std::memcpy(&v, data_ + pos_, sizeof(T));
        pos_ += sizeof(T);
        return littleEndian(v);
    }

    std::string stringOf(size_t length, size_t max_bytes, size_t at);
    void truncated(size_t size);
    bool failAt(size_t offset, std::string_view what);

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
    size_t errorOffset_ = 0;
    std::string error_;
};

/**
 * FNV-1a accumulator for the structural hashes (state::topologyHash,
 * replica::stateHash). Integers feed their little-endian bytes, the
 * order ByteWriter puts them on the wire.
 */
class Fnv1a
{
  public:
    void
    u64(uint64_t v)
    {
        for (size_t i = 0; i < 8; ++i)
            mix(static_cast<uint8_t>(v >> (8 * i)));
    }

    /** The raw bit pattern: equal hashes mean bitwise-equal values. */
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    /** The length as a u64, then the bytes. */
    void
    str(std::string_view s)
    {
        u64(s.size());
        for (char c : s)
            mix(static_cast<uint8_t>(c));
    }

    uint64_t value() const { return hash_; }

  private:
    void
    mix(uint8_t byte)
    {
        hash_ ^= byte;
        hash_ *= 1099511628211ull;
    }

    uint64_t hash_ = 1469598103934665603ull;
};

} // namespace mercury

#endif // MERCURY_UTIL_BYTES_HH
