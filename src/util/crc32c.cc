#include "util/crc32c.hh"

#include <array>
#include <cstring>

namespace mercury {

uint32_t
crc32cSoftware(const uint8_t *data, size_t size)
{
    static const auto table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t crc = i;
            for (int b = 0; b < 8; ++b)
                crc = (crc >> 1) ^ (0x82f63b78u & (0u - (crc & 1)));
            t[i] = crc;
        }
        return t;
    }();
    uint32_t crc = 0xffffffffu;
    for (size_t i = 0; i < size; ++i)
        crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

namespace {

__attribute__((target("sse4.2"))) uint32_t
crc32cHardware(const uint8_t *data, size_t size)
{
    uint64_t crc = 0xffffffffu;
    while (size >= 8) {
        uint64_t word; // x86-64 is little-endian: the bytes in order
        std::memcpy(&word, data, sizeof(word));
        crc = __builtin_ia32_crc32di(crc, word);
        data += 8;
        size -= 8;
    }
    uint32_t crc32 = static_cast<uint32_t>(crc);
    while (size > 0) {
        crc32 = __builtin_ia32_crc32qi(crc32, *data);
        ++data;
        --size;
    }
    return crc32 ^ 0xffffffffu;
}

bool
haveSse42()
{
    static const bool have = __builtin_cpu_supports("sse4.2");
    return have;
}

} // namespace

#endif

uint32_t
crc32c(const uint8_t *data, size_t size)
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (haveSse42())
        return crc32cHardware(data, size);
#endif
    return crc32cSoftware(data, size);
}

} // namespace mercury
