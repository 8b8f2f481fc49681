#include "util/bytes.hh"

#include "util/logging.hh"

namespace mercury {

uint8_t *
ByteWriter::grow(size_t size)
{
    grow_->resize(pos_ + size);
    pos_ += size;
    return grow_->data() + pos_ - size;
}

void
ByteWriter::overflow(size_t size) const
{
    MERCURY_PANIC("ByteWriter: ", size, " bytes do not fit at offset ",
                  pos_, " of ", capacity_);
}

std::string
ByteReader::string8(size_t max_bytes)
{
    size_t at = pos_;
    return stringOf(u8(), max_bytes, at);
}

std::string
ByteReader::string32(size_t max_bytes)
{
    size_t at = pos_;
    return stringOf(u32(), max_bytes, at);
}

std::string
ByteReader::stringOf(size_t length, size_t max_bytes, size_t at)
{
    if (length > max_bytes)
        failAt(at, "string length " + std::to_string(length));
    const uint8_t *text = bytes(length);
    if (!text)
        return {};
    return std::string(reinterpret_cast<const char *>(text), length);
}

uint32_t
ByteReader::count(uint32_t ceiling, const char *what)
{
    size_t at = pos_;
    uint32_t n = u32();
    if (n <= ceiling)
        return n;
    failAt(at, std::string("absurd ") + what + " count " +
                   std::to_string(n));
    return 0;
}

void
ByteReader::truncated(size_t size)
{
    failAt(pos_, "truncated (need " + std::to_string(size) +
                     " bytes, have " + std::to_string(size_ - pos_) + ")");
}

bool
ByteReader::failAt(size_t offset, std::string_view what)
{
    if (ok_) {
        ok_ = false;
        errorOffset_ = offset;
        error_ = std::string(what) + " at offset " + std::to_string(offset);
    }
    return false;
}

} // namespace mercury
