#include "util/fileio.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>

#include "util/strings.hh"

namespace mercury {

namespace {

int g_faultStage = 0;

} // namespace

bool
writeAll(int fd, const void *data, size_t size)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    size_t written = 0;
    while (written < size) {
        ssize_t n = ::write(fd, bytes + written, size - written);
        if (n < 0 && errno != EINTR)
            return false;
        if (n > 0)
            written += static_cast<size_t>(n);
    }
    return true;
}

void
setAtomicWriteFaultStageForTest(int stage)
{
    g_faultStage = stage;
}

bool
atomicWriteFile(const std::string &path, std::string_view contents,
                std::string *error)
{
    std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        setError(error, "open " + tmp + ": " + std::strerror(errno));
        return false;
    }
    if (g_faultStage == 1) {
        ::close(fd);
        setError(error, "fault injected: crash after create");
        return false;
    }
    size_t to_write =
        g_faultStage == 2 ? contents.size() / 2 : contents.size();
    if (!writeAll(fd, contents.data(), to_write)) {
        setError(error, "write " + tmp + ": " + std::strerror(errno));
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    if (g_faultStage == 2) {
        ::close(fd);
        setError(error, "fault injected: crash mid-write");
        return false;
    }
    if (::fsync(fd) != 0) {
        setError(error, "fsync " + tmp + ": " + std::strerror(errno));
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::close(fd) != 0) {
        setError(error, "close " + tmp + ": " + std::strerror(errno));
        ::unlink(tmp.c_str());
        return false;
    }
    if (g_faultStage == 3) {
        setError(error, "fault injected: crash before rename");
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        setError(error, "rename " + tmp + ": " + std::strerror(errno));
        ::unlink(tmp.c_str());
        return false;
    }
    // Persist the rename itself: fsync the containing directory.
    size_t slash = path.find_last_of('/');
    std::string dir = slash == std::string::npos
                          ? std::string(".")
                          : path.substr(0, slash + 1);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return true;
}

bool
readFileBytes(const std::string &path, size_t max_bytes,
              std::vector<uint8_t> *out, std::string *error)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        setError(error, "open " + path + ": " + std::strerror(errno));
        return false;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        setError(error, "stat " + path + ": " + std::strerror(errno));
        ::close(fd);
        return false;
    }
    if (st.st_size < 0 || static_cast<size_t>(st.st_size) > max_bytes) {
        setError(error,
                 "implausible file size " + std::to_string(st.st_size));
        ::close(fd);
        return false;
    }
    out->resize(static_cast<size_t>(st.st_size));
    size_t got = 0;
    while (got < out->size()) {
        ssize_t n = ::read(fd, out->data() + got, out->size() - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setError(error, "read " + path + ": " + std::strerror(errno));
            ::close(fd);
            return false;
        }
        if (n == 0)
            break; // shrank underneath us
        got += static_cast<size_t>(n);
    }
    ::close(fd);
    out->resize(got);
    return true;
}

std::string
readStream(std::istream &in)
{
    std::string text;
    char block[1 << 16];
    while (in.read(block, sizeof(block)) || in.gcount() > 0)
        text.append(block, static_cast<size_t>(in.gcount()));
    return text;
}

} // namespace mercury
