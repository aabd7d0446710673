#include "study/checkpoint.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/logging.hh"

namespace libra {

namespace {

constexpr const char* kHeader = "libra-checkpoint-v1";

/** Parse one 16-hex manifest line; nullopt for anything else. */
bool
parseHashLine(const std::string& line, std::uint64_t* out)
{
    if (line.size() != 16)
        return false;
    std::uint64_t value = 0;
    for (char c : line) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        value = (value << 4) | static_cast<std::uint64_t>(digit);
    }
    *out = value;
    return true;
}

std::string
hashLine(std::uint64_t hash)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx\n",
                  static_cast<unsigned long long>(hash));
    return buf;
}

} // namespace

CheckpointLog::CheckpointLog(const std::string& path) : path_(path)
{
    bool existed = false;
    {
        std::ifstream in(path_);
        if (in.is_open()) {
            existed = true;
            std::string text{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
            // A kill -9 mid-append leaves the file without its final
            // newline; the next append must not extend that fragment.
            tornTail_ = !text.empty() && text.back() != '\n';
            std::istringstream lines(text);
            std::string line;
            bool first = true;
            while (std::getline(lines, line)) {
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                if (first) {
                    first = false;
                    if (line != kHeader)
                        fatal("checkpoint: '", path_,
                              "' is not a libra checkpoint manifest "
                              "(header '", line, "')");
                    continue;
                }
                std::uint64_t hash;
                if (!parseHashLine(line, &hash)) {
                    // A torn tail is the expected shape of a kill -9
                    // mid-append; everything before it is intact.
                    warn("checkpoint: skipping malformed line in '",
                         path_, "'");
                    continue;
                }
                if (done_.insert(hash).second)
                    ++resumed_;
            }
            // An empty existing file (e.g. `touch`ed) is treated as a
            // fresh manifest: nothing recorded, header written below.
            if (first)
                existed = false;
        }
    }

    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        fatal("checkpoint: cannot open '", path_,
              "': ", std::strerror(errno));
    if (!existed) {
        std::string header = std::string(kHeader) + "\n";
        if (::write(fd_, header.data(), header.size()) !=
                static_cast<ssize_t>(header.size()) ||
            ::fsync(fd_) != 0) {
            int err = errno;
            ::close(fd_);
            fd_ = -1;
            fatal("checkpoint: cannot write header to '", path_,
                  "': ", std::strerror(err));
        }
    }
}

CheckpointLog::~CheckpointLog()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
CheckpointLog::contains(std::uint64_t hash) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return done_.count(hash) != 0;
}

void
CheckpointLog::append(std::uint64_t hash)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!done_.insert(hash).second)
        return;
    if (fd_ < 0)
        return;
    std::string line = tornTail_ ? "\n" : "";
    line += hashLine(hash);
    tornTail_ = false;
    if (::write(fd_, line.data(), line.size()) !=
            static_cast<ssize_t>(line.size()) ||
        ::fsync(fd_) != 0) {
        // Losing the manifest loses resumability, never results; warn
        // once and stop writing (every later append would fail too).
        warn("checkpoint: write to '", path_, "' failed (",
             std::strerror(errno), "); resumability degraded");
        ::close(fd_);
        fd_ = -1;
    }
}

} // namespace libra
