// RAII file descriptors and pipe helpers for the POSIX backend.
#pragma once

#include <fcntl.h>
#include <limits.h>
#include <poll.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace altx::posix {

/// Owns a file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  void reset() noexcept {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

struct Pipe {
  Fd read_end;
  Fd write_end;

  static Pipe create() {
    int fds[2];
    if (::pipe(fds) != 0) throw_errno("pipe");
    Pipe p;
    p.read_end = Fd(fds[0]);
    p.write_end = Fd(fds[1]);
    return p;
  }
};

/// Writes the whole buffer, retrying on EINTR / short writes.
inline void write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("write");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Reads exactly n bytes; returns false on clean EOF before any byte,
/// throws on errors or truncation mid-record.
inline bool read_exact(int fd, void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("read");
    }
    if (r == 0) {
      if (got == 0) return false;
      throw SystemError("read: truncated record", EIO);
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

/// Length-prefixed frame I/O over a pipe: one frame whose payload is
/// `parts` in order, gathered by writev, so no byte is copied on the way.
/// A frame that fits in PIPE_BUF goes out as ONE writev, which a pipe takes
/// whole: a header can never interleave with another writer's payload. Two
/// writers exist only when two children both hold a commit token (the
/// ALTX_TEST_BREAK_AT_MOST_ONCE double-commit sabotage); split writes there
/// would corrupt the stream and the parent's frame parse would throw instead
/// of the checker seeing the second commit.
inline void write_frame(
    int fd, std::initializer_list<std::span<const std::uint8_t>> parts) {
  constexpr std::size_t kMaxParts = 7;
  std::uint64_t len = 0;
  iovec iov[1 + kMaxParts];
  int n = 0;
  iov[n++] = {&len, sizeof len};
  for (const std::span<const std::uint8_t> part : parts) {
    ALTX_REQUIRE(n <= static_cast<int>(kMaxParts),
                 "write_frame: too many parts");
    len += part.size();
    if (!part.empty()) {
      iov[n++] = {const_cast<std::uint8_t*>(part.data()), part.size()};
    }
  }
  // Retry short writes (only a frame past PIPE_BUF has them) and EINTR.
  iovec* at = iov;
  while (n > 0) {
    ssize_t w = ::writev(fd, at, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("write");
    }
    while (n > 0 && static_cast<std::size_t>(w) >= at->iov_len) {
      w -= static_cast<ssize_t>(at->iov_len);
      ++at;
      --n;
    }
    if (n > 0) {
      at->iov_base = static_cast<std::uint8_t*>(at->iov_base) + w;
      at->iov_len -= static_cast<std::size_t>(w);
    }
  }
}

inline void write_frame(int fd, const Bytes& payload) {
  write_frame(fd, {std::span<const std::uint8_t>(payload)});
}

inline std::optional<Bytes> read_frame(int fd) {
  std::uint64_t len = 0;
  if (!read_exact(fd, &len, sizeof len)) return std::nullopt;
  Bytes payload(len);
  if (len > 0 && !read_exact(fd, payload.data(), len)) {
    throw SystemError("read_frame: truncated payload", EIO);
  }
  return payload;
}

/// Waits for readability with a millisecond deadline. Returns true if
/// readable, false on timeout.
inline bool wait_readable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  while (true) {
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    return r > 0;
  }
}

}  // namespace altx::posix
