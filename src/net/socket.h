/// \file socket.h
/// \brief The one socket layer under `TcpTransport`, `FrameClient`,
/// `HttpServer` and `HttpClient`: owning fd, host:port parser, dial,
/// write/read loops, listener and the thread-per-connection set.

#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace confide::net {

/// \brief "host:port" → (host, port). Rejects a missing host or an
/// invalid port; port 0 is accepted (an ephemeral bind).
Result<std::pair<std::string, uint16_t>> SplitHostPort(const std::string& addr);

/// \brief Owning file descriptor (move-only; closes on destruction).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  ~Fd() { Reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// \brief Closes the descriptor (no-op when empty).
  void Reset();
  /// \brief shutdown(SHUT_RDWR): unblocks a reader parked on the socket
  /// while the descriptor stays open and owned.
  void Shutdown() const;

 private:
  int fd_ = -1;
};

/// \brief Resolves `host`, connects to it and turns Nagle off.
Result<Fd> Dial(const std::string& host, uint16_t port);

/// \brief Writes all of `data` without raising SIGPIPE, retried on EINTR
/// and short writes.
Status WriteAll(int fd, ByteView data);

/// \brief One ::read retried on EINTR: bytes read, 0 at EOF, -1 on error.
ssize_t ReadSome(int fd, void* buf, size_t len);

/// \brief A listening socket and its accept thread.
class Listener {
 public:
  /// Receives each accepted connection (Nagle already off), on the accept
  /// thread.
  using AcceptFn = std::function<void(Fd)>;

  Listener() = default;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener() { Stop(); }

  /// \brief Binds `host:port` ("0.0.0.0" = any; port 0 = ephemeral, see
  /// port()) and starts accepting.
  Status Start(const std::string& host, uint16_t port, AcceptFn on_accept);
  /// \brief Shuts the listening socket down, which wakes the accept
  /// thread, joins it, then closes the socket. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }

 private:
  void AcceptLoop();

  Fd fd_;
  uint16_t port_ = 0;
  AcceptFn on_accept_;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

/// \brief Thread-per-connection bookkeeping. StopAll shuts down only the
/// connections still being served: a finished connection's fd may be
/// closed and its number reused by an unrelated socket. A finished thread
/// is joined by the next Spawn or by StopAll, so the set does not grow
/// with every connection a long-lived server has seen.
class ConnectionThreads {
 public:
  ConnectionThreads() = default;
  ConnectionThreads(const ConnectionThreads&) = delete;
  ConnectionThreads& operator=(const ConnectionThreads&) = delete;
  ~ConnectionThreads() { StopAll(); }

  /// \brief Runs `serve` on a new thread. `shutdown` must unblock it
  /// (e.g. Fd::Shutdown on its socket); it and whatever it captures are
  /// dropped when `serve` returns.
  void Spawn(std::function<void()> serve, std::function<void()> shutdown);
  /// \brief Shuts down every connection still being served and joins
  /// every thread.
  void StopAll();

 private:
  struct Entry {
    std::function<void()> shutdown;
    std::thread thread;
  };

  std::mutex mu_;
  uint64_t next_id_ = 0;
  std::map<uint64_t, Entry> live_;
  std::vector<std::thread> finished_;
};

}  // namespace confide::net
