#include "net/socket.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace confide::net {

namespace {

/// Listen backlog for every listener (peer transport and HTTP alike).
constexpr int kListenBacklog = 128;

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::string Errno() { return std::strerror(errno); }

}  // namespace

Result<std::pair<std::string, uint16_t>> SplitHostPort(const std::string& addr) {
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size()) {
    return Status::InvalidArgument("net: address '" + addr +
                                   "' is not host:port");
  }
  char* end = nullptr;
  unsigned long port = std::strtoul(addr.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port > 65535) {
    return Status::InvalidArgument("net: bad port in '" + addr + "'");
  }
  return std::make_pair(addr.substr(0, colon), uint16_t(port));
}

void Fd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Fd::Shutdown() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Result<Fd> Dial(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res);
  if (rc != 0 || res == nullptr) {
    return Status::Unavailable("net: resolve " + host + ": " + gai_strerror(rc));
  }
  std::unique_ptr<addrinfo, void (*)(addrinfo*)> owned(res, ::freeaddrinfo);
  Fd fd(::socket(res->ai_family, res->ai_socktype, res->ai_protocol));
  if (!fd.valid()) return Status::Unavailable("net: socket(): " + Errno());
  if (::connect(fd.get(), res->ai_addr, res->ai_addrlen) != 0) {
    return Status::Unavailable("net: connect " + host + ":" + port_str + ": " +
                               Errno());
  }
  SetNoDelay(fd.get());
  return fd;
}

Status WriteAll(int fd, ByteView data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("net: send: " + Errno());
    }
    off += size_t(n);
  }
  return Status::OK();
}

ssize_t ReadSome(int fd, void* buf, size_t len) {
  while (true) {
    ssize_t n = ::read(fd, buf, len);
    if (n >= 0 || errno != EINTR) return n;
  }
}

Status Listener::Start(const std::string& host, uint16_t port, AcceptFn on_accept) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host == "0.0.0.0") {
    addr.sin_addr.s_addr = INADDR_ANY;
  } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("net: bad listen host '" + host + "'");
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Status::Unavailable("net: socket(): " + Errno());
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd.get(), kListenBacklog) < 0) {
    return Status::Unavailable("net: bind/listen " + host + ":" +
                               std::to_string(port) + ": " + Errno());
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);
  fd_ = std::move(fd);
  on_accept_ = std::move(on_accept);
  running_.store(true);
  thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Listener::Stop() {
  running_.store(false);
  // Shutting the listening socket down wakes AcceptLoop's poll at once
  // (the running_ flip alone bounds it at 100 ms) and keeps the number
  // owned; once the thread is gone the listener closes without racing its
  // reads of fd_.
  fd_.Shutdown();
  if (thread_.joinable()) thread_.join();
  fd_.Reset();
}

void Listener::AcceptLoop() {
  while (running_.load(std::memory_order_relaxed)) {
    pollfd pfd{fd_.get(), POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (!running_.load(std::memory_order_relaxed)) break;
    if (ready <= 0) continue;
    Fd conn(::accept(fd_.get(), nullptr, nullptr));
    if (!conn.valid()) {
      if (errno == EINTR) continue;
      break;  // listener closed
    }
    SetNoDelay(conn.get());
    on_accept_(std::move(conn));
  }
}

void ConnectionThreads::Spawn(std::function<void()> serve,
                              std::function<void()> shutdown) {
  std::vector<std::thread> reap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reap.swap(finished_);
    const uint64_t id = next_id_++;
    Entry& entry = live_[id];
    entry.shutdown = std::move(shutdown);
    // The thread's exit path takes mu_, so it cannot retire `entry`
    // before this assignment completes.
    entry.thread = std::thread([this, id, serve = std::move(serve)] {
      serve();
      std::lock_guard<std::mutex> done(mu_);
      auto it = live_.find(id);
      if (it == live_.end()) return;  // StopAll took it and joins this thread
      finished_.push_back(std::move(it->second.thread));
      live_.erase(it);
    });
  }
  for (auto& t : reap) t.join();
}

void ConnectionThreads::StopAll() {
  std::map<uint64_t, Entry> live;
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live.swap(live_);
    finished.swap(finished_);
  }
  for (auto& [id, entry] : live) entry.shutdown();
  for (auto& [id, entry] : live) entry.thread.join();
  for (auto& t : finished) t.join();
}

}  // namespace confide::net
