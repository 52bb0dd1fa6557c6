/// \file http.h
/// \brief Minimal HTTP/1.1 server and client for the gateway plane.
///
/// Enough of HTTP/1.1 for the gateway's JSON API and the open-loop load
/// driver: request line + headers + Content-Length bodies, keep-alive
/// connections, nothing else (no chunked encoding, no TLS). Limits guard
/// every input: header block ≤ 16 KiB, body ≤ 4 MiB, and all parsing is
/// remaining-based (no length arithmetic on attacker bytes).
///
/// The server is thread-per-connection — the right shape for tens of
/// concurrent clients (a gateway fronting a consortium cluster), not a
/// C10K design. The client keeps its one connection alive across
/// requests so the load driver does not exhaust ephemeral ports.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "net/socket.h"

namespace confide::net {

inline constexpr size_t kMaxHttpHeaderBytes = 16 * 1024;
inline constexpr size_t kMaxHttpBodyBytes = 4u << 20;

struct HttpRequest {
  std::string method;   ///< "GET", "POST", ...
  std::string path;     ///< path + query, as sent
  std::map<std::string, std::string> headers;  ///< keys lower-cased
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;

  static HttpResponse Json(int status, std::string body) {
    HttpResponse r;
    r.status = status;
    r.body = std::move(body);
    return r;
  }
  static HttpResponse Text(int status, std::string body) {
    HttpResponse r;
    r.status = status;
    r.content_type = "text/plain";
    r.body = std::move(body);
    return r;
  }
};

/// \brief Thread-per-connection HTTP server.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// \brief Binds `host:port` (port 0 = ephemeral; see port()) and starts
  /// serving `handler` on a background accept thread.
  Status Start(const std::string& host, uint16_t port, Handler handler);

  /// \brief Stops accepting, shuts down the connections still being
  /// served and joins their threads.
  void Stop();

  uint16_t port() const { return listener_.port(); }

 private:
  void Serve(int fd);

  Handler handler_;
  Listener listener_;
  /// Declared last: destroyed first, while the state Serve uses is alive.
  ConnectionThreads workers_;
};

/// \brief Blocking keep-alive HTTP client bound to one host:port. Not
/// thread-safe; use one per worker thread.
class HttpClient {
 public:
  /// \brief `base_url` like "http://127.0.0.1:8080".
  static Result<HttpClient> Connect(const std::string& base_url);


  Result<HttpResponse> Get(const std::string& path);
  Result<HttpResponse> Post(const std::string& path, const std::string& body,
                            const std::string& content_type = "application/json");

 private:
  HttpClient(std::string host, uint16_t port) : host_(std::move(host)), port_(port) {}

  Result<HttpResponse> RoundTrip(const std::string& request);

  std::string host_;
  uint16_t port_ = 0;
  Fd fd_;
};

}  // namespace confide::net
