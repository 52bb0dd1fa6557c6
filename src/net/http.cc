#include "net/http.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "common/metrics.h"

namespace confide::net {

namespace {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return char(std::tolower(c)); });
  return s;
}

/// One message head: the start line and the lower-cased headers.
struct Head {
  std::string start_line;
  std::map<std::string, std::string> headers;
};

/// Reads one message (head plus Content-Length body) for the server and
/// the client alike; bytes past it stay in `buf`. Unavailable: the stream
/// ended. InvalidArgument: a malformed or oversized head.
/// ResourceExhausted: a body over kMaxHttpBodyBytes, refused from the head.
Result<std::pair<Head, std::string>> ReadMessage(int fd, std::string* buf) {
  char chunk[4096];
  size_t end;
  while ((end = buf->find("\r\n\r\n")) == std::string::npos) {
    if (buf->size() > kMaxHttpHeaderBytes) {
      return Status::InvalidArgument("http: header block too large");
    }
    ssize_t n = ReadSome(fd, chunk, sizeof(chunk));
    if (n <= 0) return Status::Unavailable("http: connection closed");
    buf->append(chunk, size_t(n));
  }
  Head head;
  size_t pos = buf->find("\r\n");
  head.start_line = buf->substr(0, pos);
  // Every line ends in "\r\n": the blank line at `end` terminates them.
  for (pos += 2; pos < end;) {
    size_t eol = buf->find("\r\n", pos);
    const std::string line = buf->substr(pos, eol - pos);
    size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("http: malformed header line");
    }
    size_t value = line.find_first_not_of(' ', colon + 1);
    head.headers[ToLower(line.substr(0, colon))] =
        value == std::string::npos ? "" : line.substr(value);
    pos = eol + 2;
  }
  const size_t body_at = end + 4;
  size_t body_len = 0;
  auto cl = head.headers.find("content-length");
  if (cl != head.headers.end()) {
    char* cl_end = nullptr;
    unsigned long long v = std::strtoull(cl->second.c_str(), &cl_end, 10);
    if (*cl_end != '\0' || v > kMaxHttpBodyBytes) {
      return Status::ResourceExhausted("body too large or invalid");
    }
    body_len = size_t(v);
  }
  while (buf->size() < body_at + body_len) {
    size_t need = body_at + body_len - buf->size();
    ssize_t n = ReadSome(fd, chunk, std::min(need, sizeof(chunk)));
    if (n <= 0) return Status::Unavailable("http: connection closed");
    buf->append(chunk, size_t(n));
  }
  std::string body = buf->substr(body_at, body_len);
  buf->erase(0, body_at + body_len);
  return std::make_pair(std::move(head), std::move(body));
}

/// Validates the request line of `head` and assembles the request.
Result<HttpRequest> ParseRequest(Head head, std::string body) {
  const std::string& line = head.start_line;
  size_t sp1 = line.find(' ');
  size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    return Status::InvalidArgument("http: malformed request line");
  }
  HttpRequest req;
  req.method = line.substr(0, sp1);
  req.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (req.method.empty() || req.path.empty() || req.path[0] != '/') {
    return Status::InvalidArgument("http: malformed method/path");
  }
  if (line.compare(sp2 + 1, 7, "HTTP/1.") != 0) {
    return Status::InvalidArgument("http: unsupported version");
  }
  req.headers = std::move(head.headers);
  req.body = std::move(body);
  return req;
}

std::string SerializeResponse(const HttpResponse& resp, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    ReasonPhrase(resp.status) + "\r\n";
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += resp.body;
  return out;
}

}  // namespace

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start(const std::string& host, uint16_t port, Handler handler) {
  handler_ = std::move(handler);
  return listener_.Start(host, port, [this](Fd fd) {
    auto conn = std::make_shared<Fd>(std::move(fd));
    workers_.Spawn([this, conn] { Serve(conn->get()); },
                   [conn] { conn->Shutdown(); });
  });
}

void HttpServer::Stop() {
  listener_.Stop();
  workers_.StopAll();
}

void HttpServer::Serve(int fd) {
  static metrics::Counter* requests = metrics::GetCounter("net.http.request.count");
  static metrics::Counter* bad = metrics::GetCounter("net.http.bad_request.count");
  std::string buf;
  // Stop shuts the socket down, which fails the next read or write.
  while (true) {
    auto msg = ReadMessage(fd, &buf);
    Result<HttpRequest> req =
        msg.ok() ? ParseRequest(std::move(msg->first), std::move(msg->second))
                 : msg.status();
    if (!req.ok()) {
      if (req.status().code() == StatusCode::kUnavailable) break;
      bad->Increment();
      const bool too_large = req.status().code() == StatusCode::kResourceExhausted;
      const HttpResponse refusal =
          HttpResponse::Text(too_large ? 413 : 400, req.status().message());
      (void)WriteAll(fd, AsByteView(SerializeResponse(refusal, /*keep_alive=*/false)));
      break;
    }
    requests->Increment();
    HttpResponse resp = handler_ ? handler_(*req) : HttpResponse::Text(500, "no handler");
    auto conn_header = req->headers.find("connection");
    const bool keep_alive = conn_header == req->headers.end() ||
                            ToLower(conn_header->second) != "close";
    if (!WriteAll(fd, AsByteView(SerializeResponse(resp, keep_alive))).ok()) break;
    if (!keep_alive) break;
  }
}

Result<HttpClient> HttpClient::Connect(const std::string& base_url) {
  const std::string prefix = "http://";
  if (base_url.rfind(prefix, 0) != 0) {
    return Status::InvalidArgument("http client: url must start with http://");
  }
  const std::string rest = base_url.substr(prefix.size());
  CONFIDE_ASSIGN_OR_RETURN(auto addr, SplitHostPort(rest.substr(0, rest.find('/'))));
  if (addr.second == 0) {
    return Status::InvalidArgument("http client: bad port in url");
  }
  return HttpClient(addr.first, addr.second);
}

Result<HttpResponse> HttpClient::RoundTrip(const std::string& request) {
  // One reconnect attempt: a keep-alive connection the server closed
  // (restart, idle timeout) surfaces as a failed write/read.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!fd_.valid()) {
      CONFIDE_ASSIGN_OR_RETURN(fd_, Dial(host_, port_));
    }
    std::string buf;
    Status sent = WriteAll(fd_.get(), AsByteView(request));
    auto msg = sent.ok() ? ReadMessage(fd_.get(), &buf) : sent;
    if (!msg.ok()) {
      fd_.Reset();
      if (msg.status().code() == StatusCode::kUnavailable) continue;
      return Status::Corruption("http client: " + msg.status().message());
    }
    const std::string& status_line = msg->first.start_line;
    const auto& headers = msg->first.headers;
    if (status_line.rfind("HTTP/1.", 0) != 0 || status_line.size() < 12) {
      fd_.Reset();
      return Status::Corruption("http client: malformed status line");
    }
    HttpResponse resp;
    resp.status = std::atoi(status_line.c_str() + 9);
    auto ct = headers.find("content-type");
    if (ct != headers.end()) resp.content_type = ct->second;
    resp.body = std::move(msg->second);
    auto conn = headers.find("connection");
    if (conn != headers.end() && ToLower(conn->second) == "close") fd_.Reset();
    return resp;
  }
  return Status::Unavailable("http client: request to " + host_ + " failed");
}

Result<HttpResponse> HttpClient::Get(const std::string& path) {
  std::string req = "GET " + path + " HTTP/1.1\r\nHost: " + host_ +
                    "\r\nConnection: keep-alive\r\n\r\n";
  return RoundTrip(req);
}

Result<HttpResponse> HttpClient::Post(const std::string& path,
                                      const std::string& body,
                                      const std::string& content_type) {
  std::string req = "POST " + path + " HTTP/1.1\r\nHost: " + host_ +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: keep-alive\r\n\r\n" + body;
  return RoundTrip(req);
}

}  // namespace confide::net
