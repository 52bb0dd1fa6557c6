#include "net/frame_client.h"

namespace confide::net {

Result<FrameClient> FrameClient::Dial(const std::string& addr) {
  CONFIDE_ASSIGN_OR_RETURN(auto host_port, SplitHostPort(addr));
  return FrameClient(host_port.first, host_port.second);
}

FrameClient::FrameClient(FrameClient&& other) noexcept
    : host_(std::move(other.host_)),
      port_(other.port_),
      fd_(std::move(other.fd_)),
      assembler_(std::move(other.assembler_)) {}

FrameClient& FrameClient::operator=(FrameClient&& other) noexcept {
  if (this != &other) {
    host_ = std::move(other.host_);
    port_ = other.port_;
    fd_ = std::move(other.fd_);
    assembler_ = std::move(other.assembler_);
  }
  return *this;
}

void FrameClient::Disconnect() {
  fd_.Reset();
  assembler_ = FrameAssembler();
}

Result<OwnedFrame> FrameClient::RoundTrip(MsgType type, ByteView body) {
  if (!fd_.valid()) {
    CONFIDE_ASSIGN_OR_RETURN(fd_, net::Dial(host_, port_));
  }
  Status sent = WriteAll(fd_.get(), EncodeFrame(type, body));
  if (!sent.ok()) {
    Disconnect();
    return sent;
  }
  uint8_t chunk[4096];
  while (true) {
    FrameView view;
    CONFIDE_ASSIGN_OR_RETURN(bool ready, assembler_.Next(&view));
    if (ready) {
      return OwnedFrame{view.type, ToBytes(view.body)};
    }
    ssize_t n = ReadSome(fd_.get(), chunk, sizeof(chunk));
    if (n <= 0) {
      Disconnect();
      return Status::Unavailable("frame client: connection closed mid-reply");
    }
    assembler_.Append(ByteView(chunk, size_t(n)));
  }
}

Result<OwnedFrame> FrameClient::Call(MsgType type, ByteView body) {
  std::lock_guard<std::mutex> lock(mu_);
  auto reply = RoundTrip(type, body);
  if (reply.ok()) return reply;
  // One retry on a fresh connection: the node may have restarted, or a
  // kept-alive connection may have been closed under us.
  Disconnect();
  return RoundTrip(type, body);
}

}  // namespace confide::net
