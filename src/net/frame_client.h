/// \file frame_client.h
/// \brief Blocking request/reply client for the framed TCP plane: the
/// side of the wire a gateway (or test) speaks to a `confided` node.
///
/// One connection, one in-flight request at a time (serialized by an
/// internal mutex — share an instance across threads or use one per
/// worker). A request whose connection died is retried once on a fresh
/// connection, which makes node restarts invisible to idempotent
/// queries.

#pragma once

#include <mutex>
#include <string>

#include "net/frame.h"
#include "net/socket.h"

namespace confide::net {

class FrameClient {
 public:
  /// \brief `addr` is "host:port". Connects lazily on first Call.
  static Result<FrameClient> Dial(const std::string& addr);

  FrameClient(FrameClient&& other) noexcept;
  FrameClient& operator=(FrameClient&& other) noexcept;

  /// \brief Sends one frame and blocks for the reply frame.
  Result<OwnedFrame> Call(MsgType type, ByteView body);

 private:
  FrameClient(std::string host, uint16_t port)
      : host_(std::move(host)), port_(port) {}

  void Disconnect();
  Result<OwnedFrame> RoundTrip(MsgType type, ByteView body);

  std::mutex mu_;
  std::string host_;
  uint16_t port_ = 0;
  Fd fd_;
  FrameAssembler assembler_;
};

}  // namespace confide::net
