#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hybridgraph {

namespace {

constexpr uint8_t kKindPost = 0;
constexpr uint8_t kKindCall = 1;
// Request prefix before the FrameHeader: [kind u8][seq fixed64].
constexpr size_t kRequestPrefixSize = 1 + 8;
// Response frame: [code u8][len fixed32][payload or error message].
constexpr size_t kResponsePrefixSize = 1 + 4;

constexpr const char* kTimeoutMessage = "timeout waiting for response";

Status ReadExact(int fd, void* buf, size_t n) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::read(fd, p + done, n - done);
    if (r == 0) return Status::NetworkError("connection closed");
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::NetworkError(kTimeoutMessage);
      }
      return Status::NetworkError(StringFormat("read: %s", strerror(errno)));
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status WriteExact(int fd, const void* buf, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  size_t done = 0;
  while (done < n) {
    // MSG_NOSIGNAL: a peer that closed mid-exchange must surface as EPIPE
    // (and feed the retry path), not kill the process with SIGPIPE.
    const ssize_t r = ::send(fd, p + done, n - done, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::NetworkError(StringFormat("write: %s", strerror(errno)));
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

bool IsTimeout(const Status& st) {
  return st.message() == kTimeoutMessage;
}

/// Encodes a handler outcome as a response frame.
void EncodeResponseFrame(const Status& st, const Buffer& response,
                         std::vector<uint8_t>* out) {
  Buffer framed;
  Encoder enc(&framed);
  if (st.ok()) {
    enc.PutU8(static_cast<uint8_t>(StatusCode::kOk));
    enc.PutFixed32(static_cast<uint32_t>(response.size()));
    enc.PutRaw(response.data(), response.size());
  } else {
    enc.PutU8(static_cast<uint8_t>(st.code()));
    enc.PutFixed32(static_cast<uint32_t>(st.message().size()));
    enc.PutRaw(st.message().data(), st.message().size());
  }
  *out = framed.TakeBytes();
}

}  // namespace

TcpTransport::TcpTransport(uint32_t num_nodes)
    : TcpTransport(num_nodes, Options{}) {}

TcpTransport::TcpTransport(uint32_t num_nodes, Options options)
    : Transport(num_nodes),
      options_(options),
      listen_fds_(num_nodes, -1),
      ports_(num_nodes, 0),
      channels_(new Channel[static_cast<size_t>(num_nodes) * num_nodes]) {
  for (size_t i = 0; i < static_cast<size_t>(num_nodes) * num_nodes; ++i) {
    // One jitter stream per channel: schedules replay per seed and never
    // depend on which other channels are active.
    channels_[i].jitter = Rng(options_.seed ^ (0x517cc1b727220a95ULL * (i + 1)));
  }
}

TcpTransport::~TcpTransport() { Shutdown(); }

Status TcpTransport::Start() {
  if (started_.load()) return Status::OK();
  for (uint32_t i = 0; i < num_nodes_; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::NetworkError("socket() failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      return Status::NetworkError("bind() failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ports_[i] = ntohs(addr.sin_port);
    if (::listen(fd, 64) < 0) {
      ::close(fd);
      return Status::NetworkError("listen() failed");
    }
    listen_fds_[i] = fd;
  }
  started_.store(true);
  for (uint32_t i = 0; i < num_nodes_; ++i) {
    server_threads_.emplace_back([this, i] { ServeNode(i); });
  }
  return Status::OK();
}

void TcpTransport::ServeNode(NodeId node) {
  std::vector<std::thread> conn_threads;
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fds_[node], nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conn_threads.emplace_back([this, node, fd] { ServeConnection(node, fd); });
  }
  for (auto& t : conn_threads) t.join();
}

void TcpTransport::ServeConnection(NodeId node, int fd) {
  std::vector<uint8_t> header(kRequestPrefixSize + FrameHeader::kEncodedSize);
  std::vector<uint8_t> payload;
  while (!stopping_.load()) {
    if (!ReadExact(fd, header.data(), header.size()).ok()) break;
    Decoder dec(Slice(header.data(), header.size()));
    uint8_t kind = 0;
    uint64_t seq = 0;
    FrameHeader hdr;
    if (!dec.GetU8(&kind).ok() || !dec.GetFixed64(&seq).ok() ||
        !FrameHeader::DecodeFrom(&dec, &hdr).ok()) {
      break;
    }
    if (kind != kKindPost && kind != kKindCall) break;
    if (hdr.payload_size > options_.max_frame_bytes) {
      HG_LOG(ERROR) << "tcp frame too large at node " << node << ": "
                    << hdr.payload_size << " > " << options_.max_frame_bytes;
      break;
    }
    payload.resize(hdr.payload_size);
    if (hdr.payload_size > 0 &&
        !ReadExact(fd, payload.data(), payload.size()).ok()) {
      break;
    }

    std::vector<uint8_t> response_frame;
    bool protocol_violation = false;
    {
      std::lock_guard<std::mutex> lock(dispatch_mutex_);
      DedupState& dedup = dedup_[{hdr.src, hdr.dst}];
      if (seq == dedup.last_seq) {
        // Retransmit of the frame we just executed (its response was lost):
        // answer from the cache, never re-run the handler.
        response_frame = dedup.last_response;
      } else if (seq < dedup.last_seq) {
        // The channel mutex serializes senders, so only the newest frame can
        // ever be retried; an older seq means a corrupt or misbehaving peer.
        protocol_violation = true;
      } else {
        Buffer response;
        // Handler errors are application outcomes: encode them into the
        // response (and the dedup cache) instead of killing the connection,
        // so the caller sees the Status exactly once and never retries it.
        const Status st =
            Dispatch(hdr, Slice(payload.data(), payload.size()), &response);
        EncodeResponseFrame(st, response, &response_frame);
        dedup.last_seq = seq;
        dedup.last_response = response_frame;
      }
    }
    if (protocol_violation) {
      HG_LOG(ERROR) << "tcp out-of-order seq at node " << node;
      break;
    }
    // Test seam: "tcp.server_close" models a peer that dies after executing
    // the request but before the response reaches the caller — the classic
    // case exactly-once dedup exists for.
    if (!FailPointCheck("tcp.server_close").ok()) break;
    if (!WriteExact(fd, response_frame.data(), response_frame.size()).ok()) {
      break;
    }
  }
  ::close(fd);
}

Status TcpTransport::ConnectChannel(Channel* ch, NodeId dst) {
  if (ch->fd >= 0) return Status::OK();
  const int s = ::socket(AF_INET, SOCK_STREAM, 0);
  if (s < 0) return Status::NetworkError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(ports_[dst]);
  if (::connect(s, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(s);
    return Status::NetworkError(
        StringFormat("connect to node %u: %s", dst, strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(s, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.call_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.call_timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(options_.call_timeout_ms % 1000) * 1000;
    ::setsockopt(s, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ch->fd = s;
  if (ch->ever_connected) reconnects_.fetch_add(1, std::memory_order_relaxed);
  ch->ever_connected = true;
  return Status::OK();
}

void TcpTransport::CloseChannel(Channel* ch) {
  if (ch->fd >= 0) {
    ::close(ch->fd);
    ch->fd = -1;
  }
}

Status TcpTransport::TrySend(Channel* ch, NodeId dst, Slice frame,
                             std::vector<uint8_t>* response_frame) {
  // Simulated mid-flight drop: the frame never reaches the peer, exactly as
  // if the connection died — the retry path must recover.
  Status fp = FailPointCheck("tcp.drop");
  if (!fp.ok()) {
    CloseChannel(ch);
    return fp;
  }
  HG_RETURN_IF_ERROR(ConnectChannel(ch, dst));
  HG_RETURN_IF_ERROR(WriteExact(ch->fd, frame.data(), frame.size()));

  uint8_t prefix[kResponsePrefixSize];
  HG_RETURN_IF_ERROR(ReadExact(ch->fd, prefix, sizeof(prefix)));
  Decoder dec(Slice(prefix, sizeof(prefix)));
  uint8_t code = 0;
  uint32_t len = 0;
  HG_RETURN_IF_ERROR(dec.GetU8(&code));
  HG_RETURN_IF_ERROR(dec.GetFixed32(&len));
  if (len > options_.max_frame_bytes) {
    return Status::NetworkError("oversized response frame");
  }
  response_frame->resize(kResponsePrefixSize + len);
  std::memcpy(response_frame->data(), prefix, kResponsePrefixSize);
  if (len > 0) {
    HG_RETURN_IF_ERROR(
        ReadExact(ch->fd, response_frame->data() + kResponsePrefixSize, len));
  }
  return Status::OK();
}

Status TcpTransport::SendFrame(NodeId src, NodeId dst, RpcMethod method,
                               Slice payload, bool is_call,
                               std::vector<uint8_t>* response) {
  if (src >= num_nodes_ || dst >= num_nodes_) {
    return Status::InvalidArgument("node id out of range");
  }
  if (!started_.load()) return Status::FailedPrecondition("Start() first");
  if (FrameHeader::kEncodedSize + payload.size() > options_.max_frame_bytes) {
    return Status::InvalidArgument(
        StringFormat("frame of %zu bytes exceeds max_frame_bytes %u",
                     payload.size(), options_.max_frame_bytes));
  }

  // Publish the caller's writes to the server thread (paired with the
  // dispatch lock acquisition there).
  { std::lock_guard<std::mutex> lock(dispatch_mutex_); }

  Channel& ch = channels_[static_cast<size_t>(src) * num_nodes_ + dst];
  std::lock_guard<std::mutex> channel_lock(ch.mutex);

  Buffer frame;
  Encoder enc(&frame);
  enc.PutU8(is_call ? kKindCall : kKindPost);
  enc.PutFixed64(ch.next_seq++);
  FrameHeader hdr{src, dst, method, static_cast<uint32_t>(payload.size())};
  hdr.EncodeTo(&enc);
  enc.PutRaw(payload.data(), payload.size());

  std::vector<uint8_t> response_frame;
  Status attempt_status;
  for (uint32_t attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      // Exponential backoff with seeded jitter in [delay/2, delay): the whole
      // schedule is a deterministic function of (seed, channel, attempt
      // sequence).
      uint64_t delay_us = options_.backoff_base_us;
      delay_us <<= (attempt - 1 < 20 ? attempt - 1 : 20);
      if (delay_us > options_.backoff_max_us) delay_us = options_.backoff_max_us;
      if (delay_us > 1) {
        delay_us = delay_us / 2 + ch.jitter.NextBounded(delay_us / 2);
      }
      if (delay_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
      }
    }
    attempt_status = TrySend(&ch, dst, frame.AsSlice(), &response_frame);
    if (attempt_status.ok()) break;
    if (IsTimeout(attempt_status)) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
    }
    // A failed exchange leaves the connection in an unknown framing state;
    // drop it so the next attempt reconnects and the receiver dedups by seq.
    CloseChannel(&ch);
  }
  if (!attempt_status.ok()) {
    return Status::NetworkError(StringFormat(
        "send to node %u failed after %u attempts: %s", dst,
        options_.max_retries + 1, attempt_status.message().c_str()));
  }

  Decoder dec(Slice(response_frame.data(), response_frame.size()));
  uint8_t code = 0;
  uint32_t len = 0;
  HG_RETURN_IF_ERROR(dec.GetU8(&code));
  HG_RETURN_IF_ERROR(dec.GetFixed32(&len));
  Slice body;
  HG_RETURN_IF_ERROR(dec.GetRaw(len, &body));
  if (code != static_cast<uint8_t>(StatusCode::kOk)) {
    return Status(static_cast<StatusCode>(code),
                  std::string(reinterpret_cast<const char*>(body.data()),
                              body.size()));
  }

  // Meter exactly once per *logical* frame, after success: retries are
  // counted separately and do not change modeled traffic, keeping TCP runs
  // byte-identical to the in-process transport.
  const bool metered = ShouldMeter(src, dst);
  if (metered) MeterFrame(src, dst, FrameHeader::kEncodedSize + payload.size());
  if (is_call) {
    response->assign(body.data(), body.data() + body.size());
    if (metered) MeterFrame(dst, src, FrameHeader::kEncodedSize + len);
  }
  // Pull the handler's writes back into the caller thread.
  { std::lock_guard<std::mutex> lock(dispatch_mutex_); }
  return Status::OK();
}

Status TcpTransport::Post(NodeId src, NodeId dst, RpcMethod method,
                          Slice payload) {
  return SendFrame(src, dst, method, payload, /*is_call=*/false, nullptr);
}

Status TcpTransport::Call(NodeId src, NodeId dst, RpcMethod method,
                          Slice payload, std::vector<uint8_t>* response) {
  return SendFrame(src, dst, method, payload, /*is_call=*/true, response);
}

TransportFaultCounters TcpTransport::fault_counters() const {
  TransportFaultCounters c;
  c.retries = retries_.load(std::memory_order_relaxed);
  c.timeouts = timeouts_.load(std::memory_order_relaxed);
  c.reconnects = reconnects_.load(std::memory_order_relaxed);
  return c;
}

void TcpTransport::Shutdown() {
  if (!started_.load()) return;
  stopping_.store(true);
  const size_t n = static_cast<size_t>(num_nodes_) * num_nodes_;
  for (size_t i = 0; i < n; ++i) {
    std::lock_guard<std::mutex> lock(channels_[i].mutex);
    if (channels_[i].fd >= 0) {
      ::shutdown(channels_[i].fd, SHUT_RDWR);
      ::close(channels_[i].fd);
      channels_[i].fd = -1;
    }
  }
  // shutdown() wakes each ServeNode blocked in accept(); the fds are closed
  // and reset only after those threads have exited, since they read
  // listen_fds_ until then.
  for (int fd : listen_fds_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& t : server_threads_) {
    if (t.joinable()) t.join();
  }
  server_threads_.clear();
  for (int& fd : listen_fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  started_.store(false);
}

}  // namespace hybridgraph
