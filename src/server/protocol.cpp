#include "server/protocol.hpp"

#include <cstring>

namespace altx::server {

namespace {

/// Re-throws ByteReader truncation (UsageError) as ProtocolError so a
/// malformed payload is attributable to the peer, not to API misuse.
template <typename Fn>
auto guard_decode(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const ProtocolError&) {
    throw;
  } catch (const UsageError& e) {
    throw ProtocolError(std::string(what) + ": " + e.what());
  }
}

bool valid_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kPong);
}

}  // namespace

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kSubmit: return "submit";
    case FrameType::kResult: return "result";
    case FrameType::kDeny: return "deny";
    case FrameType::kCancel: return "cancel";
    case FrameType::kStats: return "stats";
    case FrameType::kStatsReply: return "stats_reply";
    case FrameType::kPing: return "ping";
    case FrameType::kPong: return "pong";
  }
  return "?";
}

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kWon: return "won";
    case JobStatus::kAllFailed: return "all_failed";
    case JobStatus::kTimeout: return "timeout";
    case JobStatus::kCanceled: return "canceled";
    case JobStatus::kDenied: return "denied";
    case JobStatus::kError: return "error";
  }
  return "?";
}

Bytes encode_frame(const Frame& frame) {
  ALTX_REQUIRE(frame.payload.size() <= kMaxFramePayload,
               "encode_frame: payload exceeds kMaxFramePayload");
  Bytes out;
  out.reserve(kFrameHeaderBytes + frame.payload.size());
  ByteWriter w(out);
  w.u32(kFrameMagic);
  w.u8(kProtoVersion);
  w.u8(static_cast<std::uint8_t>(frame.type));
  w.u8(static_cast<std::uint8_t>(frame.flags & 0xff));
  w.u8(static_cast<std::uint8_t>(frame.flags >> 8));
  w.u64(frame.job_id);
  w.u32(static_cast<std::uint32_t>(frame.payload.size()));
  w.u64(frame.trace_id);
  w.u64(frame.span_id);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

void FrameDecoder::feed(const void* data, std::size_t n) {
  // Reclaim the consumed prefix before growing; keeps the buffer bounded
  // by one partial frame plus whatever the last read() returned.
  if (consumed_ > 0 && consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  } else if (consumed_ >= (16u << 10)) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

std::optional<Frame> FrameDecoder::next() {
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return std::nullopt;
  ByteReader r(buf_.data() + consumed_, avail);
  const std::uint32_t magic = r.u32();
  if (magic != kFrameMagic) {
    throw ProtocolError("frame: bad magic");
  }
  const std::uint8_t version = r.u8();
  if (version != kProtoVersion) {
    throw ProtocolError("frame: protocol version " + std::to_string(version) +
                        ", expected " + std::to_string(kProtoVersion));
  }
  const std::uint8_t type = r.u8();
  if (!valid_type(type)) {
    throw ProtocolError("frame: unknown type " + std::to_string(type));
  }
  const std::uint16_t flags = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(r.u8()) |
      (static_cast<std::uint16_t>(r.u8()) << 8));
  const std::uint64_t job_id = r.u64();
  const std::uint32_t payload_len = r.u32();
  if (payload_len > kMaxFramePayload) {
    throw ProtocolError("frame: payload " + std::to_string(payload_len) +
                        " bytes exceeds cap");
  }
  const std::uint64_t trace_id = r.u64();
  const std::uint64_t span_id = r.u64();
  if (avail < kFrameHeaderBytes + payload_len) return std::nullopt;
  Frame f;
  f.type = static_cast<FrameType>(type);
  f.flags = flags;
  f.job_id = job_id;
  f.trace_id = trace_id;
  f.span_id = span_id;
  const std::uint8_t* body = buf_.data() + consumed_ + kFrameHeaderBytes;
  f.payload.assign(body, body + payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  return f;
}

std::size_t FrameDecoder::buffered() const noexcept {
  return buf_.size() - consumed_;
}

Bytes encode_job(const JobSpec& spec) {
  Bytes out;
  ByteWriter w(out);
  w.u32(spec.timeout_ms);
  w.u64(spec.site_id);
  w.u32(spec.heap_pages);
  w.u64(spec.queue_ns);
  w.u64(spec.claim);
  w.u32(static_cast<std::uint32_t>(spec.arms.size()));
  for (const JobArm& arm : spec.arms) {
    w.str(arm.handler);
    w.blob(arm.args.data(), arm.args.size());
  }
  return out;
}

JobSpec decode_job(const Bytes& payload) {
  return guard_decode("job spec", [&] {
    ByteReader r(payload);
    JobSpec spec;
    spec.timeout_ms = r.u32();
    spec.site_id = r.u64();
    spec.heap_pages = r.u32();
    spec.queue_ns = r.u64();
    spec.claim = r.u64();
    const std::uint32_t n = r.u32();
    if (n == 0 || n > kMaxArms) {
      throw ProtocolError("job spec: " + std::to_string(n) +
                          " arms (1.." + std::to_string(kMaxArms) +
                          " allowed)");
    }
    spec.arms.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      JobArm arm;
      arm.handler = r.str();
      if (arm.handler.empty() || arm.handler.size() > kMaxHandlerName) {
        throw ProtocolError("job spec: bad handler name length " +
                            std::to_string(arm.handler.size()));
      }
      arm.args = r.blob();
      spec.arms.push_back(std::move(arm));
    }
    if (!r.done()) {
      throw ProtocolError("job spec: trailing bytes");
    }
    return spec;
  });
}

Bytes encode_outcome(const JobOutcome& outcome) {
  Bytes out;
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(outcome.status));
  w.u32(outcome.winner);
  w.blob(outcome.value.data(), outcome.value.size());
  w.u64(outcome.queue_ns);
  w.u64(outcome.exec_ns);
  w.u32(outcome.retry_after_ms);
  w.str(outcome.error);
  return out;
}

JobOutcome decode_outcome(const Bytes& payload) {
  return guard_decode("job outcome", [&] {
    ByteReader r(payload);
    JobOutcome o;
    const std::uint8_t status = r.u8();
    if (status > static_cast<std::uint8_t>(JobStatus::kError)) {
      throw ProtocolError("job outcome: unknown status " +
                          std::to_string(status));
    }
    o.status = static_cast<JobStatus>(status);
    o.winner = r.u32();
    o.value = r.blob();
    o.queue_ns = r.u64();
    o.exec_ns = r.u64();
    o.retry_after_ms = r.u32();
    o.error = r.str();
    if (!r.done()) {
      throw ProtocolError("job outcome: trailing bytes");
    }
    return o;
  });
}

Bytes encode_stats(const WireStats& stats) {
  Bytes out;
  ByteWriter w(out);
  w.u64(stats.accepted);
  w.u64(stats.completed);
  w.u64(stats.denied);
  w.u64(stats.canceled);
  w.u64(stats.worker_spawns);
  w.u64(stats.worker_respawns);
  w.u64(stats.tokens_reclaimed);
  w.u64(stats.inflight_hw);
  w.u32(stats.queued);
  w.u32(stats.running);
  w.u32(stats.clients);
  w.u32(stats.workers_idle);
  w.u32(stats.workers_busy);
  return out;
}

WireStats decode_stats(const Bytes& payload) {
  return guard_decode("stats", [&] {
    ByteReader r(payload);
    WireStats s;
    s.accepted = r.u64();
    s.completed = r.u64();
    s.denied = r.u64();
    s.canceled = r.u64();
    s.worker_spawns = r.u64();
    s.worker_respawns = r.u64();
    s.tokens_reclaimed = r.u64();
    s.inflight_hw = r.u64();
    s.queued = r.u32();
    s.running = r.u32();
    s.clients = r.u32();
    s.workers_idle = r.u32();
    s.workers_busy = r.u32();
    if (!r.done()) {
      throw ProtocolError("stats: trailing bytes");
    }
    return s;
  });
}

}  // namespace altx::server
