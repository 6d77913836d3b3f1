// Wire frame codec of the campaign worker fabric (docs/DISTRIBUTED.md).
//
// The campaign supervisor speaks one length-prefixed frame protocol to
// every worker; this header is its transport-independent codec, so the
// same frames flow over a socketpair to a fork()ed worker or over TCP to
// a remote tmemo_workerd. Everything here is framing and payload layout
// only — no sockets, no campaign state — so the supervisor and the worker
// job loop (sim/worker_proc.cpp, which forked workers and net/workerd.cpp
// both run) and the libFuzzer harness (tests/fuzz/fuzz_frame_decoder.cpp)
// all consume one decoder.
//
// Frame grammar (protocol v2; FrameHeader is the u32 length prefix from
// common/pod_io.hpp). Every post-handshake frame in either direction opens
// with one type byte, so both ends dispatch on it uniformly:
//   supervisor -> worker : JobDispatchFrame{kJobDispatch}
//   supervisor -> worker : EventFrameHeader{kPing}      liveness probe
//   supervisor -> worker : EventFrameHeader{kGoodbye}   campaign complete
//   worker -> supervisor : EventFrameHeader{kJobStarted}          heartbeat
//   worker -> supervisor : EventFrameHeader{kJobDone} + u64 body digest
//                          + sized_string journal_csv_row + u8 has_metrics
//                          [+ packed MetricsSnapshot]
//   worker -> supervisor : EventFrameHeader{kPong}      ping echo
//   worker -> supervisor : EventFrameHeader{kGoodbye}   graceful drain
//
// Every fixed header carries a 32-bit self-check and the result frame a
// 64-bit digest of its variable body (FNV-1a, frame_digest below), so a
// frame corrupted in flight — a flipped bit that still parses, which a
// CSV result row happily survives — is rejected as a protocol violation
// instead of silently poisoning the campaign grid. The length prefix alone
// cannot catch this: corruption that preserves the length is invisible to
// framing.
// TCP workers additionally open with a registration handshake:
//   worker -> supervisor : HelloFrame   (magic, protocol version,
//                          capability flags, campaign digest, job count)
//   supervisor -> worker : HelloAckFrame (accept/reject + reason, retry
//                          budget and metrics capability for the session)
//
// Byte order is host order: both ends of a socketpair share one machine,
// and the TCP fabric assumes a homogeneous (same-ABI) cluster — the
// HelloFrame magic doubles as an endianness canary, so a foreign peer is
// rejected at registration instead of mis-parsing frames. Every struct
// below crosses the wire whole through write_pod/read_pod, so the struct
// layout *is* the wire format: fixed-width fields only, no padding bytes
// anywhere (lint rule R9 checks both against the computed layout; the
// static_asserts pin them at compile time).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>

#include "common/pod_io.hpp"
#include "telemetry/metrics.hpp"

namespace tmemo::net {

// ---------------------------------------------------------------------------
// Protocol constants.

/// Frame-size ceiling: a corrupt or hostile length prefix must not drive a
/// huge allocation in the receiver (satellite of PR 5's trace hardening).
inline constexpr std::uint32_t kMaxFrameBytes = 256u << 20;

/// Pre-registration ceiling: until a TCP peer passes the handshake it is
/// fully untrusted, and nothing it legitimately sends exceeds a HelloFrame,
/// so cap its frames far below kMaxFrameBytes.
inline constexpr std::uint32_t kMaxHandshakeFrameBytes = 1024;

/// Version of the dispatch/heartbeat/result frame grammar. Bumped on any
/// layout change; supervisor and workerd refuse to pair across versions.
/// v2: every post-handshake frame opens with a type byte (JobDispatchFrame
/// grew its kJobDispatch prefix), added the kPing/kPong liveness probes
/// plus the kGoodbye clean-shutdown/drain frame, and made frames
/// self-checking: a u32 header check plus a u64 body digest on results.
inline constexpr std::uint16_t kProtocolVersion = 2;

/// First bytes of a HelloFrame ("tmWk" on a little-endian host). A peer
/// with a different ABI or byte order fails this check immediately.
inline constexpr std::uint32_t kHelloMagic = 0x6b576d74u;
/// First bytes of a HelloAckFrame ("tmAk" little-endian).
inline constexpr std::uint32_t kHelloAckMagic = 0x6b416d74u;

/// Frame types (first byte of every post-handshake frame, both
/// directions). Any other value is a protocol violation;
/// decode_event_header rejects it before the payload is touched. The
/// direction column is part of the protocol: a kPing from a worker or a
/// kJobDispatch sent to the supervisor is a violation too, enforced by the
/// respective frame handlers.
inline constexpr std::uint8_t kJobStarted = 1;  ///< w->s heartbeat
inline constexpr std::uint8_t kJobDone = 2;     ///< w->s result frame
inline constexpr std::uint8_t kJobDispatch = 3; ///< s->w one job dispatch
inline constexpr std::uint8_t kPing = 4;  ///< s->w liveness probe (seq in
                                          ///< the u64 field, echoed back)
inline constexpr std::uint8_t kPong = 5;  ///< w->s ping echo
inline constexpr std::uint8_t kGoodbye = 6; ///< either direction: clean
                                            ///< shutdown (supervisor:
                                            ///< campaign complete; worker:
                                            ///< graceful drain)
inline constexpr std::uint8_t kEventTypeMax = kGoodbye;

/// HelloFrame / HelloAckFrame capability bits. In the ack they mirror the
/// campaign's SweepSpec::metrics / SweepSpec::timeline exactly, so a remote
/// worker expands the same per-job RunSpecs a forked worker inherits and
/// the merged campaign metrics stay bit-identical across isolation modes.
inline constexpr std::uint16_t kCapMetrics = 1u << 0;  ///< per-job metrics
inline constexpr std::uint16_t kCapTimeline = 1u << 1; ///< job-0 timeline

/// HelloAckFrame::reason values for rejected registrations.
enum class HelloReject : std::uint32_t {
  kAccepted = 0,
  kBadMagic = 1,          ///< not a HelloFrame (or foreign endianness/ABI)
  kProtocolMismatch = 2,  ///< speaks another kProtocolVersion
  kCampaignMismatch = 3,  ///< registered for a different campaign/config
  kJobCountMismatch = 4,  ///< expanded a different grid (spec drift)
};

/// Human-readable reject reason for logs and diagnostics.
[[nodiscard]] std::string_view hello_reject_name(HelloReject r) noexcept;

// ---------------------------------------------------------------------------
// Fixed-layout frame payloads.

/// Supervisor -> worker: one job dispatch. Opens with the kJobDispatch
/// type byte (protocol v2) so the worker can tell a dispatch from a
/// control frame (kPing/kGoodbye) before parsing further. `check` is the
/// header self-check (header_check below, computed with the field zeroed);
/// decode_dispatch rejects a mismatch, so a bit flipped anywhere in the
/// frame — type, job index or start attempt — cannot mis-dispatch a job.
struct JobDispatchFrame {
  std::uint8_t type = kJobDispatch;
  std::uint8_t reserved0[3] = {}; ///< explicit, so no byte is uninitialized
  std::uint32_t check = 0;        ///< self-check; see header_check
  std::uint64_t job = 0;          ///< index into the campaign's job list
  std::int32_t start_attempt = 1; ///< resume the retry loop here
  std::int32_t reserved = 0;      ///< explicit, so no byte is uninitialized
};
static_assert(std::is_trivially_copyable_v<JobDispatchFrame> &&
                  sizeof(JobDispatchFrame) == 24,
              "pod_io wire layout");

/// Fixed prefix of every control/event frame in either direction
/// (heartbeat, result, ping, pong, goodbye; the result frame appends its
/// variable payload). The u64 field carries the job index for job events,
/// the echo sequence number for kPing/kPong, and the served-job count for
/// a worker's kGoodbye. `check` is the header self-check (header_check,
/// computed with the field zeroed); decode_event_header rejects a
/// mismatch, so a single flipped bit cannot turn one control frame into
/// another (a kPing reading as kGoodbye would end a session early).
struct EventFrameHeader {
  std::uint8_t type = 0;         ///< kJobStarted .. kGoodbye
  std::uint8_t reserved[3] = {}; ///< explicit, so no byte is uninitialized
  std::uint32_t check = 0;       ///< self-check; see header_check
  std::uint64_t job = 0;         ///< job index / ping seq / drain count
};
static_assert(std::is_trivially_copyable_v<EventFrameHeader> &&
                  sizeof(EventFrameHeader) == 16,
              "pod_io wire layout");

/// Remote worker -> supervisor: the registration handshake, sent as the
/// first frame after connect. The campaign digest binds the session to one
/// campaign identity (fingerprint + variant configs, see
/// campaign_wire_digest); the job count is a cheap second opinion that both
/// ends expanded the same grid.
struct HelloFrame {
  std::uint32_t magic = kHelloMagic;
  std::uint16_t protocol = kProtocolVersion;
  std::uint16_t capabilities = kCapMetrics;
  std::uint64_t campaign_digest = 0;
  std::uint64_t job_count = 0;
};
static_assert(std::is_trivially_copyable_v<HelloFrame> &&
                  sizeof(HelloFrame) == 24,
              "pod_io wire layout");

/// Supervisor -> remote worker: registration verdict. On accept it also
/// pins the session parameters a forked worker would have inherited through
/// fork(): the retry budget and whether results must carry metrics.
struct HelloAckFrame {
  std::uint32_t magic = kHelloAckMagic;
  std::uint16_t protocol = kProtocolVersion;
  std::uint16_t accepted = 0;     ///< 1 = registered, 0 = rejected
  std::uint32_t reason = 0;       ///< HelloReject when rejected
  std::int32_t max_attempts = 1;  ///< per-job retry budget
  std::uint16_t capabilities = 0; ///< kCapMetrics: ship MetricsSnapshots
  std::uint8_t reserved[6] = {};  ///< explicit, so no byte is uninitialized
};
static_assert(std::is_trivially_copyable_v<HelloAckFrame> &&
                  sizeof(HelloAckFrame) == 24,
              "pod_io wire layout");

// ---------------------------------------------------------------------------
// EINTR-safe fd I/O (pipes and sockets; blocking or O_NONBLOCK fds).

/// Writes all of [data, data+n). Retries EINTR; on EAGAIN (a nonblocking
/// socket with a full send buffer) waits for POLLOUT and resumes. False on
/// any other error (EPIPE/ECONNRESET when the peer died; the caller decides
/// what that means).
[[nodiscard]] bool write_all(int fd, const char* data, std::size_t n);

/// Blocking exact read. False on EOF or error.
[[nodiscard]] bool read_exact(int fd, char* data, std::size_t n);

/// Writes one length-prefixed frame. False when the payload exceeds
/// kMaxFrameBytes or on any I/O error.
[[nodiscard]] bool write_frame(int fd, const std::string& payload);

/// Blocking read of one length-prefixed frame, validating the declared
/// length against `max_bytes` before allocating. False on EOF, error or an
/// oversized/corrupt length prefix.
[[nodiscard]] bool read_frame(int fd, std::string& payload,
                              std::uint32_t max_bytes = kMaxFrameBytes);

// ---------------------------------------------------------------------------
// Incremental frame reassembly (the supervisor's nonblocking read path).

/// Reassembles length-prefixed frames from an arbitrarily chunked byte
/// stream. The length prefix is validated against the ceiling *before* the
/// payload is materialized, so a hostile peer cannot drive a huge
/// allocation with four bytes.
class FrameBuffer {
 public:
  explicit FrameBuffer(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_(max_frame_bytes) {}

  void append(const char* data, std::size_t n) { buf_.append(data, n); }

  enum class Next {
    kFrame,    ///< one complete frame extracted into `payload`
    kNeedMore, ///< no complete frame buffered yet
    kOversize, ///< declared length exceeds the ceiling: protocol violation
  };

  /// Extracts the next complete frame, if any.
  [[nodiscard]] Next next(std::string& payload);

  [[nodiscard]] bool empty() const noexcept { return buf_.empty(); }
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size(); }

  /// Surrenders the raw buffered bytes (the supervisor moves a peer's
  /// pipelined post-handshake bytes into its worker slot).
  [[nodiscard]] std::string take_buffered() { return std::move(buf_); }

 private:
  std::string buf_;
  std::uint32_t max_;
};

// ---------------------------------------------------------------------------
// Frame integrity (protocol v2).

/// FNV-1a 64-bit over a byte range: the digest behind every header
/// self-check and result-body digest. Not cryptographic — the threat model
/// is in-flight corruption (a flaky link, a chaos injector, a buggy
/// middlebox), not an adversary forging frames; any single flipped bit
/// changes the digest.
[[nodiscard]] std::uint64_t frame_digest(const char* data,
                                         std::size_t n) noexcept;
[[nodiscard]] inline std::uint64_t frame_digest(
    const std::string& bytes) noexcept {
  return frame_digest(bytes.data(), bytes.size());
}

/// Self-check value of a fixed frame header: frame_digest over the struct
/// bytes with the `check` field zeroed, folded to 32 bits. The encoders
/// stamp it; the decoders verify it.
[[nodiscard]] std::uint32_t header_check(EventFrameHeader hdr) noexcept;
[[nodiscard]] std::uint32_t header_check(JobDispatchFrame frame) noexcept;

/// Byte offset of a result frame's variable body: the fixed header plus
/// the u64 body digest.
inline constexpr std::size_t kResultBodyOffset =
    sizeof(EventFrameHeader) + sizeof(std::uint64_t);

// ---------------------------------------------------------------------------
// Payload encode/decode.

[[nodiscard]] std::string encode_hello(const HelloFrame& hello);
[[nodiscard]] std::string encode_hello_ack(const HelloAckFrame& ack);

/// Decodes a HelloFrame payload. False when the payload size or magic is
/// wrong (a foreign or hostile peer); version/digest checks are the
/// caller's, so it can answer with a precise reject reason.
[[nodiscard]] bool decode_hello(const std::string& payload, HelloFrame& out);

/// Decodes a HelloAckFrame payload (workerd side). False on size or magic
/// mismatch.
[[nodiscard]] bool decode_hello_ack(const std::string& payload,
                                    HelloAckFrame& out);

/// Decodes and validates the fixed event-frame prefix: payload must be at
/// least sizeof(EventFrameHeader), the type must be a known event type and
/// the header self-check must match (a corrupted header is a protocol
/// violation, not a different frame).
[[nodiscard]] bool decode_event_header(const std::string& payload,
                                       EventFrameHeader& out);

/// Encodes one bare control frame (kPing / kPong / kGoodbye / kJobStarted
/// heartbeat) as its EventFrameHeader payload, self-check stamped.
[[nodiscard]] std::string encode_event(std::uint8_t type, std::uint64_t arg);

/// Encodes a supervisor->worker JobDispatchFrame, self-check stamped.
[[nodiscard]] std::string encode_dispatch(std::uint64_t job,
                                          std::int32_t start_attempt);

/// Decodes a supervisor->worker JobDispatchFrame: the payload must be
/// exactly sizeof(JobDispatchFrame), open with the kJobDispatch type byte
/// and carry a matching self-check. Range checks on job/start_attempt stay
/// with the caller, which knows the campaign.
[[nodiscard]] bool decode_dispatch(const std::string& payload,
                                   JobDispatchFrame& out);

/// Encodes a worker->supervisor result frame: EventFrameHeader{kJobDone}
/// + u64 digest of `body` + `body` (the serialized row, metrics flag and
/// optional packed snapshot).
[[nodiscard]] std::string encode_result_frame(std::uint64_t job,
                                              const std::string& body);

/// Verifies a kJobDone payload's body digest (the u64 after the header
/// against the bytes that follow it). A mismatch means the frame was
/// corrupted in flight: the row may still parse — a flipped digit in an
/// energy column is valid CSV — so the digest, not the parser, is the
/// gatekeeper. False also when the payload is too short to hold a digest.
[[nodiscard]] bool verify_result_body(const std::string& payload) noexcept;

/// First byte of a post-handshake frame, or 0 for an empty payload (0 is
/// not a valid frame type, so callers can dispatch on the return alone).
[[nodiscard]] inline std::uint8_t peek_frame_type(
    const std::string& payload) noexcept {
  return payload.empty() ? 0
                         : static_cast<std::uint8_t>(
                               static_cast<unsigned char>(payload[0]));
}

// ---------------------------------------------------------------------------
// MetricsSnapshot over the wire. Every instrument value is uint64
// (telemetry/metrics.hpp), so the snapshot crosses the process boundary
// exactly and the campaign fold stays bit-identical to thread isolation.

void pack_metrics_snapshot(std::ostream& os,
                           const telemetry::MetricsSnapshot& s);

/// False on truncated input or an implausible (hostile) entry count.
[[nodiscard]] bool unpack_metrics_snapshot(std::istream& is,
                                           telemetry::MetricsSnapshot& s);

} // namespace tmemo::net
