// The cluster wire protocol: length-prefixed frames over local sockets.
//
// The router and its worker processes exchange self-delimiting frames:
//
//   bytes 0..3   magic "TDF4" (TDF1 and TDF2 carried retired ablation
//                flags in the job config line, TDF3 text job and result
//                payloads — an older peer fails at the header)
//   byte  4      frame type (FrameType)
//   bytes 5..7   reserved, must be zero
//   bytes 8..11  payload length, little-endian (capped at kMaxFramePayload)
//   bytes 12..19 payload content hash, little-endian (HashBytes128 low lane)
//   bytes 20..   payload
//
// Job and result payloads are versioned little-endian binary records of
// fixed-width fields (doubles travel bit-cast) and length-prefixed byte
// strings. A job carries the solver config field by field, the schema's
// attribute names, and each dependency as row counts, per-attribute
// variable counts and rows of variable ids as logic/tableau.h numbers
// them, without variable names (the worker rebuilds every
// dependency through Dependency::Builder, which validates it, and names
// each variable by its id). Only variables that occur in a row are sent,
// renumbered densely per attribute in id order, so no attribute has more
// variables than its dependency has rows. The worker never parses text, and
// it keeps no cache, so the job carries no fingerprint: the router's front
// door does all the caching. A job always travels whole and is answered by
// one result; no chase state crosses the wire.
//
// Every decoder treats its input as untrusted: bad magic, an oversized
// length, a hash mismatch, a truncated stream or a malformed payload all
// yield typed ErrorCode::kCorrupt results — never UB or an unchecked
// allocation. No count is trusted beyond the bytes left to back it
// (tests/serialization_corrupt_test.cc sweeps this surface).
// The socket read/write/corrupt paths are wired into util/fault.h
// (cluster.socket-read, cluster.socket-write, cluster.frame-corrupt), so
// the fault plane can force every failure mode deterministically.
#ifndef TDLIB_CLUSTER_WIRE_H_
#define TDLIB_CLUSTER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "engine/job.h"
#include "util/status.h"

namespace tdlib {

/// Frame vocabulary. Router -> worker: kJob, kPing, kShutdown, kCancel.
/// Worker -> router: kHello, kPong, kResult.
enum class FrameType : std::uint8_t {
  kHello = 1,   ///< worker is up: "tdhello <pid> <kWireProtocolVersion>"
  kPing = 2,    ///< heartbeat probe (seq)
  kPong = 3,    ///< heartbeat answer (echoed seq)
  kJob = 4,     ///< one job assignment (id, priority, config,
                ///  dependencies); a worker holds a few at once and runs
                ///  them in priority order, FIFO within one
  kResult = 5,  ///< terminal outcome of an assigned job
  kShutdown = 6, ///< drain and exit cleanly
  kCancel = 7   ///< stop an assigned job (decimal job id): a running one
                ///  has its solver's cancel flag raised and answers with
                ///  the truncated result as usual; a queued one leaves the
                ///  worker's queue and is answered kCancelled at once
};

/// Largest payload a frame may declare: a cap on an untrusted length, not
/// a size any frame approaches (a job frame grows with its dependencies'
/// rows, a result frame with the job name). 64 MiB is low enough that a
/// corrupted length field cannot provoke a huge allocation.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

/// Header size in bytes (see the file comment for the layout).
inline constexpr std::size_t kFrameHeaderSize = 20;

/// The protocol version a worker announces in its hello (2: binary job and
/// result payloads in TDF4 frames; 3: results name the running job; 4: the
/// job config drops two retired chase flags; 5: jobs and results drop the
/// probe budget, the parked flag and the session block; 6: jobs drop the
/// canonical fingerprint).
inline constexpr int kWireProtocolVersion = 6;

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kHello;
  std::string payload;
};

/// Renders header + payload. Pure; never fails.
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Decodes one complete frame from `bytes`. On success *consumed is the
/// total frame size (header + payload). Truncated input, bad magic, an
/// unknown type, an over-cap length and a payload-hash mismatch are all
/// ErrorCode::kCorrupt.
Result<Frame> DecodeFrame(std::string_view bytes, std::size_t* consumed);

// ---- Payload codecs --------------------------------------------------------

/// A job assignment as it travels router -> worker.
struct WireJob {
  /// Job carries a builder-only Dependency, so a WireJob always starts
  /// from a complete Job value.
  explicit WireJob(Job j) : job(std::move(j)) {}

  std::uint64_t job_id = 0;
  Job job;
};

/// The worker's answer to a kJob frame.
struct WireResult {
  std::uint64_t job_id = 0;

  /// The job the worker's solver is on as this frame leaves: the one it
  /// took up next, or 0 when it went idle (the next job to reach it then
  /// starts at once). The router charges a crash to this job.
  std::uint64_t running_job_id = 0;

  JobResult result;
};

/// Renders a kJob payload for `job` run under `config` at `priority`
/// (which replace job.config and job.priority on the wire). The router
/// encodes its queued runs through this directly; the WireJob overload
/// forwards to it.
std::string EncodeJobPayload(std::uint64_t job_id, int priority,
                             const Job& job, const DualSolverConfig& config);

/// Renders/parses a WireJob payload (for a FrameType::kJob frame). The
/// decoded job keeps every variable id, row and config field; a variable
/// is named by its decimal id, which leaves every deterministic result
/// field unchanged (the renaming-invariance contract behind
/// cache/canonical.h). Dependency names are not sent.
std::string EncodeJobPayload(const WireJob& wire_job);
Result<WireJob> DecodeJobPayload(std::string_view payload);

/// Renders/parses a WireResult payload (for a FrameType::kResult frame).
std::string EncodeResultPayload(const WireResult& wire_result);
Result<WireResult> DecodeResultPayload(std::string_view payload);

// ---- Socket I/O ------------------------------------------------------------

/// Renders a frame for sending: EncodeFrame, damaged with CorruptBytes when
/// cluster.frame-corrupt fires (the receiver must then reject it as
/// kCorrupt).
std::string EncodeFrameForSend(FrameType type, std::string_view payload);

/// Sends `bytes` from `*offset` on, advancing `*offset` past what was
/// written. With `wait` false it returns true as soon as the socket would
/// block. False on a write error (EPIPE is masked per call) or when
/// cluster.socket-write fires.
bool SendBytes(int fd, std::string_view bytes, std::size_t* offset,
               bool wait);

/// Writes one frame to `fd`, retrying partial writes. Returns false on any
/// write error (the peer is gone — EPIPE is masked per-call, not with a
/// process-wide signal change) or when the cluster.socket-write fault site
/// fires. When cluster.frame-corrupt fires, the payload is damaged with
/// CorruptBytes before framing — the receiver must reject it as kCorrupt.
bool WriteFrameToFd(int fd, FrameType type, std::string payload);

/// Reads one complete frame from `fd`. EOF before the first header byte is
/// ErrorCode::kUnavailable (clean peer shutdown); EOF or an error anywhere
/// else — including a cluster.socket-read fault firing mid-read — is
/// kCorrupt, as is any header/payload validation failure.
Result<Frame> ReadFrameFromFd(int fd);

}  // namespace tdlib

#endif  // TDLIB_CLUSTER_WIRE_H_
