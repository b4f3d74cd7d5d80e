#include "cluster/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "fuzz/fuzz.h"
#include "util/fault.h"
#include "util/hash.h"

namespace tdlib {
namespace {

constexpr char kMagic[4] = {'T', 'D', 'F', '3'};

template <typename T>
Result<T> Corrupt(const std::string& what) {
  return Result<T>::Error(ErrorCode::kCorrupt, "cluster frame: " + what);
}

bool KnownFrameType(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(FrameType::kHello) &&
         type <= static_cast<std::uint8_t>(FrameType::kCancel);
}

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t GetU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t GetU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t PayloadHash(std::string_view payload) {
  return HashBytes128(payload.data(), payload.size()).lo;
}

// Validates the fixed-size header. On success fills type/length/hash.
Result<bool> CheckHeader(const char* h, FrameType* type, std::uint32_t* length,
                         std::uint64_t* hash) {
  if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt<bool>("bad magic");
  }
  const std::uint8_t raw_type = static_cast<std::uint8_t>(h[4]);
  if (!KnownFrameType(raw_type)) {
    return Corrupt<bool>("unknown frame type " + std::to_string(raw_type));
  }
  if (h[5] != 0 || h[6] != 0 || h[7] != 0) {
    return Corrupt<bool>("nonzero reserved bytes");
  }
  const std::uint32_t len = GetU32(h + 8);
  if (len > kMaxFramePayload) {
    return Corrupt<bool>("payload length " + std::to_string(len) +
                         " exceeds cap");
  }
  *type = static_cast<FrameType>(raw_type);
  *length = len;
  *hash = GetU64(h + 12);
  return true;
}

// ---- untrusted text-payload scanning ---------------------------------------

// A strict cursor over payload text: every Read* reports failure instead of
// setting stream state, so the decoders can return typed kCorrupt errors
// with field names. All counts are bounds-checked against the remaining
// buffer before any allocation.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view text) : text_(text) {}

  bool ReadToken(std::string* out) {
    SkipSpace();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
    if (pos_ == start) return false;
    out->assign(text_.substr(start, pos_ - start));
    return true;
  }

  bool ExpectToken(std::string_view want) {
    std::string tok;
    return ReadToken(&tok) && tok == want;
  }

  bool ReadU64(std::uint64_t* out) {
    std::string tok;
    if (!ReadToken(&tok) || tok.empty()) return false;
    std::uint64_t v = 0;
    for (char c : tok) {
      if (c < '0' || c > '9') return false;
      if (v > (std::numeric_limits<std::uint64_t>::max() - 9) / 10) {
        return false;
      }
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    *out = v;
    return true;
  }

  bool ReadInt(int* out) {
    std::string tok;
    if (!ReadToken(&tok)) return false;
    bool negative = false;
    std::size_t i = 0;
    if (tok[0] == '-') {
      negative = true;
      i = 1;
    }
    if (i >= tok.size()) return false;
    long long v = 0;
    for (; i < tok.size(); ++i) {
      if (tok[i] < '0' || tok[i] > '9') return false;
      v = v * 10 + (tok[i] - '0');
      if (v > std::numeric_limits<int>::max()) return false;
    }
    *out = static_cast<int>(negative ? -v : v);
    return true;
  }

  bool ReadDouble(double* out) {
    std::string tok;
    if (!ReadToken(&tok)) return false;
    std::istringstream iss(tok);
    iss >> *out;
    return !iss.fail() && iss.eof();
  }

  bool ReadBool(bool* out) {
    std::uint64_t v;
    if (!ReadU64(&v) || v > 1) return false;
    *out = v == 1;
    return true;
  }

  /// Rest of the current line, leading spaces stripped; consumes the '\n'.
  bool ReadLineRemainder(std::string* out) {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
    const std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) return false;
    out->assign(text_.substr(pos_, nl - pos_));
    pos_ = nl + 1;
    return true;
  }

  /// Reads an exact byte block: the cursor must be at the '\n' ending the
  /// count line; the block is the following `n` bytes verbatim.
  bool ReadBlock(std::uint64_t n, std::string* out) {
    if (pos_ < text_.size() && text_[pos_] == '\r') ++pos_;
    if (pos_ >= text_.size() || text_[pos_] != '\n') return false;
    ++pos_;
    if (n > text_.size() - pos_) return false;
    out->assign(text_.substr(pos_, static_cast<std::size_t>(n)));
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  }
  void SkipSpace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void EncodeConfig(const DualSolverConfig& config, std::ostream& os) {
  const ChaseConfig& chase = config.base_chase;
  const CounterexampleConfig& cex = config.base_counterexample;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "config " << config.rounds << ' ' << (config.resume_chase ? 1 : 0)
     << ' ' << chase.max_steps << ' ' << chase.max_tuples << ' '
     << chase.deadline_seconds << ' ' << chase.hom_max_nodes << ' '
     << (chase.record_trace ? 1 : 0) << ' ' << (chase.use_delta ? 1 : 0) << ' ' << chase.max_fires_per_pass
     << ' ' << (chase.auto_burst ? 1 : 0) << ' ' << chase.match_slice_ids
     << ' ' << (chase.use_simd ? 1 : 0) << ' ' << cex.max_tuples << ' '
     << cex.max_candidates << ' ' << cex.deadline_seconds << '\n';
}

bool DecodeConfig(PayloadReader* in, DualSolverConfig* config) {
  ChaseConfig& chase = config->base_chase;
  CounterexampleConfig& cex = config->base_counterexample;
  return in->ExpectToken("config") && in->ReadInt(&config->rounds) &&
         in->ReadBool(&config->resume_chase) && in->ReadU64(&chase.max_steps) &&
         in->ReadU64(&chase.max_tuples) &&
         in->ReadDouble(&chase.deadline_seconds) &&
         in->ReadU64(&chase.hom_max_nodes) &&
         in->ReadBool(&chase.record_trace) &&
         in->ReadBool(&chase.use_delta) &&
         in->ReadU64(&chase.max_fires_per_pass) &&
         in->ReadBool(&chase.auto_burst) &&
         in->ReadU64(&chase.match_slice_ids) &&
         in->ReadBool(&chase.use_simd) && in->ReadInt(&cex.max_tuples) &&
         in->ReadU64(&cex.max_candidates) &&
         in->ReadDouble(&cex.deadline_seconds);
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(type));
  out.append(3, '\0');
  PutU32(&out, static_cast<std::uint32_t>(payload.size()));
  PutU64(&out, PayloadHash(payload));
  out.append(payload);
  return out;
}

Result<Frame> DecodeFrame(std::string_view bytes, std::size_t* consumed) {
  if (bytes.size() < kFrameHeaderSize) {
    return Corrupt<Frame>("truncated header (" + std::to_string(bytes.size()) +
                          " of " + std::to_string(kFrameHeaderSize) +
                          " bytes)");
  }
  FrameType type;
  std::uint32_t length;
  std::uint64_t hash;
  Result<bool> header = CheckHeader(bytes.data(), &type, &length, &hash);
  if (!header.ok()) {
    return Result<Frame>::Error(header.code(), header.error());
  }
  if (bytes.size() - kFrameHeaderSize < length) {
    return Corrupt<Frame>("truncated payload");
  }
  Frame frame;
  frame.type = type;
  frame.payload.assign(bytes.substr(kFrameHeaderSize, length));
  if (PayloadHash(frame.payload) != hash) {
    return Corrupt<Frame>("payload hash mismatch");
  }
  if (consumed != nullptr) *consumed = kFrameHeaderSize + length;
  return frame;
}

std::string EncodeJobPayload(const WireJob& wire_job) {
  std::ostringstream oss;
  oss << "tdjob 1\n";
  oss << "id " << wire_job.job_id << " probe " << wire_job.probe_steps << '\n';
  oss << "priority " << wire_job.job.priority << '\n';
  oss << "name " << wire_job.job.name << '\n';
  EncodeConfig(wire_job.job.config, oss);
  // The dependency program travels in the replayable tdfuzz repro format
  // (schema line + td lines, last td = goal), renamed to grammar-safe
  // variable names when necessary — a pure isomorphism that leaves every
  // deterministic result field byte-identical (cache/canonical.h).
  const std::string program =
      FormatReproProgram(wire_job.job, FuzzOptions{}, "cluster");
  oss << "program " << program.size() << '\n' << program;
  oss << "session " << wire_job.session_text.size() << '\n'
      << wire_job.session_text;
  return oss.str();
}

Result<WireJob> DecodeJobPayload(std::string_view payload) {
  PayloadReader in(payload);
  std::uint64_t version = 0;
  if (!in.ExpectToken("tdjob") || !in.ReadU64(&version)) {
    return Corrupt<WireJob>("job payload: bad tag");
  }
  if (version != 1) {
    return Corrupt<WireJob>("job payload: unsupported version " +
                            std::to_string(version));
  }
  std::uint64_t job_id = 0;
  std::uint64_t probe_steps = 0;
  std::string session_text;
  int priority = 0;
  std::string name;
  if (!in.ExpectToken("id") || !in.ReadU64(&job_id) ||
      !in.ExpectToken("probe") || !in.ReadU64(&probe_steps)) {
    return Corrupt<WireJob>("job payload: bad id line");
  }
  if (!in.ExpectToken("priority") || !in.ReadInt(&priority)) {
    return Corrupt<WireJob>("job payload: bad priority line");
  }
  if (!in.ExpectToken("name") || !in.ReadLineRemainder(&name)) {
    return Corrupt<WireJob>("job payload: bad name line");
  }
  DualSolverConfig config;
  if (!DecodeConfig(&in, &config)) {
    return Corrupt<WireJob>("job payload: bad config line");
  }
  std::uint64_t program_size = 0;
  std::string program;
  if (!in.ExpectToken("program") || !in.ReadU64(&program_size) ||
      !in.ReadBlock(program_size, &program)) {
    return Corrupt<WireJob>("job payload: bad program block");
  }
  std::uint64_t session_size = 0;
  if (!in.ExpectToken("session") || !in.ReadU64(&session_size) ||
      !in.ReadBlock(session_size, &session_text)) {
    return Corrupt<WireJob>("job payload: bad session block");
  }
  Result<Job> parsed = ParseReproProgram(program);
  if (!parsed.ok()) {
    return Corrupt<WireJob>("job payload: " + parsed.error());
  }
  WireJob wire_job(std::move(parsed).value());
  wire_job.job_id = job_id;
  wire_job.probe_steps = probe_steps;
  wire_job.session_text = std::move(session_text);
  wire_job.job.name = std::move(name);
  wire_job.job.priority = priority;
  wire_job.job.config = config;
  return wire_job;
}

std::string EncodeResultPayload(const WireResult& wire_result) {
  const JobResult& r = wire_result.result;
  std::ostringstream oss;
  oss.precision(std::numeric_limits<double>::max_digits10);
  oss << "tdres 1\n";
  oss << "id " << wire_result.job_id << " parked "
      << (wire_result.parked ? 1 : 0) << '\n';
  oss << "name " << r.name << '\n';
  oss << "outcome " << static_cast<int>(r.status) << ' '
      << static_cast<int>(r.verdict) << ' ' << r.rounds_used << ' '
      << static_cast<int>(r.cache_source) << '\n';
  oss << "counters " << r.chase_steps << ' ' << r.chase_passes << ' '
      << r.hom_nodes << ' ' << r.match_tasks << ' ' << r.carried_passes << ' '
      << r.candidates_checked << '\n';
  oss << "wall " << r.wall_seconds << ' ' << r.queue_seconds << ' '
      << r.match_seconds << ' ' << r.fire_seconds << ' '
      << r.checkpoint_seconds << '\n';
  oss << "session " << wire_result.session_text.size() << '\n'
      << wire_result.session_text;
  return oss.str();
}

Result<WireResult> DecodeResultPayload(std::string_view payload) {
  PayloadReader in(payload);
  std::uint64_t version = 0;
  if (!in.ExpectToken("tdres") || !in.ReadU64(&version)) {
    return Corrupt<WireResult>("result payload: bad tag");
  }
  if (version != 1) {
    return Corrupt<WireResult>("result payload: unsupported version " +
                               std::to_string(version));
  }
  WireResult wire_result;
  JobResult& r = wire_result.result;
  if (!in.ExpectToken("id") || !in.ReadU64(&wire_result.job_id) ||
      !in.ExpectToken("parked") || !in.ReadBool(&wire_result.parked)) {
    return Corrupt<WireResult>("result payload: bad id line");
  }
  if (!in.ExpectToken("name") || !in.ReadLineRemainder(&r.name)) {
    return Corrupt<WireResult>("result payload: bad name line");
  }
  int status = 0, verdict = 0, cache_source = 0;
  if (!in.ExpectToken("outcome") || !in.ReadInt(&status) ||
      !in.ReadInt(&verdict) || !in.ReadInt(&r.rounds_used) ||
      !in.ReadInt(&cache_source) || status < 0 ||
      status > static_cast<int>(JobStatus::kCancelled) || verdict < 0 ||
      verdict > static_cast<int>(DualVerdict::kUnknown) || cache_source < 0 ||
      cache_source > static_cast<int>(CacheSource::kCoalesced)) {
    return Corrupt<WireResult>("result payload: bad outcome line");
  }
  r.status = static_cast<JobStatus>(status);
  r.verdict = static_cast<DualVerdict>(verdict);
  r.cache_source = static_cast<CacheSource>(cache_source);
  if (!in.ExpectToken("counters") || !in.ReadU64(&r.chase_steps) ||
      !in.ReadU64(&r.chase_passes) || !in.ReadU64(&r.hom_nodes) ||
      !in.ReadU64(&r.match_tasks) || !in.ReadU64(&r.carried_passes) ||
      !in.ReadU64(&r.candidates_checked)) {
    return Corrupt<WireResult>("result payload: bad counters line");
  }
  if (!in.ExpectToken("wall") || !in.ReadDouble(&r.wall_seconds) ||
      !in.ReadDouble(&r.queue_seconds) || !in.ReadDouble(&r.match_seconds) ||
      !in.ReadDouble(&r.fire_seconds) ||
      !in.ReadDouble(&r.checkpoint_seconds)) {
    return Corrupt<WireResult>("result payload: bad wall line");
  }
  std::uint64_t session_size = 0;
  if (!in.ExpectToken("session") || !in.ReadU64(&session_size) ||
      !in.ReadBlock(session_size, &wire_result.session_text)) {
    return Corrupt<WireResult>("result payload: bad session block");
  }
  return wire_result;
}

bool WriteFrameToFd(int fd, FrameType type, std::string payload) {
  std::string bytes = EncodeFrame(type, payload);
  if (FaultInjectionEnabled() && ShouldInject(FaultSite::kFrameCorrupt)) {
    // Damage AFTER framing, so the header hash vouches for the healthy
    // payload and the receiver must reject. The payload-content seed keeps
    // the damage deterministic per frame; forcing it odd selects the
    // bit-flip mode (a truncating flip could leave a clean EOF instead of
    // the corrupt frame this site promises).
    CorruptBytes(&bytes, PayloadHash(payload) | 1);
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    if (FaultInjectionEnabled() && ShouldInject(FaultSite::kSocketWrite)) {
      return false;
    }
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

namespace {

// Reads exactly `len` bytes. Returns the byte count actually read (short on
// EOF/error, or when the cluster.socket-read fault cuts the stream).
std::size_t ReadExact(int fd, char* out, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    if (FaultInjectionEnabled() && ShouldInject(FaultSite::kSocketRead)) {
      return off;
    }
    const ssize_t n = ::recv(fd, out + off, len - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return off;
    }
    if (n == 0) return off;
    off += static_cast<std::size_t>(n);
  }
  return off;
}

}  // namespace

Result<Frame> ReadFrameFromFd(int fd) {
  char header[kFrameHeaderSize];
  const std::size_t got = ReadExact(fd, header, sizeof(header));
  if (got == 0) {
    return Result<Frame>::Error(ErrorCode::kUnavailable, "peer closed");
  }
  if (got < sizeof(header)) {
    return Corrupt<Frame>("truncated header mid-stream");
  }
  FrameType type;
  std::uint32_t length;
  std::uint64_t hash;
  Result<bool> checked = CheckHeader(header, &type, &length, &hash);
  if (!checked.ok()) {
    return Result<Frame>::Error(checked.code(), checked.error());
  }
  Frame frame;
  frame.type = type;
  frame.payload.resize(length);
  if (length > 0 &&
      ReadExact(fd, frame.payload.data(), length) != length) {
    return Corrupt<Frame>("truncated payload mid-stream");
  }
  if (PayloadHash(frame.payload) != hash) {
    return Corrupt<Frame>("payload hash mismatch");
  }
  return frame;
}

}  // namespace tdlib
