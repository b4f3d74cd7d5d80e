#include "cluster/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "util/fault.h"
#include "util/hash.h"

namespace tdlib {
namespace {

constexpr char kMagic[4] = {'T', 'D', 'F', '4'};

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

// ---- binary payloads -------------------------------------------------------

// A payload opens with its record tag ("tdjb" job, "tdrb" result, read as
// little-endian words) and its version, so a stale or foreign payload fails
// at its first field.
constexpr std::uint32_t kJobPayloadTag = 0x626a6474;
constexpr std::uint32_t kResultPayloadTag = 0x62726474;
// Version 1 was the text form; version 3 added the result's running job;
// version 4 dropped two retired chase config flags from the job's config;
// version 5 dropped the job's probe budget and session block and the
// result's parked flag and session block; version 6 dropped the job's
// canonical fingerprint.
constexpr std::uint32_t kPayloadVersion = 6;

// Appends fixed-width little-endian fields and length-prefixed strings.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(std::uint32_t v) { PutU32(out_, v); }
  void I32(int v) { U32(static_cast<std::uint32_t>(v)); }
  void U64(std::uint64_t v) { PutU64(out_, v); }
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bytes(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    out_->append(s);
  }

 private:
  std::string* out_;
};

// The strict reader over an untrusted payload: every read reports failure
// instead of running past the end, and Count() refuses any count the
// remaining bytes cannot back, so nothing is sized from a damaged field.
class ByteReader {
 public:
  explicit ByteReader(std::string_view in) : in_(in) {}

  bool U8(std::uint8_t* v) {
    if (in_.size() - pos_ < 1) return false;
    *v = static_cast<std::uint8_t>(in_[pos_++]);
    return true;
  }
  bool Bool(bool* v) {
    std::uint8_t raw = 0;
    if (!U8(&raw) || raw > 1) return false;
    *v = raw == 1;
    return true;
  }
  bool U32(std::uint32_t* v) {
    if (in_.size() - pos_ < 4) return false;
    *v = GetU32(in_.data() + pos_);
    pos_ += 4;
    return true;
  }
  bool I32(int* v) {
    std::uint32_t raw = 0;
    if (!U32(&raw)) return false;
    std::int32_t signed_raw = 0;
    std::memcpy(&signed_raw, &raw, sizeof(signed_raw));
    *v = signed_raw;
    return true;
  }
  bool U64(std::uint64_t* v) {
    if (in_.size() - pos_ < 8) return false;
    *v = GetU64(in_.data() + pos_);
    pos_ += 8;
    return true;
  }
  bool F64(double* v) {
    std::uint64_t bits = 0;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(bits));
    return true;
  }
  bool Bytes(std::string* out) {
    std::uint32_t n = 0;
    if (!U32(&n) || n > in_.size() - pos_) return false;
    out->assign(in_.substr(pos_, n));
    pos_ += n;
    return true;
  }
  /// A count of items that each occupy at least `min_bytes` more payload.
  bool Count(std::uint32_t* n, std::size_t min_bytes) {
    return U32(n) && std::uint64_t{*n} * min_bytes <= remaining();
  }
  std::size_t remaining() const { return in_.size() - pos_; }
  bool AtEnd() const { return pos_ == in_.size(); }

 private:
  std::string_view in_;
  std::size_t pos_ = 0;
};

void WriteConfig(const DualSolverConfig& config, ByteWriter* out) {
  const ChaseConfig& chase = config.base_chase;
  const CounterexampleConfig& cex = config.base_counterexample;
  out->I32(config.rounds);
  out->Bool(config.resume_chase);
  out->U64(chase.max_steps);
  out->U64(chase.max_tuples);
  out->F64(chase.deadline_seconds);
  out->U64(chase.hom_max_nodes);
  out->Bool(chase.record_trace);
  out->Bool(chase.use_delta);
  out->U64(chase.max_fires_per_pass);
  out->U64(chase.match_slice_ids);
  out->I32(cex.max_tuples);
  out->U64(cex.max_candidates);
  out->F64(cex.deadline_seconds);
}

bool ReadConfig(ByteReader* in, DualSolverConfig* config) {
  ChaseConfig& chase = config->base_chase;
  CounterexampleConfig& cex = config->base_counterexample;
  return in->I32(&config->rounds) && in->Bool(&config->resume_chase) &&
         in->U64(&chase.max_steps) && in->U64(&chase.max_tuples) &&
         in->F64(&chase.deadline_seconds) && in->U64(&chase.hom_max_nodes) &&
         in->Bool(&chase.record_trace) && in->Bool(&chase.use_delta) &&
         in->U64(&chase.max_fires_per_pass) &&
         in->U64(&chase.match_slice_ids) &&
         in->I32(&cex.max_tuples) && in->U64(&cex.max_candidates) &&
         in->F64(&cex.deadline_seconds);
}

// A dependency as row counts, per-attribute variable counts, then body and
// head rows of variable ids. `arity` is the job schema's. Only variables
// that occur in a row are sent, renumbered densely in id order (a declared
// but unused variable means nothing to the solver, and the decoder bounds
// each attribute's variables by the rows); `wire_ids` is scratch space
// holding the new id of each variable slot.
void WriteDependency(const Dependency& dep, int arity,
                     std::vector<int>* wire_ids, ByteWriter* out) {
  const Tableau& body = dep.body();
  const Tableau& head = dep.head();
  wire_ids->assign(static_cast<std::size_t>(body.TotalVars()), -1);
  for (const Tableau* tableau : {&body, &head}) {
    for (const Row& row : tableau->rows()) {
      for (int attr = 0; attr < arity; ++attr) {
        (*wire_ids)[body.VarIndex(attr, row[attr])] = 0;
      }
    }
  }
  out->U32(static_cast<std::uint32_t>(body.num_rows()));
  out->U32(static_cast<std::uint32_t>(head.num_rows()));
  for (int attr = 0; attr < arity; ++attr) {
    int used = 0;
    for (int v = 0; v < body.NumVars(attr); ++v) {
      int& id = (*wire_ids)[body.VarIndex(attr, v)];
      if (id >= 0) id = used++;  // occurs in a row: next wire id
    }
    out->U32(static_cast<std::uint32_t>(used));
  }
  for (const Tableau* tableau : {&body, &head}) {
    for (const Row& row : tableau->rows()) {
      for (int attr = 0; attr < arity; ++attr) {
        out->U32(static_cast<std::uint32_t>(
            (*wire_ids)[body.VarIndex(attr, row[attr])]));
      }
    }
  }
}

constexpr std::uint32_t kMaxVarId = std::numeric_limits<int>::max();

// Rebuilds one dependency through Dependency::Builder (which validates
// it); nullopt on any malformed field.
std::optional<Dependency> ReadDependency(ByteReader* in,
                                         const SchemaPtr& schema) {
  const int arity = schema->arity();
  const std::uint64_t row_bytes = 4 * static_cast<std::uint64_t>(arity);
  std::uint32_t body_rows = 0;
  std::uint32_t head_rows = 0;
  if (!in->U32(&body_rows) || !in->U32(&head_rows)) return std::nullopt;
  // The variable counts (one row's worth) and every row must fit in what is
  // left. Each variable occurs in a row, so no attribute has more variables
  // than rows: no damaged count can size the tableaux.
  const std::uint64_t rows = std::uint64_t{body_rows} + head_rows;
  if ((rows + 1) * row_bytes > in->remaining()) return std::nullopt;
  // A first pass over the variable counts checks them and sizes the builder.
  ByteReader counts = *in;
  std::uint64_t total_vars = 0;
  for (int attr = 0; attr < arity; ++attr) {
    std::uint32_t num_vars = 0;
    if (!counts.U32(&num_vars) || num_vars > rows) return std::nullopt;
    total_vars += num_vars;
  }
  Dependency::Builder builder(schema);
  builder.Reserve(static_cast<int>(body_rows), static_cast<int>(head_rows),
                  static_cast<int>(total_vars));
  for (int attr = 0; attr < arity; ++attr) {
    std::uint32_t num_vars = 0;
    in->U32(&num_vars);  // checked above
    for (std::uint32_t v = 0; v < num_vars; ++v) {
      char digits[16];
      char* end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
      builder.Var(attr, std::string_view(digits, end - digits));
    }
  }
  // Build() rejects ids outside their attribute's variables.
  for (std::uint64_t r = 0; r < rows; ++r) {
    Row row(static_cast<std::size_t>(arity));
    for (int attr = 0; attr < arity; ++attr) {
      std::uint32_t id = 0;
      if (!in->U32(&id) || id > kMaxVarId) return std::nullopt;
      row[attr] = static_cast<int>(id);
    }
    if (r < body_rows) {
      builder.AddBodyRow(std::move(row));
    } else {
      builder.AddHeadRow(std::move(row));
    }
  }
  Result<Dependency> built = std::move(builder).Build();
  if (!built.ok()) return std::nullopt;
  return std::move(built).value();
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

std::string EncodeJobPayload(std::uint64_t job_id, int priority,
                             const Job& job, const DualSolverConfig& config) {
  std::string payload;
  payload.reserve(256 + job.name.size());
  ByteWriter out(&payload);
  out.U32(kJobPayloadTag);
  out.U32(kPayloadVersion);
  out.U64(job_id);
  out.I32(priority);
  out.Bytes(job.name);
  WriteConfig(config, &out);
  const Schema& schema = job.goal.schema();
  out.U32(static_cast<std::uint32_t>(schema.arity()));
  for (int attr = 0; attr < schema.arity(); ++attr) out.Bytes(schema.name(attr));
  out.U32(static_cast<std::uint32_t>(job.dependencies.items.size()));
  std::vector<int> wire_ids;
  for (const Dependency& dep : job.dependencies.items) {
    WriteDependency(dep, schema.arity(), &wire_ids, &out);
  }
  WriteDependency(job.goal, schema.arity(), &wire_ids, &out);
  return payload;
}

std::string EncodeJobPayload(const WireJob& wire_job) {
  return EncodeJobPayload(wire_job.job_id, wire_job.job.priority,
                          wire_job.job, wire_job.job.config);
}

Result<WireJob> DecodeJobPayload(std::string_view payload) {
  ByteReader in(payload);
  std::uint32_t tag = 0;
  std::uint32_t version = 0;
  if (!in.U32(&tag) || tag != kJobPayloadTag || !in.U32(&version)) {
    return Corrupt<WireJob>("job payload: bad tag");
  }
  if (version != kPayloadVersion) {
    return Corrupt<WireJob>("job payload: unsupported version " +
                            std::to_string(version));
  }
  std::uint64_t job_id = 0;
  int priority = 0;
  std::string name;
  if (!in.U64(&job_id) || !in.I32(&priority) || !in.Bytes(&name)) {
    return Corrupt<WireJob>("job payload: bad header");
  }
  DualSolverConfig config;
  if (!ReadConfig(&in, &config)) {
    return Corrupt<WireJob>("job payload: bad config");
  }
  std::uint32_t arity = 0;
  if (!in.Count(&arity, 4) || arity == 0) {
    return Corrupt<WireJob>("job payload: bad arity");
  }
  std::vector<std::string> attribute_names;
  attribute_names.reserve(arity);
  for (std::uint32_t attr = 0; attr < arity; ++attr) {
    std::string attribute;
    if (!in.Bytes(&attribute)) {
      return Corrupt<WireJob>("job payload: bad attribute name");
    }
    attribute_names.push_back(std::move(attribute));
  }
  SchemaPtr schema = MakeSchema(std::move(attribute_names));
  if (std::string err = schema->Validate(); !err.empty()) {
    return Corrupt<WireJob>("job payload: schema: " + err);
  }
  // A dependency takes at least its two row counts, its variable counts
  // and one body and one head row.
  std::uint32_t num_premises = 0;
  if (!in.Count(&num_premises, 8 + 12 * std::size_t{arity})) {
    return Corrupt<WireJob>("job payload: bad premise count");
  }
  DependencySet dependencies;
  dependencies.items.reserve(num_premises);
  for (std::uint32_t i = 0; i < num_premises; ++i) {
    std::optional<Dependency> premise = ReadDependency(&in, schema);
    if (!premise.has_value()) {
      return Corrupt<WireJob>("job payload: bad premise " + std::to_string(i));
    }
    dependencies.items.push_back(std::move(*premise));
  }
  std::optional<Dependency> goal = ReadDependency(&in, schema);
  if (!goal.has_value()) return Corrupt<WireJob>("job payload: bad goal");
  if (!in.AtEnd()) return Corrupt<WireJob>("job payload: trailing bytes");
  WireJob wire_job(Job{std::move(name), std::move(dependencies),
                       std::move(*goal), config, priority});
  wire_job.job_id = job_id;
  return wire_job;
}

std::string EncodeResultPayload(const WireResult& wire_result) {
  const JobResult& r = wire_result.result;
  std::string payload;
  payload.reserve(128 + r.name.size());
  ByteWriter out(&payload);
  out.U32(kResultPayloadTag);
  out.U32(kPayloadVersion);
  out.U64(wire_result.job_id);
  out.U64(wire_result.running_job_id);
  out.U8(static_cast<std::uint8_t>(r.status));
  out.U8(static_cast<std::uint8_t>(r.verdict));
  out.U8(static_cast<std::uint8_t>(r.cache_source));
  out.I32(r.rounds_used);
  for (std::uint64_t counter : {r.chase_steps, r.chase_passes, r.hom_nodes,
                                r.match_tasks, r.carried_passes,
                                r.candidates_checked}) {
    out.U64(counter);
  }
  for (double seconds : {r.wall_seconds, r.queue_seconds, r.match_seconds,
                         r.fire_seconds, r.checkpoint_seconds}) {
    out.F64(seconds);
  }
  out.Bytes(r.name);
  return payload;
}

Result<WireResult> DecodeResultPayload(std::string_view payload) {
  ByteReader in(payload);
  std::uint32_t tag = 0;
  std::uint32_t version = 0;
  if (!in.U32(&tag) || tag != kResultPayloadTag || !in.U32(&version)) {
    return Corrupt<WireResult>("result payload: bad tag");
  }
  if (version != kPayloadVersion) {
    return Corrupt<WireResult>("result payload: unsupported version " +
                               std::to_string(version));
  }
  WireResult wire_result;
  JobResult& r = wire_result.result;
  std::uint8_t status = 0, verdict = 0, cache_source = 0;
  if (!in.U64(&wire_result.job_id) || !in.U64(&wire_result.running_job_id) ||
      !in.U8(&status) || !in.U8(&verdict) || !in.U8(&cache_source) ||
      !in.I32(&r.rounds_used) ||
      status > static_cast<int>(JobStatus::kCancelled) ||
      verdict > static_cast<int>(DualVerdict::kUnknown) ||
      cache_source > static_cast<int>(CacheSource::kCoalesced)) {
    return Corrupt<WireResult>("result payload: bad outcome");
  }
  r.status = static_cast<JobStatus>(status);
  r.verdict = static_cast<DualVerdict>(verdict);
  r.cache_source = static_cast<CacheSource>(cache_source);
  if (!in.U64(&r.chase_steps) || !in.U64(&r.chase_passes) ||
      !in.U64(&r.hom_nodes) || !in.U64(&r.match_tasks) ||
      !in.U64(&r.carried_passes) || !in.U64(&r.candidates_checked)) {
    return Corrupt<WireResult>("result payload: bad counters");
  }
  if (!in.F64(&r.wall_seconds) || !in.F64(&r.queue_seconds) ||
      !in.F64(&r.match_seconds) || !in.F64(&r.fire_seconds) ||
      !in.F64(&r.checkpoint_seconds)) {
    return Corrupt<WireResult>("result payload: bad wall times");
  }
  if (!in.Bytes(&r.name) || !in.AtEnd()) {
    return Corrupt<WireResult>("result payload: bad name");
  }
  return wire_result;
}

std::string EncodeFrameForSend(FrameType type, std::string_view payload) {
  std::string bytes = EncodeFrame(type, payload);
  if (FaultInjectionEnabled() && ShouldInject(FaultSite::kFrameCorrupt)) {
    // Damage AFTER framing, so the header hash vouches for the healthy
    // payload and the receiver must reject. The payload-content seed keeps
    // the damage deterministic per frame; forcing it odd selects the
    // bit-flip mode (a truncating flip could leave a clean EOF instead of
    // the corrupt frame this site promises).
    CorruptBytes(&bytes, PayloadHash(payload) | 1);
  }
  return bytes;
}

bool SendBytes(int fd, std::string_view bytes, std::size_t* offset,
               bool wait) {
  const int flags = MSG_NOSIGNAL | (wait ? 0 : MSG_DONTWAIT);
  while (*offset < bytes.size()) {
    if (FaultInjectionEnabled() && ShouldInject(FaultSite::kSocketWrite)) {
      return false;
    }
    const ssize_t n = ::send(fd, bytes.data() + *offset,
                             bytes.size() - *offset, flags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return !wait && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
    *offset += static_cast<std::size_t>(n);
  }
  return true;
}

bool WriteFrameToFd(int fd, FrameType type, std::string payload) {
  std::size_t offset = 0;
  return SendBytes(fd, EncodeFrameForSend(type, payload), &offset,
                   /*wait=*/true);
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
