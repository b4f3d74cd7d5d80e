#include "cache/canonical.h"

#include <cassert>
#include <charconv>
#include <cstddef>
#include <cstring>
#include <string_view>
#include <vector>

#include "util/hash.h"

namespace tdlib {
namespace {

// The one canonical encoder. It writes the canonical form into a Sink —
// anything with Append(const char*, std::size_t) — through a small stack
// buffer, so CanonicalProblemText (string sink) and FingerprintProblem
// (hashing sink) emit the very same bytes and the fingerprint path never
// builds the text.
template <typename Sink>
class CanonicalEncoder {
 public:
  explicit CanonicalEncoder(Sink* sink) : sink_(sink) {}

  void Encode(const DependencySet& d, const Dependency& d0,
              const DualSolverConfig& config) {
    // Version tag: bump if the encoding ever changes shape, so fingerprints
    // from different library versions can never alias.
    Text("tdlib-canonical 1\n");
    Field(d.items.size(), '\n');
    for (const Dependency& dep : d.items) EncodeDependency(dep);
    Text("goal\n");
    EncodeDependency(d0);
    // Every deterministic budget and matching-strategy knob: they all either
    // steer the verdict (rounds, steps, tuples) or the counters the cached
    // DeterministicSummary must reproduce (use_delta splits hom_nodes
    // differently, max_fires_per_pass moves pass boundaries). Deadlines are
    // excluded because CacheableConfig already rejects them; the cancel
    // flag is runtime wiring. Retired knobs keep their old defaults as
    // literals, so fingerprints did not move when they went.
    const ChaseConfig& chase = config.base_chase;
    const CounterexampleConfig& cex = config.base_counterexample;
    Text("cfg ");
    Field(config.rounds, ' ');
    Field(config.resume_chase ? 1 : 0, ' ');
    Field(chase.max_steps, ' ');
    Field(chase.max_tuples, ' ');
    Field(chase.hom_max_nodes, ' ');
    Field(chase.record_trace ? 1 : 0, ' ');
    Field(1, ' ');  // the retired lazy-goal-check flag's old default
    Field(chase.use_delta ? 1 : 0, ' ');
    Field(chase.max_fires_per_pass, ' ');
    Field(0, ' ');  // the retired burst auto-tune flag's old default
    Field(4096, ' ');  // the retired match_slice_ids' old default
    Field(1, ' ');  // the retired intersection flag: keeps old fingerprints
    Field(1, ' ');  // the retired block-filter flag's old default
    Field(cex.max_tuples, ' ');
    Field(cex.max_candidates, '\n');
    Flush();
  }

 private:
  // Room for any integer field (20 digits of a uint64, or a sign and 19
  // digits) plus its separator.
  static constexpr std::size_t kMaxField = 21;
  static constexpr std::size_t kBufferSize = 512;

  // Relabels one dependency's variables per attribute by first occurrence
  // (body rows first, then head rows, each row left to right) and appends
  // the relabeled rows. The slots are shared between body and head, so a
  // universal head variable resolves to the index its body occurrence
  // introduced — exactly the equality pattern, with names and allocation
  // order erased.
  void EncodeDependency(const Dependency& dep) {
    const int arity = dep.schema().arity();
    if (slots_.size() < static_cast<std::size_t>(arity)) {
      slots_.resize(arity);
      next_.resize(arity);
    }
    // Variable ids are dense per attribute and body and head share one
    // variable space, so one flat slot per id covers every occurrence.
    for (int attr = 0; attr < arity; ++attr) {
      slots_[attr].assign(static_cast<std::size_t>(dep.body().NumVars(attr)),
                          -1);
      next_[attr] = 0;
    }
    Text("dep ");
    Field(arity, '\n');
    EncodeTableau(dep.body(), "b ", arity);
    EncodeTableau(dep.head(), "h ", arity);
  }

  void EncodeTableau(const Tableau& t, std::string_view tag, int arity) {
    Text(tag);
    Field(t.num_rows(), '\n');
    for (const Row& row : t.rows()) {
      for (int attr = 0; attr < arity; ++attr) {
        int& slot = slots_[attr][row[attr]];
        if (slot < 0) slot = next_[attr]++;
        Field(slot, ' ');
      }
      Char('\n');
    }
  }

  void Reserve(std::size_t n) {
    if (len_ + n > kBufferSize) Flush();
  }

  void Char(char c) {
    Reserve(1);
    buf_[len_++] = c;
  }

  void Text(std::string_view s) {
    assert(s.size() <= kBufferSize);
    Reserve(s.size());
    std::memcpy(buf_ + len_, s.data(), s.size());
    len_ += s.size();
  }

  // One decimal integer followed by `sep` — the same digits operator<<
  // prints for every integer type the form contains.
  template <typename Int>
  void Field(Int value, char sep) {
    Reserve(kMaxField);
    char* end = std::to_chars(buf_ + len_, buf_ + kBufferSize, value).ptr;
    *end++ = sep;
    len_ = static_cast<std::size_t>(end - buf_);
  }

  void Flush() {
    sink_->Append(buf_, len_);
    len_ = 0;
  }

  Sink* sink_;
  char buf_[kBufferSize];
  std::size_t len_ = 0;
  std::vector<std::vector<int>> slots_;  // [attr][var] -> canonical id or -1
  std::vector<int> next_;                // [attr] next unused canonical id
};

struct StringSink {
  std::string* out;
  void Append(const char* data, std::size_t len) { out->append(data, len); }
};

struct HashSink {
  Hasher128 hasher;
  void Append(const char* data, std::size_t len) { hasher.Update(data, len); }
};

}  // namespace

bool CacheableConfig(const DualSolverConfig& config) {
  return config.base_chase.deadline_seconds <= 0 &&
         config.base_counterexample.deadline_seconds <= 0;
}

std::string CanonicalProblemText(const DependencySet& d, const Dependency& d0,
                                 const DualSolverConfig& config) {
  std::string text;
  StringSink sink{&text};
  CanonicalEncoder<StringSink>(&sink).Encode(d, d0, config);
  return text;
}

CacheFingerprint FingerprintProblem(const DependencySet& d,
                                    const Dependency& d0,
                                    const DualSolverConfig& config) {
  CacheFingerprint fp;
  if (!CacheableConfig(config)) return fp;
  HashSink sink;
  CanonicalEncoder<HashSink>(&sink).Encode(d, d0, config);
  const Hash128 h = sink.hasher.Finish();
  fp.hi = h.hi;
  fp.lo = h.lo;
  fp.valid = true;
  return fp;
}

}  // namespace tdlib
