#include "chase/implication.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "util/metrics.h"

namespace tdlib {

namespace {

// Session-continuation accounting: how often an escalation round continued
// a checkpoint, started over, or ran beside a parked session. Control-path
// counters (once per ChaseImplies), internally gated on MetricsEnabled.
struct SessionMetrics {
  Counter* resumes;
  Counter* fresh_starts;
  Counter* parked;
};

SessionMetrics& ImplicationMetrics() {
  static SessionMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    auto* sm = new SessionMetrics();
    sm->resumes = r.GetCounter("chase.session_resumes");
    sm->fresh_starts = r.GetCounter("chase.session_fresh_starts");
    sm->parked = r.GetCounter("chase.session_parked_rounds");
    return sm;
  }();
  return *m;
}

}  // namespace

std::uint64_t QuestionFingerprint(const DependencySet& d,
                                  const Dependency& d0) {
  // FNV-1a over the structural content — arity, then every body/head row's
  // variable ids with separators. No pretty-printing, no allocation: this
  // runs once per session-threaded ChaseImplies call (i.e. per escalation
  // round), so it must stay linear in the rows and cheap. Stable across
  // processes, and sensitive to any change in the dependencies or the goal
  // at the id level — which is exactly the granularity the chase sees.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  auto mix_tableau = [&](const Tableau& t, int arity) {
    mix(0xabcdefULL);  // tableau separator
    for (const Row& row : t.rows()) {
      mix(0x123456ULL);  // row separator
      for (int attr = 0; attr < arity; ++attr) {
        mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(row[attr])));
      }
    }
  };
  auto mix_dependency = [&](const Dependency& dep) {
    const int arity = dep.schema().arity();
    mix(static_cast<std::uint64_t>(arity));
    mix_tableau(dep.body(), arity);
    mix_tableau(dep.head(), arity);
  };
  for (const Dependency& dep : d.items) mix_dependency(dep);
  mix(0xfedcbaULL);  // goal separator
  mix_dependency(d0);
  return h;
}

void ChaseSession::Serialize(std::ostream& os) const {
  os << "tdsess1 " << question_fingerprint << ' '
     << (instance.has_value() ? 1 : 0) << '\n';
  if (instance.has_value()) instance->Serialize(os);
  checkpoint.Serialize(os);
}

Result<ChaseSession> ChaseSession::Deserialize(const SchemaPtr& schema,
                                               std::istream& is) {
  using R = Result<ChaseSession>;
  std::string magic;
  std::uint64_t fingerprint;
  int has_instance;
  if (!(is >> magic >> fingerprint >> has_instance)) {
    return R::Error(ErrorCode::kCorrupt, "session: truncated header");
  }
  if (magic != "tdsess1") {
    return R::Error(ErrorCode::kCorrupt, "session: bad magic");
  }
  if (has_instance != 0 && has_instance != 1) {
    return R::Error(ErrorCode::kCorrupt, "session: bad instance flag");
  }
  ChaseSession session;
  session.question_fingerprint = fingerprint;
  if (has_instance != 0) {
    Result<Instance> instance = Instance::Deserialize(schema, is);
    if (!instance.ok()) {
      return R::Error(instance.code(), "session: " + instance.error());
    }
    session.instance = std::move(instance).value();
  }
  Result<ChaseCheckpoint> ckpt = ChaseCheckpoint::Deserialize(is);
  if (!ckpt.ok()) return R::Error(ckpt.code(), "session: " + ckpt.error());
  session.checkpoint = std::move(ckpt).value();
  return session;
}

ChaseGoal ConclusionGoal(const Dependency& d0, HomSearchOptions options) {
  return [&d0, options](const Instance& instance) {
    // The frozen body assigned value id v to universal variable (attr, v);
    // those ids are stable because the chase only appends values.
    HomomorphismSearch search(d0.head(), instance, options);
    Valuation initial = Valuation::For(d0.head());
    for (int attr = 0; attr < d0.schema().arity(); ++attr) {
      for (int v = 0; v < d0.head().NumVars(attr); ++v) {
        if (d0.IsUniversal(attr, v)) {
          initial.Set(d0.head().VarIndex(attr, v), v);
        }
      }
    }
    search.SetInitial(initial);
    return search.FindAny(nullptr) == HomSearchStatus::kFound;
  };
}

ImplicationResult ChaseImplies(const DependencySet& d, const Dependency& d0,
                               const ChaseConfig& config) {
  return ChaseImplies(d, d0, config, /*session=*/nullptr);
}

ImplicationResult ChaseImplies(const DependencySet& d, const Dependency& d0,
                               const ChaseConfig& config,
                               ChaseSession* session) {
  ImplicationResult result;
  ChaseSession local;
  ChaseSession* s = session != nullptr ? session : &local;
  // A session checkpoint whose recorded progress already exceeds this
  // call's budgets is kept PARKED: this round chases a fresh throwaway
  // instance, and a later round (or resume) with bigger budgets continues
  // the parked state — destroying it here would silently re-derive
  // everything ResumeWithBudget promised to keep.
  bool parked = false;
  if (session == nullptr) {
    // Sessionless: no resume to consider, so skip the fingerprint (a full
    // structural hash of the dependency set — waste on every legacy call).
    s->instance.emplace(d0.body().Freeze());
  } else {
    const std::uint64_t fingerprint = QuestionFingerprint(d, d0);
    const bool compatible =
        s->question_fingerprint == fingerprint && s->CanResume() &&
        s->checkpoint.CompatibleWith(config, *s->instance, d);
    if (compatible &&
        !s->checkpoint.BudgetsExceedProgress(config, *s->instance)) {
      parked = true;
      ImplicationMetrics().parked->Add(1);
    } else if (compatible) {
      // The session checkpoint will actually be consumed by RunChase below.
      ImplicationMetrics().resumes->Add(1);
    } else {
      // Fresh start: freeze D0's antecedents and chase from scratch. A
      // stale, shape-mismatched, or other-question checkpoint must not
      // survive into RunChase.
      s->Reset();
      s->instance.emplace(d0.body().Freeze());
      s->question_fingerprint = fingerprint;
      ImplicationMetrics().fresh_starts->Add(1);
    }
  }
  if (parked) {
    local.instance.emplace(d0.body().Freeze());
    s = &local;  // this round runs beside the parked session, not over it
  }
  ChaseGoal goal = ConclusionGoal(d0, config.HomOptions());
  // Sessionless (and parked-round) callers get no checkpoint plumbing at
  // all — taking one copies the whole trace and pending tail at every
  // budget stop, pure waste when the state dies at return.
  result.chase = RunChase(&*s->instance, d, config, goal,
                          session != nullptr && !parked ? &s->checkpoint
                                                        : nullptr);
  switch (result.chase.status) {
    case ChaseStatus::kGoal:
      result.verdict = Implication::kImplied;
      // Certificate reached: nothing left to resume — clear the caller's
      // session even if this round ran beside it.
      if (session != nullptr) session->Reset();
      s->Reset();
      break;
    case ChaseStatus::kFixpoint:
      result.verdict = Implication::kNotImplied;
      result.counterexample = std::move(*s->instance);
      if (session != nullptr) session->Reset();
      s->Reset();
      break;
    default:
      result.verdict = Implication::kUnknown;
      // kStepLimit/kTupleLimit left a valid checkpoint in the session; any
      // other stop left it invalid, and the next call starts fresh. A
      // parked session is untouched and waits for a bigger budget.
      break;
  }
  return result;
}

std::string ImplicationResult::ToString() const {
  std::ostringstream oss;
  switch (verdict) {
    case Implication::kImplied: oss << "IMPLIED"; break;
    case Implication::kNotImplied: oss << "NOT-IMPLIED"; break;
    case Implication::kUnknown: oss << "UNKNOWN"; break;
  }
  oss << " (" << chase.ToString() << ")";
  return oss.str();
}

}  // namespace tdlib
