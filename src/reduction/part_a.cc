#include "reduction/part_a.h"

#include <cassert>
#include <sstream>

#include "logic/homomorphism.h"
#include "reduction/bridge.h"

namespace tdlib {
namespace {

// The explicit embedding of the current bridge into the replay instance.
struct Embedding {
  std::vector<int> base;  ///< tuple ids of b0..bk
  std::vector<int> apex;  ///< tuple ids of t1..tk
};

// One decomposed derivation step.
struct DerivationStep {
  int equation_index;
  bool contraction;  ///< true: lhs -> rhs (AB -> C); false: rhs -> lhs
  int offset;        ///< occurrence offset in the source word
};

// Recovers (equation, direction, offset) turning `u` into `v`.
std::optional<DerivationStep> DecomposeStep(const Presentation& p,
                                            const Word& u, const Word& v) {
  for (std::size_t e = 0; e < p.equations().size(); ++e) {
    const Equation& eq = p.equations()[e];
    for (int dir = 0; dir < 2; ++dir) {
      const Word& pat = dir == 0 ? eq.lhs : eq.rhs;
      const Word& rep = dir == 0 ? eq.rhs : eq.lhs;
      for (int offset : FindOccurrences(u, pat)) {
        if (ReplaceAt(u, offset, pat, rep) == v) {
          return DerivationStep{static_cast<int>(e), dir == 0, offset};
        }
      }
    }
  }
  return std::nullopt;
}

// Ensures the chase step (dep, body rows -> given tuples) has fired and
// returns the id of a tuple witnessing the (single) head row. Counts a fire
// into *steps when a new tuple is inserted.
int EnsureFired(Instance* instance, const Dependency& dep,
                const std::vector<int>& body_row_tuples,
                std::uint64_t* steps) {
  assert(dep.IsTd());
  assert(static_cast<int>(body_row_tuples.size()) == dep.body().num_rows());

  // Body and head share one variable space, so the body valuation seeds
  // the head search as is: it binds exactly the universal variables.
  const Tableau& head = dep.head();
  Valuation valuation = Valuation::For(dep.body());
  for (int r = 0; r < dep.body().num_rows(); ++r) {
    TupleRef t = instance->tuple(body_row_tuples[r]);
    const Row& row = dep.body().row(r);
    for (int attr = 0; attr < dep.schema().arity(); ++attr) {
      const int slot = dep.body().VarIndex(attr, row[attr]);
      int bound = valuation.Get(slot);
      assert(bound < 0 || bound == t[attr]);
      (void)bound;
      valuation.Set(slot, t[attr]);
    }
  }

  // Is the head already witnessed under this match?
  HomomorphismSearch head_search(head, *instance);
  head_search.SetInitial(valuation);
  Valuation witness = valuation;
  if (head_search.FindAny(&witness) == HomSearchStatus::kFound) {
    Tuple t(dep.schema().arity());
    const Row& head_row = head.row(0);
    for (int attr = 0; attr < dep.schema().arity(); ++attr) {
      t[attr] = witness.Get(head.VarIndex(attr, head_row[attr]));
    }
    int id = instance->FindTuple(t);
    assert(id >= 0);
    return id;
  }

  // Fire: insert the head row, fresh nulls on existential positions.
  Tuple t(dep.schema().arity());
  const Row& head_row = dep.head().row(0);
  for (int attr = 0; attr < dep.schema().arity(); ++attr) {
    int var = head_row[attr];
    int val = dep.IsUniversal(attr, var)
                  ? valuation.Get(head.VarIndex(attr, var))
                  : instance->AddValue(attr, "", true);
    t[attr] = val;
  }
  bool added = instance->AddTuple(t);
  assert(added);
  (void)added;
  ++*steps;
  int id = instance->FindTuple(t);
  assert(id >= 0);
  return id;
}

// Verifies the bridge-for-`word` invariant: a bridge embeds into `instance`
// with base endpoints at tuples `a_id`/`b_id` and apexes E'-equivalent to
// tuple `d0_id`.
bool VerifyBridge(const ReductionSchema& rs, const Word& word,
                  const Instance& instance, int a_id, int b_id, int d0_id) {
  BridgeTableau bridge = BuildBridgeTableau(rs, word);
  Valuation initial = Valuation::For(bridge.tableau);
  auto pin_row = [&](int row_idx, int tuple_id) -> bool {
    const Row& row = bridge.tableau.row(row_idx);
    TupleRef t = instance.tuple(tuple_id);
    for (int attr = 0; attr < rs.arity(); ++attr) {
      const int slot = bridge.tableau.VarIndex(attr, row[attr]);
      int bound = initial.Get(slot);
      if (bound >= 0 && bound != t[attr]) return false;
      initial.Set(slot, t[attr]);
    }
    return true;
  };
  if (!pin_row(bridge.base_rows.front(), a_id)) return false;
  if (!pin_row(bridge.base_rows.back(), b_id)) return false;
  // All apex rows share one E' variable; pin it to d0's E' value.
  int ep_var = bridge.tableau.row(bridge.apex_rows.front())[rs.EPrime()];
  int d0_ep = instance.tuple(d0_id)[rs.EPrime()];
  const int ep_slot = bridge.tableau.VarIndex(rs.EPrime(), ep_var);
  int bound = initial.Get(ep_slot);
  if (bound >= 0 && bound != d0_ep) return false;
  initial.Set(ep_slot, d0_ep);

  HomomorphismSearch search(bridge.tableau, instance);
  search.SetInitial(initial);
  return search.FindAny(nullptr) == HomSearchStatus::kFound;
}

}  // namespace

PartAResult RunPartA(const Presentation& input, const PartAConfig& config) {
  PartAResult result;
  result.normalization = NormalizeTo21(input);
  const Presentation& p = result.normalization.normalized;

  result.word_problem = ProveA0IsZero(p, config.word_problem);

  Result<GurevichLewisReduction> reduction = GurevichLewisReduction::Create(p);
  assert(reduction.ok());
  const GurevichLewisReduction& red = reduction.value();
  const ReductionSchema& rs = red.reduction_schema();

  if (config.run_black_box_chase) {
    result.black_box = ChaseImplies(red.dependencies(), red.goal(), config.chase);
  }

  if (result.word_problem.status != WordProblemStatus::kEqual) {
    // Premise of direction (A) not established within bounds; nothing to
    // replay and nothing contradicts the theorem.
    result.consistent = true;
    return result;
  }

  // ---- Scripted replay of the derivation as chase steps. -------------------
  Instance instance = red.goal().body().Freeze();
  const int a_id = 0, b_id = 1, d0_id = 2;  // frozen body rows, in order
  Embedding emb;
  emb.base = {a_id, b_id};
  emb.apex = {d0_id};

  const std::vector<Word>& derivation = result.word_problem.derivation;
  bool all_embedded = true;
  auto record_stage = [&](const Word& w) {
    bool ok = !config.verify_bridges ||
              VerifyBridge(rs, w, instance, a_id, b_id, d0_id);
    all_embedded = all_embedded && ok;
    result.stages.push_back(
        BridgeStage{w, ok, static_cast<int>(instance.NumTuples())});
  };
  record_stage(derivation.front());

  for (std::size_t j = 0; j + 1 < derivation.size(); ++j) {
    std::optional<DerivationStep> step =
        DecomposeStep(p, derivation[j], derivation[j + 1]);
    assert(step.has_value());
    const int e = step->equation_index;
    const int pos = step->offset;
    auto gadget = [&](GadgetKind kind) -> const Dependency& {
      return red.dependencies().items[4 * e + static_cast<int>(kind) - 1];
    };
    if (step->contraction) {
      // AB -> C: consume apexes pos, pos+1 and midpoint base pos+1.
      std::vector<int> body = {emb.base[pos], emb.base[pos + 1],
                               emb.base[pos + 2], emb.apex[pos],
                               emb.apex[pos + 1]};
      int c_apex = EnsureFired(&instance, gadget(GadgetKind::kD1), body,
                               &result.replay_steps);
      emb.base.erase(emb.base.begin() + pos + 1);
      emb.apex.erase(emb.apex.begin() + pos, emb.apex.begin() + pos + 2);
      emb.apex.insert(emb.apex.begin() + pos, c_apex);
    } else {
      // C -> AB: spawn both legs, then merge midpoints via D4.
      std::vector<int> tri = {emb.base[pos], emb.base[pos + 1], emb.apex[pos]};
      int a_apex = EnsureFired(&instance, gadget(GadgetKind::kD2), tri,
                               &result.replay_steps);
      int b_apex = EnsureFired(&instance, gadget(GadgetKind::kD3), tri,
                               &result.replay_steps);
      std::vector<int> merge = {emb.base[pos], emb.base[pos + 1], emb.apex[pos],
                                a_apex, b_apex};
      int midpoint = EnsureFired(&instance, gadget(GadgetKind::kD4), merge,
                                 &result.replay_steps);
      emb.base.insert(emb.base.begin() + pos + 1, midpoint);
      emb.apex[pos] = a_apex;
      emb.apex.insert(emb.apex.begin() + pos + 1, b_apex);
    }
    record_stage(derivation[j + 1]);
  }

  // The final bridge is for the word "0"; D0's conclusion must now hold.
  ChaseGoal goal_check = ConclusionGoal(red.goal());
  result.replay_reached_goal = goal_check(instance);

  bool black_box_ok =
      !config.run_black_box_chase ||
      result.black_box.verdict == Implication::kImplied;
  result.consistent =
      result.replay_reached_goal && all_embedded && black_box_ok;
  return result;
}

std::string PartAResult::ToString() const {
  std::ostringstream oss;
  oss << "part A: word problem "
      << (word_problem.status == WordProblemStatus::kEqual ? "EQUAL"
          : word_problem.status == WordProblemStatus::kExhausted ? "EXHAUSTED"
                                                                 : "LIMIT")
      << ", derivation length " << word_problem.derivation.size()
      << ", replay steps " << replay_steps << ", goal "
      << (replay_reached_goal ? "reached" : "not reached") << ", "
      << (consistent ? "CONSISTENT" : "INCONSISTENT")
      << " with Reduction Theorem (A)";
  return oss.str();
}

}  // namespace tdlib
