#include "logic/homomorphism.h"

#include <algorithm>
#include <limits>

namespace tdlib {
Valuation Valuation::For(const Tableau& t) {
  return Valuation{std::vector<int>(static_cast<std::size_t>(t.TotalVars()),
                                    -1)};
}

HomomorphismSearch::HomomorphismSearch(const Tableau& source,
                                       const Instance& target,
                                       HomSearchOptions options)
    : source_(source),
      target_(target),
      options_(options),
      arity_(source.schema().arity()),
      valuation_(Valuation::For(source)),
      row_done_(source.num_rows(), false),
      row_tuples_(source.num_rows(), -1),
      candidate_storage_(source.num_rows()),
      undo_storage_(source.num_rows()) {
  row_slots_.reserve(static_cast<std::size_t>(source.num_rows()) * arity_);
  for (const Row& r : source.rows()) {
    for (int attr = 0; attr < arity_; ++attr) {
      row_slots_.push_back(source.VarIndex(attr, r[attr]));
    }
  }
}

void HomomorphismSearch::SetInitial(const Valuation& initial) {
  valuation_ = initial;
}

HomSearchStatus HomomorphismSearch::FindAny(Valuation* result) {
  HomSearchStatus status = ForEach([&](const Valuation& v) {
    if (result != nullptr) *result = v;
    return false;  // stop at the first hit
  });
  // ForEach reports kFound when the visitor stopped it.
  return status;
}

HomSearchStatus HomomorphismSearch::ForEach(
    const std::function<bool(const Valuation&)>& visit) {
  stats_ = HomSearchStats{};
  delta_rows_bound_ = 0;
  std::fill(row_done_.begin(), row_done_.end(), false);
  bool stopped = false;
  Backtrack(0, visit, &stopped);
  if (stopped) return HomSearchStatus::kFound;
  return stats_.budget_hit ? HomSearchStatus::kBudget
                           : HomSearchStatus::kExhausted;
}

std::pair<int, int> HomomorphismSearch::RowIdBounds(int row_idx) const {
  const int cap = options_.id_end >= 0 ? options_.id_end
                                       : std::numeric_limits<int>::max();
  if (options_.delta_begin < 0 || options_.delta_seed_row < 0) {
    return {0, cap};
  }
  if (row_idx < options_.delta_seed_row) {
    return {0, std::min(cap, options_.delta_begin)};
  }
  if (row_idx == options_.delta_seed_row) {
    // The seed row binds the delta — or, when the chase sliced this
    // partition member into sub-tasks, one sub-range of it.
    int lo = options_.delta_seed_begin >= 0 ? options_.delta_seed_begin
                                            : options_.delta_begin;
    int hi = options_.delta_seed_end >= 0 ? options_.delta_seed_end
                                          : std::numeric_limits<int>::max();
    return {lo, std::min(cap, hi)};
  }
  return {0, cap};
}

int HomomorphismSearch::PickNextRow() const {
  if (!options_.use_dynamic_order) {
    for (int i = 0; i < source_.num_rows(); ++i) {
      if (!row_done_[i]) return i;
    }
    return -1;
  }
  // Most-constrained-first: prefer the row whose smallest bound-position
  // candidate list is shortest; rows with no bound position score the whole
  // instance size. A delta-restricted id range caps the score too, so the
  // seed row (candidates = the delta, usually tiny) is matched early.
  int best = -1;
  std::size_t best_score = std::numeric_limits<std::size_t>::max();
  for (int i = 0; i < source_.num_rows(); ++i) {
    if (row_done_[i]) continue;
    auto [min_id, max_id] = RowIdBounds(i);
    std::size_t range = 0;
    int capped = static_cast<int>(
        std::min<std::size_t>(target_.NumTuples(),
                              static_cast<std::size_t>(max_id)));
    if (capped > min_id) range = static_cast<std::size_t>(capped - min_id);
    std::size_t score = range;
    const int* slots = RowSlots(i);
    for (int attr = 0; attr < arity_; ++attr) {
      int bound = valuation_.Get(slots[attr]);
      if (bound >= 0) {
        score = std::min(score, target_.CountWith(attr, bound));
      }
    }
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

void HomomorphismSearch::RowCandidates(int row_idx, int min_id, int max_id,
                                       std::vector<int>* storage,
                                       CandidateRuns* out) {
  out->runs[0] = IdSpan();
  out->runs[1] = IdSpan();
  if (options_.use_index) {
    // Drive from the shortest bound-position posting list (ties keep the
    // lowest attribute). TryBindRow filters each candidate on the other
    // bound positions.
    CandidateList driver;
    bool have_driver = false;
    const int* slots = RowSlots(row_idx);
    for (int attr = 0; attr < arity_; ++attr) {
      int bound = valuation_.Get(slots[attr]);
      if (bound < 0) continue;
      CandidateList list = target_.TuplesWith(attr, bound);
      if (!have_driver || list.size() < driver.size()) {
        driver = list;
        have_driver = true;
      }
    }
    if (have_driver) {
      // Borrowed index spans, zero copies. Runs are ascending with base ids
      // < tail ids, so a delta cutoff is one binary search per run.
      out->runs[0] =
          min_id > 0 ? driver.base().SuffixFrom(min_id) : driver.base();
      out->runs[1] =
          min_id > 0 ? driver.tail().SuffixFrom(min_id) : driver.tail();
      return;
    }
  }
  storage->clear();
  const std::size_t scan_end = std::min<std::size_t>(
      target_.NumTuples(), static_cast<std::size_t>(max_id));
  if (scan_end > static_cast<std::size_t>(min_id)) {
    storage->reserve(scan_end - static_cast<std::size_t>(min_id));
    for (std::size_t i = static_cast<std::size_t>(min_id); i < scan_end; ++i) {
      storage->push_back(static_cast<int>(i));
    }
  }
  out->runs[0] = IdSpan(storage->data(), storage->size());
}

bool HomomorphismSearch::TryBindRow(int row_idx, TupleRef tuple,
                                    std::vector<int>* undo) {
  const int* slots = RowSlots(row_idx);
  for (int attr = 0; attr < arity_; ++attr) {
    const int slot = slots[attr];
    int bound = valuation_.Get(slot);
    if (bound >= 0) {
      if (bound != tuple[attr]) {
        UndoBindings(*undo);
        undo->clear();
        return false;
      }
    } else {
      valuation_.Set(slot, tuple[attr]);
      undo->push_back(slot);
    }
  }
  return true;
}

void HomomorphismSearch::UndoBindings(const std::vector<int>& undo) {
  for (int slot : undo) valuation_.Set(slot, -1);
}

bool HomomorphismSearch::Backtrack(
    int depth, const std::function<bool(const Valuation&)>& visit,
    bool* stopped) {
  if (options_.max_nodes > 0 && stats_.nodes >= options_.max_nodes) {
    stats_.budget_hit = true;
    return false;
  }
  // Amortized wall-clock / cancel check: a single pumped search can run for
  // seconds, so waiting for the caller to look at the clock between
  // searches lets a deadline overshoot arbitrarily. The cancel flag rides
  // the same cadence — it is how a concurrent sibling search's budget trip
  // winds this one down.
  if ((stats_.nodes & 0x1FF) == 0x1FF) {
    if (options_.deadline != nullptr && options_.deadline->Expired()) {
      stats_.budget_hit = true;
      stats_.deadline_hit = true;
      return false;
    }
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      stats_.budget_hit = true;
      return false;
    }
    if (options_.job_cancel != nullptr &&
        options_.job_cancel->load(std::memory_order_relaxed)) {
      stats_.budget_hit = true;
      stats_.cancel_hit = true;
      return false;
    }
  }
  ++stats_.nodes;
  if (depth == source_.num_rows()) {
    // All rows matched. Complete the valuation on variables that appear in
    // no row (possible when the variable space is wider than the rows): they
    // are unconstrained, so leave them unbound; visitors treat -1 as "any".
    if (!visit(valuation_)) {
      *stopped = true;
      return false;
    }
    return true;
  }
  int row_idx = PickNextRow();
  // The semi-naive partition and the id cap as per-row id windows:
  // candidate runs are ascending, so the window is one lower_bound plus an
  // early break.
  auto [min_id, max_id] = RowIdBounds(row_idx);
  const bool any_row_mode =
      options_.delta_begin >= 0 && options_.delta_seed_row < 0;
  if (any_row_mode && delta_rows_bound_ == 0 &&
      depth == source_.num_rows() - 1) {
    // "Any row" mode: if no row has hit the delta yet, only a delta tuple
    // on the last undone row can complete a delta-touching match.
    min_id = std::max(min_id, options_.delta_begin);
  }
  std::vector<int>& storage = candidate_storage_[depth];
  CandidateRuns candidates;
  RowCandidates(row_idx, min_id, max_id, &storage, &candidates);
  row_done_[row_idx] = true;
  std::vector<int>& undo = undo_storage_[depth];
  undo.clear();
  bool window_closed = false;
  for (int run = 0; run < 2 && !window_closed; ++run) {
    for (int tuple_id : candidates.runs[run]) {
      // Runs are ascending and run 0's ids all precede run 1's, so the first
      // id past the window ends the whole iteration.
      if (tuple_id >= max_id) {
        window_closed = true;
        break;
      }
      ++stats_.candidates;
      undo.clear();
      if (!TryBindRow(row_idx, target_.tuple(tuple_id), &undo)) continue;
      row_tuples_[row_idx] = tuple_id;
      bool in_delta = any_row_mode && tuple_id >= options_.delta_begin;
      delta_rows_bound_ += in_delta ? 1 : 0;
      bool keep_going = Backtrack(depth + 1, visit, stopped);
      delta_rows_bound_ -= in_delta ? 1 : 0;
      UndoBindings(undo);
      if (!keep_going && (*stopped || stats_.budget_hit)) {
        row_done_[row_idx] = false;
        return false;
      }
    }
  }
  row_done_[row_idx] = false;
  return true;
}

HomSearchStatus ExistsHomomorphism(const Tableau& source,
                                   const Instance& target,
                                   HomSearchOptions options) {
  HomomorphismSearch search(source, target, options);
  return search.FindAny(nullptr);
}

HomSearchStatus MapsInto(const Tableau& from, const Tableau& to,
                         HomSearchOptions options) {
  Instance frozen = to.Freeze();
  return ExistsHomomorphism(from, frozen, options);
}

}  // namespace tdlib
