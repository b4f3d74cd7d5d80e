#include "logic/homomorphism.h"

#include <algorithm>
#include <limits>

#include "util/simd.h"

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
      undo_storage_(source.num_rows()),
      filter_storage_(source.num_rows()) {
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
  if (options_.delta_begin < 0 || options_.delta_seed_row < 0) {
    return {0, std::numeric_limits<int>::max()};
  }
  if (row_idx < options_.delta_seed_row) return {0, options_.delta_begin};
  if (row_idx == options_.delta_seed_row) {
    // The seed row binds the delta — or, when the chase sliced this
    // partition member into sub-tasks, one sub-range of it.
    int lo = options_.delta_seed_begin >= 0 ? options_.delta_seed_begin
                                            : options_.delta_begin;
    int hi = options_.delta_seed_end >= 0 ? options_.delta_seed_end
                                          : std::numeric_limits<int>::max();
    return {lo, hi};
  }
  return {0, std::numeric_limits<int>::max()};
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
  out->filtered_attr = -1;
  if (options_.use_index) {
    // Drive from the shortest bound-position posting list (ties keep the
    // lowest attribute). The other bound positions are filtered per
    // candidate (block masks when use_simd, TryBindRow otherwise); the
    // driver's own attribute is guaranteed by the posting list, so the block
    // evaluator skips that column.
    CandidateList driver;
    const int* slots = RowSlots(row_idx);
    for (int attr = 0; attr < arity_; ++attr) {
      int bound = valuation_.Get(slots[attr]);
      if (bound < 0) continue;
      CandidateList list = target_.TuplesWith(attr, bound);
      if (out->filtered_attr < 0 || list.size() < driver.size()) {
        driver = list;
        out->filtered_attr = attr;
      }
    }
    if (out->filtered_attr >= 0) {
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
  // The semi-naive partition as per-row id windows: candidate runs are
  // ascending, so the window is one lower_bound plus an early break.
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
  if (options_.use_simd) {
    // Block candidate evaluation: AND one survivor bitmask per bound
    // position over up to 64 candidates at a time, then bind only the
    // survivors. The filter set is fixed for the whole depth (TryBindRow
    // undoes its bindings before the next candidate, so the bound
    // positions seen by every candidate at this depth are identical).
    std::vector<std::pair<int, int>>& filters = filter_storage_[depth];
    filters.clear();
    const int* slots = RowSlots(row_idx);
    for (int attr = 0; attr < arity_; ++attr) {
      if (attr == candidates.filtered_attr) continue;
      int bound = valuation_.Get(slots[attr]);
      if (bound >= 0) filters.emplace_back(attr, bound);
    }
    for (int run = 0; run < 2 && !window_closed; ++run) {
      const IdSpan span = candidates.runs[run];
      const int* ids = span.begin();
      std::size_t limit = span.size();
      if (limit > 0 && ids[limit - 1] >= max_id) {
        // Ascending runs: everything from the first id past the window is
        // out, and reaching the window's edge ends run 1 too (same flip the
        // scalar loop does when it SEES the first out-of-window id).
        limit = static_cast<std::size_t>(
            std::lower_bound(ids, ids + limit, max_id) - ids);
        window_closed = true;
      }
      for (std::size_t blk = 0; blk < limit; blk += 64) {
        const std::size_t bn = std::min<std::size_t>(64, limit - blk);
        const int* bids = ids + blk;
        std::uint64_t mask =
            bn == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bn) - 1;
        if (!filters.empty()) {
          // Consecutive-id blocks (full scans, dense delta windows, CSR
          // groups without holes) walk the column at a constant stride;
          // scattered blocks gather.
          const bool consecutive =
              bids[bn - 1] - bids[0] == static_cast<int>(bn) - 1;
          for (const auto& [attr, value] : filters) {
            const ColumnSpan col = target_.Column(attr);
            mask &= consecutive
                        ? EqMaskI32(col.data + bids[0] * col.stride,
                                    col.stride, bn, value)
                        : EqMaskGatherI32(col.data, col.stride, bids, bn,
                                          value);
            if (mask == 0) break;
          }
        }
        // Exact-parity accounting: the scalar loop counts every id up to
        // and including the last one it reached. Charging each survivor for
        // itself plus the rejected ids since the previous survivor keeps
        // `candidates` byte-identical even when a visitor or budget stops
        // the search mid-block (ids past the stopping point stay
        // uncounted, exactly like the scalar loop never reaching them).
        std::size_t counted = 0;
        while (mask != 0) {
          const unsigned p = static_cast<unsigned>(__builtin_ctzll(mask));
          mask &= mask - 1;
          stats_.candidates += p + 1 - counted;
          counted = p + 1;
          const int tuple_id = bids[p];
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
        stats_.candidates += bn - counted;
      }
    }
    row_done_[row_idx] = false;
    return true;
  }
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
