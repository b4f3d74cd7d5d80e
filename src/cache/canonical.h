// The canonicalizer: implication problems modulo renaming.
//
// The Gurevich–Lewis reduction (and production traffic generally) produces
// floods of implication questions that differ only by variable and
// attribute *names* — millions of user queries collapse onto a much smaller
// space of problems up to renaming. This module computes that quotient:
// a canonical text form of (D, D0, solver budgets) that is invariant under
//
//   * attribute renaming  — attributes are reduced to their positions, so
//     schemas {A,B,C} and {X,Y,Z} canonicalize identically;
//   * variable renaming   — within each attribute, variables are relabeled
//     by first occurrence scanning body rows then head rows left to right,
//     which erases both display names and the (arbitrary) allocation order
//     of variable ids while preserving the equality pattern;
//   * dependency names    — DependencySet::names and Job::name are
//     provenance, not semantics, and are excluded.
//
// and sensitive to everything the engine's byte-identity contract depends
// on: dependency ORDER in D (the canonical fire order keys on dependency
// index, so permuting D legitimately changes traces and counters), row
// order inside each tableau, and every deterministic solver budget
// (rounds, step/tuple/node budgets, matching-strategy knobs) — two jobs
// share a fingerprint only if a fresh solve of either produces the same
// DeterministicSummary bytes, which is what lets the result cache replay
// verdicts verbatim. Wall-clock deadlines make runs nondeterministic, so
// configs carrying one are not cacheable at all (CacheableConfig).
//
// One encoder produces the form. CanonicalProblemText collects its bytes
// into a string; FingerprintProblem streams the very same bytes into an
// incremental hash (util/hash.h::Hasher128) without building the text, so
// every submission's cache consult skips the string. The fingerprint equals
// HashBytes128 over the text, bit for bit, so fingerprints (and the cache
// files and ring placements keyed on them) are the same as in builds that
// hashed the rendered text.
#ifndef TDLIB_CACHE_CANONICAL_H_
#define TDLIB_CACHE_CANONICAL_H_

#include <string>

#include "cache/fingerprint.h"
#include "chase/dual_solver.h"
#include "core/dependency.h"

namespace tdlib {

/// True iff results under `config` are a deterministic function of
/// (D, D0, config) — the precondition for caching them. Wall-clock
/// deadlines (chase or model-search side) stop runs at machine-load-
/// dependent points, so they void cacheability; every other budget
/// (steps, tuples, nodes, candidates, rounds) trips deterministically.
bool CacheableConfig(const DualSolverConfig& config);

/// Renders the canonical text form described in the file comment. Exposed
/// for tests and debugging; the cache itself only ever sees the hash.
std::string CanonicalProblemText(const DependencySet& d, const Dependency& d0,
                                 const DualSolverConfig& config);

/// Hashes the canonical form into a 128-bit content address, equal to
/// HashBytes128 over CanonicalProblemText's bytes. Returns an INVALID
/// fingerprint when `config` is not cacheable, so callers can gate on
/// `.valid` alone.
CacheFingerprint FingerprintProblem(const DependencySet& d,
                                    const Dependency& d0,
                                    const DualSolverConfig& config);

}  // namespace tdlib

#endif  // TDLIB_CACHE_CANONICAL_H_
