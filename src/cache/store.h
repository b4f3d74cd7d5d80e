// Persistent result-cache store: warm starts across process runs.
//
// tdbatch's --cache-file=PATH loads this before a batch and saves after it,
// so a re-run of an isomorph-heavy workload (the Gurevich–Lewis reduction
// sweeps are exactly that) starts hot. The format follows the portable-text
// discipline of chase/ChaseCheckpoint: version-tagged header, decimal
// fields, explicit "end" terminator, and kCorrupt-typed rejection of
// anything malformed — a damaged warm-start file must degrade to a cold
// start with a diagnosable error, never to wrong verdicts or a crash
// (tests/serialization_corrupt_test.cc sweeps single-byte damage over it).
//
//   tdlib-result-cache 1
//   <count>
//   <hi hex> <lo hex> <verdict> <rounds> <steps> <passes> <hom> <match>
//       <carried> <cands>          (one line per entry, count times)
//   end
//
// Entries carry only the deterministic payload: hit counts and trace ids
// are runtime provenance and reset on load. Loading goes through
// ResultCache::Insert, so a file bigger than the byte budget simply evicts
// — and because SaveResultCache writes most-recent-first, a truncating
// reload keeps the hottest entries.
#ifndef TDLIB_CACHE_STORE_H_
#define TDLIB_CACHE_STORE_H_

#include <iosfwd>
#include <string>

#include "cache/result_cache.h"
#include "util/status.h"

namespace tdlib {

/// Writes every cache entry in ForEach order (most recent first per shard).
void SaveResultCache(std::ostream& os, const ResultCache& cache);

/// Parses `is` and inserts every valid entry into `cache`. Returns the
/// number of entries loaded, or a kCorrupt-typed error naming the first
/// malformed line (bad magic/version, absurd count, out-of-range verdict,
/// unparseable field, missing "end", trailing garbage). Entries before the
/// damage point are already inserted when an error returns — callers that
/// want all-or-nothing should load into a scratch cache first; tdbatch
/// deliberately keeps the prefix (a warm start is best-effort).
Result<int> LoadResultCache(std::istream& is, ResultCache* cache);

/// File-path conveniences. Load returns kNotFound for an unopenable path
/// (distinct from kCorrupt: "no warm-start file yet" is not damage). Save
/// is crash-safe: it writes and fsyncs a temp file in the same directory,
/// renames it over `path` and fsyncs the directory, so a crash mid-save
/// leaves the previous file intact. If the save fails before the rename,
/// the temp file is removed and `path` is untouched; if only the directory
/// fsync fails, the new file is in place but the error is still returned.
/// After a successful save, temp files left beside `path` by savers that
/// died (their pid names no live process) are removed.
Result<int> LoadResultCacheFile(const std::string& path, ResultCache* cache);
Result<int> SaveResultCacheFile(const std::string& path,
                                const ResultCache& cache);

}  // namespace tdlib

#endif  // TDLIB_CACHE_STORE_H_
