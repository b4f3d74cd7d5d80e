// Seeded fault injection for robustness testing.
//
// The solver stack has many failure paths a healthy run never takes:
// allocation failure mid-chase, cancellation landing exactly on a phase
// boundary, a deadline expiring inside a search, a checkpoint corrupted on
// disk. This plane lets tests and the tdfuzz harness force each one
// deterministically, through named injection points compiled into the
// production code.
//
// Design constraints (mirroring util/metrics.h):
//   1. Zero-cost when off. Every site is guarded by
//      `FaultInjectionEnabled() && ShouldInject(site)`; disabled, that is
//      one relaxed atomic load and a branch. The flag flips on only when a
//      fault is armed, so production runs never pay the per-site counters.
//   2. Deterministic. ArmFault(site, nth) fires on exactly the nth
//      evaluation of that site after arming (1-based), then disarms itself;
//      ArmFaultAlways(site) fires on every evaluation until disarmed.
//      Evaluation counts are process-wide atomics, so single-threaded
//      harness runs are exactly reproducible.
//   3. Observable. Every actual injection bumps a per-site counter AND the
//      `fault.injected.<site>` metrics counter, so injected faults show up
//      in --metrics output next to the outcomes they caused.
//
// The TDLIB_FAULT environment variable arms sites without code changes:
//   TDLIB_FAULT="chase-alloc:3,deadline"   (nth omitted = every time)
#ifndef TDLIB_UTIL_FAULT_H_
#define TDLIB_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace tdlib {

/// Named injection points, one per hardened failure path.
enum class FaultSite {
  kChaseAlloc = 0,     ///< allocation failure between fires -> parked checkpoint
  kCancelQueue,        ///< cancel observed at worker pickup -> kCancelled
  kCancelMatch,        ///< cancel at the matching-phase boundary
  kCancelFire,         ///< cancel between fires
  kCancelCheckpoint,   ///< cancel racing the checkpoint capture
  kCancelResume,       ///< cancel at resume entry (checkpoint preserved)
  kDeadline,           ///< Deadline::Expired() forced true
  kCheckpointCorrupt,  ///< serialized checkpoint bytes corrupted in flight
  kFireOrderFlip,      ///< canonical fire-order comparison reversed (a
                       ///  deliberate bug for testing the differential
                       ///  harness's detection/minimization pipeline)
  kSocketRead,         ///< "cluster.socket-read": frame read cut short
                       ///  (truncated stream, as if the peer died mid-send)
  kSocketWrite,        ///< "cluster.socket-write": frame write fails
                       ///  (connection dropped under the sender)
  kFrameCorrupt,       ///< "cluster.frame-corrupt": outgoing cluster frame
                       ///  payload run through CorruptBytes before the wire
  kStoreRename,        ///< "cache.store-rename": result-cache save fails
                       ///  after the temp file is synced, before the rename
  kStoreDirSync,       ///< "cache.store-dirsync": result-cache save fails
                       ///  the fsync of the target's directory, after the
                       ///  rename
};
inline constexpr int kNumFaultSites =
    static_cast<int>(FaultSite::kStoreDirSync) + 1;

/// Global gate. False until the first Arm*; DisarmAllFaults() restores it.
bool FaultInjectionEnabled();

/// Fires on the nth evaluation of `site` from now (1-based), once.
void ArmFault(FaultSite site, std::uint64_t nth = 1);

/// Fires on every evaluation of `site` until disarmed.
void ArmFaultAlways(FaultSite site);

void DisarmFault(FaultSite site);

/// Disarms every site, zeroes all counters and turns the global gate off.
/// Tests call this in set-up/tear-down for isolation.
void DisarmAllFaults();

/// The per-site evaluation hook. Returns true iff the armed fault fires at
/// this evaluation. Always call behind FaultInjectionEnabled() — the
/// counter bookkeeping is not free.
bool ShouldInject(FaultSite site);

/// How many times `site` actually fired since the last DisarmAllFaults.
std::uint64_t FaultInjectionCount(FaultSite site);

/// "chase-alloc", "cancel-queue", ... (the TDLIB_FAULT spelling).
std::string_view FaultSiteName(FaultSite site);
std::optional<FaultSite> FaultSiteFromName(std::string_view name);

/// Arms sites from a spec string: comma-separated `site` or `site:nth`
/// entries. Returns false (arming nothing further) on the first malformed
/// entry, with a description in *error when non-null.
bool ArmFaultsFromSpec(std::string_view spec, std::string* error = nullptr);

/// Reads TDLIB_FAULT and arms accordingly (malformed specs are ignored with
/// a one-line stderr warning). Entry points call this once at start-up.
void ArmFaultsFromEnv();

/// Deterministically damages serialized bytes: even seeds truncate the
/// buffer at a seed-derived offset, odd seeds flip one seed-derived bit.
/// The corruption helper behind FaultSite::kCheckpointCorrupt and the
/// corrupt-corpus regression suite.
void CorruptBytes(std::string* bytes, std::uint64_t seed);

/// Applies CorruptBytes(bytes, seed) iff kCheckpointCorrupt is armed and
/// fires at this evaluation. Call sites that persist checkpoints/sessions
/// route their bytes through here so the corruption plane can reach them.
void MaybeCorruptCheckpointBytes(std::string* bytes, std::uint64_t seed);

}  // namespace tdlib

#endif  // TDLIB_UTIL_FAULT_H_
