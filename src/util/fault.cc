#include "util/fault.h"

#include <cstdio>
#include <cstdlib>

#include "util/metrics.h"

namespace tdlib {
namespace {

// arm_at semantics: 0 = disarmed, kAlways = fire on every evaluation,
// anything else = fire when the evaluation counter reaches that value.
constexpr std::uint64_t kAlways = ~std::uint64_t{0};

struct SiteState {
  std::atomic<std::uint64_t> evals{0};
  std::atomic<std::uint64_t> arm_at{0};
  std::atomic<std::uint64_t> injected{0};
};

SiteState g_sites[kNumFaultSites];
std::atomic<bool> g_enabled{false};

SiteState& State(FaultSite site) { return g_sites[static_cast<int>(site)]; }

// Site names double as the TDLIB_FAULT vocabulary and the metrics suffix.
constexpr std::string_view kSiteNames[kNumFaultSites] = {
    "chase-alloc",       "cancel-queue",  "cancel-match",
    "cancel-fire",       "cancel-checkpoint", "cancel-resume",
    "deadline",          "checkpoint-corrupt", "fire-order-flip",
    "cluster.socket-read", "cluster.socket-write", "cluster.frame-corrupt",
    "cache.store-rename", "cache.store-dirsync",
};

// Injection counters are registered lazily (the registry allocates per
// name), and only the sites that actually fire appear in a snapshot.
Counter* InjectionCounter(FaultSite site) {
  static Counter* counters[kNumFaultSites] = {};
  const int i = static_cast<int>(site);
  if (counters[i] == nullptr) {
    counters[i] = MetricsRegistry::Global().GetCounter(
        "fault.injected." + std::string(kSiteNames[i]));
  }
  return counters[i];
}

}  // namespace

bool FaultInjectionEnabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void ArmFault(FaultSite site, std::uint64_t nth) {
  if (nth == 0) nth = 1;
  SiteState& s = State(site);
  // Count from "now": nth is relative to the arming point, so a test can
  // re-arm the same site without tracking historical evaluation totals.
  s.arm_at.store(s.evals.load(std::memory_order_relaxed) + nth,
                 std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

void ArmFaultAlways(FaultSite site) {
  State(site).arm_at.store(kAlways, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_relaxed);
}

void DisarmFault(FaultSite site) {
  State(site).arm_at.store(0, std::memory_order_relaxed);
}

void DisarmAllFaults() {
  for (SiteState& s : g_sites) {
    s.arm_at.store(0, std::memory_order_relaxed);
    s.evals.store(0, std::memory_order_relaxed);
    s.injected.store(0, std::memory_order_relaxed);
  }
  g_enabled.store(false, std::memory_order_relaxed);
}

bool ShouldInject(FaultSite site) {
  SiteState& s = State(site);
  const std::uint64_t arm = s.arm_at.load(std::memory_order_relaxed);
  if (arm == 0) return false;
  const std::uint64_t eval =
      s.evals.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire;
  if (arm == kAlways) {
    fire = true;
  } else {
    fire = eval == arm;
    // One-shot: exactly-once even if two threads race past the same count
    // (fetch_add hands out distinct eval values, so only one matches).
    if (fire) s.arm_at.store(0, std::memory_order_relaxed);
  }
  if (fire) {
    s.injected.fetch_add(1, std::memory_order_relaxed);
    // The metrics counter is itself gated on MetricsEnabled(); injection
    // accounting in --metrics output only exists when metrics are on.
    InjectionCounter(site)->Add(1);
  }
  return fire;
}

std::uint64_t FaultInjectionCount(FaultSite site) {
  return State(site).injected.load(std::memory_order_relaxed);
}

std::string_view FaultSiteName(FaultSite site) {
  return kSiteNames[static_cast<int>(site)];
}

std::optional<FaultSite> FaultSiteFromName(std::string_view name) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    if (kSiteNames[i] == name) return static_cast<FaultSite>(i);
  }
  return std::nullopt;
}

bool ArmFaultsFromSpec(std::string_view spec, std::string* error) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    std::string_view name = entry;
    std::uint64_t nth = 0;  // 0 = always
    const std::size_t colon = entry.find(':');
    if (colon != std::string_view::npos) {
      name = entry.substr(0, colon);
      std::string_view count = entry.substr(colon + 1);
      nth = 0;
      if (count.empty()) {
        if (error != nullptr) *error = "empty count in '" + std::string(entry) + "'";
        return false;
      }
      for (char c : count) {
        if (c < '0' || c > '9') {
          if (error != nullptr) {
            *error = "bad count in '" + std::string(entry) + "'";
          }
          return false;
        }
        nth = nth * 10 + static_cast<std::uint64_t>(c - '0');
      }
      if (nth == 0) {
        if (error != nullptr) *error = "count must be >= 1 in '" +
                                       std::string(entry) + "'";
        return false;
      }
    }
    std::optional<FaultSite> site = FaultSiteFromName(name);
    if (!site.has_value()) {
      if (error != nullptr) *error = "unknown fault site '" +
                                     std::string(name) + "'";
      return false;
    }
    if (nth == 0) {
      ArmFaultAlways(*site);
    } else {
      ArmFault(*site, nth);
    }
  }
  return true;
}

void ArmFaultsFromEnv() {
  const char* spec = std::getenv("TDLIB_FAULT");
  if (spec == nullptr || spec[0] == '\0') return;
  std::string error;
  if (!ArmFaultsFromSpec(spec, &error)) {
    std::fprintf(stderr, "TDLIB_FAULT ignored: %s\n", error.c_str());
  }
}

void CorruptBytes(std::string* bytes, std::uint64_t seed) {
  if (bytes->empty()) return;
  // splitmix64: one multiply-xor round is plenty to decorrelate adjacent
  // seeds, and the corruption stays a pure function of (bytes size, seed).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  if (seed % 2 == 0) {
    bytes->resize(z % bytes->size());  // truncation, possibly to empty
  } else {
    const std::size_t byte = static_cast<std::size_t>(z % bytes->size());
    (*bytes)[byte] = static_cast<char>(
        (*bytes)[byte] ^ static_cast<char>(1 << ((z >> 8) % 8)));
  }
}

void MaybeCorruptCheckpointBytes(std::string* bytes, std::uint64_t seed) {
  if (!FaultInjectionEnabled()) return;
  if (!ShouldInject(FaultSite::kCheckpointCorrupt)) return;
  CorruptBytes(bytes, seed);
}

}  // namespace tdlib
