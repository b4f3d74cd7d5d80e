#include "cache/store.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "cache/fingerprint.h"
#include "util/fault.h"

namespace tdlib {
namespace {

constexpr char kMagic[] = "tdlib-result-cache";
// Entries hold chase counters (hom_nodes, match_tasks), which depend on how
// the chase schedules its matches. Version 2: a pass matches and fires one
// dependency at a time, so a version-1 entry's counters are ones no current
// run would produce; such files are refused and the warm start runs cold.
constexpr int kVersion = 2;

// Upper bound on a plausible entry count: far above any real cache (a
// 4M-entry cache would model at 1 GiB) and far below anything that could
// make a corrupted count allocate the process to death.
constexpr std::int64_t kMaxEntries = std::int64_t{1} << 22;

Result<int> Corrupt(const std::string& what) {
  return Result<int>::Error(ErrorCode::kCorrupt,
                            "result-cache store: " + what);
}

bool ParseHex64(const std::string& token, std::uint64_t* out) {
  if (token.empty() || token.size() > 16) return false;
  std::uint64_t value = 0;
  for (char c : token) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = value;
  return true;
}

std::filesystem::path DirectoryOf(const std::string& path) {
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  return dir.empty() ? std::filesystem::path(".") : dir;
}

// fsyncs `dir`, so a rename into it survives a power loss.
bool SyncDirectory(const std::filesystem::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  return ::close(fd) == 0 && ok;
}

// The pid of a temp-file suffix "<pid>.<n>", or 0 when `suffix` has
// another shape.
pid_t TempFilePid(std::string_view suffix) {
  const char* const end = suffix.data() + suffix.size();
  pid_t pid = 0;
  auto [dot, err] = std::from_chars(suffix.data(), end, pid);
  if (err != std::errc() || dot == end || *dot != '.') return 0;
  std::uint64_t n = 0;
  auto [tail, n_err] = std::from_chars(dot + 1, end, n);
  return n_err == std::errc() && tail == end ? pid : 0;
}

// Unlinks `<path>.tmp.<pid>.<n>` siblings whose saver died before its
// rename: those whose pid names no live process. The temp files of live
// savers, this process included, are left alone.
void RemoveOrphanTempFiles(const std::string& path) {
  namespace fs = std::filesystem;
  const std::string prefix = fs::path(path).filename().string() + ".tmp.";
  std::error_code ec;
  for (fs::directory_iterator it(DirectoryOf(path), ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    const pid_t pid =
        TempFilePid(std::string_view(name).substr(prefix.size()));
    if (pid > 0 && ::kill(pid, 0) != 0 && errno == ESRCH) {
      std::error_code ignored;
      fs::remove(it->path(), ignored);
    }
  }
}

}  // namespace

void SaveResultCache(std::ostream& os, const ResultCache& cache) {
  const CacheStats stats = cache.Stats();
  os << kMagic << ' ' << kVersion << '\n' << stats.entries << '\n';
  char hex[17];
  cache.ForEach([&os, &hex](const CacheFingerprint& fp,
                            const CachedVerdict& v) {
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fp.hi));
    os << hex << ' ';
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fp.lo));
    os << hex << ' ' << static_cast<int>(v.verdict) << ' ' << v.rounds_used
       << ' ' << v.chase_steps << ' ' << v.chase_passes << ' ' << v.hom_nodes
       << ' ' << v.match_tasks << ' ' << v.carried_passes << ' '
       << v.candidates_checked << '\n';
  });
  os << "end\n";
}

Result<int> LoadResultCache(std::istream& is, ResultCache* cache) {
  std::string magic;
  int version = 0;
  if (!(is >> magic) || magic != kMagic) return Corrupt("bad magic");
  if (!(is >> version) || version != kVersion) {
    return Corrupt("unsupported version");
  }
  std::int64_t count = 0;
  if (!(is >> count) || count < 0 || count > kMaxEntries) {
    return Corrupt("implausible entry count");
  }
  int loaded = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    std::string hi_hex, lo_hex;
    int verdict = 0, rounds = 0;
    std::uint64_t steps = 0, passes = 0, hom = 0, match = 0, carried = 0,
                  cands = 0;
    if (!(is >> hi_hex >> lo_hex >> verdict >> rounds >> steps >> passes >>
          hom >> match >> carried >> cands)) {
      return Corrupt("truncated or unparseable entry " + std::to_string(i));
    }
    CacheFingerprint fp;
    if (!ParseHex64(hi_hex, &fp.hi) || !ParseHex64(lo_hex, &fp.lo)) {
      return Corrupt("bad fingerprint in entry " + std::to_string(i));
    }
    fp.valid = true;
    if (verdict < static_cast<int>(DualVerdict::kImplied) ||
        verdict > static_cast<int>(DualVerdict::kUnknown)) {
      return Corrupt("verdict out of range in entry " + std::to_string(i));
    }
    if (rounds < 0) {
      return Corrupt("negative rounds in entry " + std::to_string(i));
    }
    CachedVerdict v;
    v.verdict = static_cast<DualVerdict>(verdict);
    v.rounds_used = rounds;
    v.chase_steps = steps;
    v.chase_passes = passes;
    v.hom_nodes = hom;
    v.match_tasks = match;
    v.carried_passes = carried;
    v.candidates_checked = cands;
    cache->Insert(fp, v);
    ++loaded;
  }
  std::string terminator;
  if (!(is >> terminator) || terminator != "end") {
    return Corrupt("missing end marker");
  }
  if (is >> terminator) return Corrupt("trailing garbage after end");
  return loaded;
}

Result<int> LoadResultCacheFile(const std::string& path, ResultCache* cache) {
  std::ifstream in(path);
  if (!in) {
    return Result<int>::Error(ErrorCode::kNotFound,
                              "cannot open result-cache file: " + path);
  }
  return LoadResultCache(in, cache);
}

Result<int> SaveResultCacheFile(const std::string& path,
                                const ResultCache& cache) {
  // Crash-safe replace: write a temp file beside `path`, fsync it, rename
  // it over `path`, then fsync the directory so the rename itself is
  // durable. rename(2) is atomic within a directory, so a crash at any
  // point leaves either the old file or the new one, never a truncated mix;
  // on any failure before the rename the temp file is removed.
  std::ostringstream text;
  SaveResultCache(text, cache);
  const std::string bytes = text.str();
  // The pid and a process-wide counter keep concurrent savers apart; the
  // mode leaves permissions to the umask, as a plain create would.
  static std::atomic<std::uint64_t> saves{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(saves.fetch_add(1));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Result<int>::Error(ErrorCode::kNotFound,
                              "cannot write result-cache file: " + path);
  }
  bool ok = true;
  for (std::size_t off = 0; ok && off < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    ok = n > 0;
    if (ok) off += static_cast<std::size_t>(n);
  }
  ok = ok && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  if (ok && FaultInjectionEnabled() &&
      ShouldInject(FaultSite::kStoreRename)) {
    ok = false;  // the save dies after the fsync, before the rename
  }
  ok = ok && ::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    ::unlink(tmp.c_str());
    return Result<int>::Error(ErrorCode::kUnknown,
                              "cannot save result-cache file: " + path);
  }
  const bool dirsync_fails =
      FaultInjectionEnabled() && ShouldInject(FaultSite::kStoreDirSync);
  if (dirsync_fails || !SyncDirectory(DirectoryOf(path))) {
    return Result<int>::Error(
        ErrorCode::kUnknown,
        "result-cache file replaced but its directory not synced: " + path);
  }
  RemoveOrphanTempFiles(path);
  const CacheStats stats = cache.Stats();
  return static_cast<int>(stats.entries);
}

}  // namespace tdlib
