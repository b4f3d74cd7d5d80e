// tdworker: one solver worker process of the sharded service.
//
// Spawned by ClusterRouter (tdbatch --workers=N, or a test) with an
// inherited socketpair end; never run by hand. Speaks the
// length-prefixed framed protocol of src/cluster/wire.h and is crash-only:
// a corrupt frame makes it exit(2) and the supervisor restart it.
//
// Flags:
//   --fd=N           inherited socket file descriptor (required)
//   --threads=N      chase matching parallelism (default 1)
//   --hang-after=N   test hook: stop answering heartbeats after N jobs
//                    (simulates a wedged worker; default never)
//
// A worker keeps no result cache (the router's front door does the
// caching), so it takes no cache budget: any other flag is a usage error.
//
// The TDLIB_FAULT environment variable arms the util/fault.h sites in this
// process (e.g. TDLIB_FAULT="cluster.socket-read:3"), which is how the CI
// socket-fault leg makes a worker die mid-frame.
//
// Exit codes: 0 = clean shutdown, 2 = corrupt stream (crash-only exit),
// 64 = usage error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/worker.h"
#include "util/fault.h"

namespace {

bool ParseUint(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int fd = -1;
  tdlib::WorkerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t value = 0;
    if (arg.rfind("--fd=", 0) == 0 && ParseUint(arg.c_str() + 5, &value)) {
      fd = static_cast<int>(value);
    } else if (arg.rfind("--threads=", 0) == 0 &&
               ParseUint(arg.c_str() + 10, &value)) {
      options.threads = static_cast<int>(value);
    } else if (arg.rfind("--hang-after=", 0) == 0 &&
               ParseUint(arg.c_str() + 13, &value)) {
      options.hang_after_jobs = static_cast<int>(value);
    } else {
      std::fprintf(stderr, "tdworker: unknown flag '%s'\n", arg.c_str());
      return 64;
    }
  }
  if (fd < 0) {
    std::fprintf(stderr,
                 "tdworker: --fd=N is required (spawned by ClusterRouter)\n");
    return 64;
  }
  tdlib::ArmFaultsFromEnv();
  return tdlib::RunWorkerLoop(fd, options);
}
