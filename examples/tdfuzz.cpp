// tdfuzz: the differential fuzzing front end (src/fuzz/).
//
// Generates endless deterministic rounds of implication questions, solves
// each under every engine axis (naive/delta, thread count,
// checkpoint/resume, serial/service, cached/fresh) and
// cross-checks the results under each axis's invariance class. On a
// divergence it delta-debugs the case down to a minimal job and writes a
// replayable repro program.
//
//   $ ./build/examples/tdfuzz --seed=42 --rounds=3
//   $ ./build/examples/tdfuzz --seconds=60 --repro-dir=/tmp/repros
//   $ ./build/examples/tdfuzz --replay=repro-gadget-r0-c2.td
//
// Flags:
//   --seed=N        stream seed (default 1); same seed = same stream,
//                   bit for bit
//   --rounds=N      rounds to run (default 1, or endless when --seconds
//                   is given; 0 = endless, stop with --seconds or a signal)
//   --seconds=S     wall budget; finishes the current round, then stops.
//                   Without --rounds it runs rounds until the budget is
//                   spent; with --rounds=N it also stops after N rounds
//   --cases=N       cases per round (default 6, cycling the three families)
//   --threads=N     worker count for the thread-count axis (default 4)
//   --steps=N       base chase step budget per solve (default 300)
//   --no-resume     skip the checkpoint/resume axis
//   --no-service    skip the serial-vs-service axis
//   --replay=FILE   re-check one repro program instead of fuzzing
//   --repro-dir=DIR write minimized repro files there (default ".")
//   --metrics       print the fuzz.* / engine.* / fault.* counters as JSON
//                   when done
//   --inject-flip   harness self-test: arm the deliberate fire-order bug
//                   (util/fault.h kFireOrderFlip) in every variant run; a
//                   working harness MUST exit 1 with a repro
//
// Exit codes: 0 = clean, 1 = divergence found (repro written), 2 = usage,
// 3 = unreadable replay file, 4 = malformed replay file.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fuzz.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/timer.h"

using namespace tdlib;

namespace {

int Usage() {
  std::cerr << "usage: tdfuzz [--seed=N] [--rounds=N] [--seconds=S]\n"
               "              [--cases=N] [--threads=N] [--steps=N]\n"
               "              [--no-resume] [--no-service]\n"
               "              [--replay=FILE] [--repro-dir=DIR] [--metrics]\n"
               "              [--inject-flip]\n"
               "Without --rounds, one round, or with --seconds=S rounds "
               "until S is spent.\n";
  return 2;
}

// Repro filenames keep only the [-A-Za-z0-9_.] subset of the case name
// ("gadget/r3/c5" -> "gadget-r3-c5").
std::string ReproFileName(const std::string& case_name) {
  std::string safe;
  for (char c : case_name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    safe.push_back(ok ? c : '-');
  }
  return "repro-" + safe + ".td";
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions options;
  std::optional<std::uint64_t> rounds;  // unset: see --rounds above
  double wall_budget_seconds = 0;
  std::string replay_path;
  std::string repro_dir = ".";
  bool metrics = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    try {
      if (StartsWith(arg, "--seed=")) {
        options.seed = std::stoull(arg.substr(7));
      } else if (StartsWith(arg, "--rounds=")) {
        rounds = std::stoull(arg.substr(9));
      } else if (StartsWith(arg, "--seconds=")) {
        wall_budget_seconds = std::stod(arg.substr(10));
      } else if (StartsWith(arg, "--cases=")) {
        options.cases_per_round = std::stoi(arg.substr(8));
      } else if (StartsWith(arg, "--threads=")) {
        options.threads = std::stoi(arg.substr(10));
      } else if (StartsWith(arg, "--steps=")) {
        options.base_steps = std::stoull(arg.substr(8));
      } else if (arg == "--no-resume") {
        options.check_resume = false;
      } else if (arg == "--no-service") {
        options.check_service = false;
      } else if (StartsWith(arg, "--replay=")) {
        replay_path = arg.substr(9);
      } else if (StartsWith(arg, "--repro-dir=")) {
        repro_dir = arg.substr(12);
      } else if (arg == "--metrics") {
        metrics = true;
      } else if (arg == "--inject-flip") {
        options.inject_fire_order_flip = true;
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      std::cerr << "tdfuzz: bad value in '" << arg << "'\n";
      return Usage();
    }
  }
  if (options.cases_per_round < 1 || options.base_steps < 1) {
    std::cerr << "tdfuzz: --cases and --steps must be >= 1\n";
    return Usage();
  }

  if (metrics) SetMetricsEnabled(true);
  // Deliberately no ArmFaultsFromEnv() here: an environment-armed fault
  // would make variant runs diverge from the reference and every report
  // would be noise. tdbatch is the TDLIB_FAULT entry point.

  int divergences_found = 0;

  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::cerr << "tdfuzz: cannot read " << replay_path << "\n";
      return 3;
    }
    std::ostringstream text;
    text << in.rdbuf();
    Result<Job> job = ParseReproProgram(text.str());
    if (!job.ok()) {
      std::cerr << "tdfuzz: " << replay_path << ": " << job.error() << "\n";
      return 4;
    }
    std::vector<FuzzDivergence> divergences =
        CheckJobAcrossAxes(job.value(), options);
    if (divergences.empty()) {
      std::cout << "replay " << replay_path << ": all axes agree\n";
    } else {
      for (const FuzzDivergence& d : divergences) {
        std::cout << "replay " << replay_path << ": axis=" << d.axis << " "
                  << d.detail << "\n";
      }
      divergences_found = static_cast<int>(divergences.size());
    }
  } else {
    const std::uint64_t max_rounds =
        rounds.value_or(wall_budget_seconds > 0 ? 0 : 1);
    Timer wall;
    for (std::uint64_t round = 0; max_rounds == 0 || round < max_rounds;
         ++round) {
      if (wall_budget_seconds > 0 &&
          wall.ElapsedSeconds() >= wall_budget_seconds) {
        std::cout << "wall budget reached after " << round << " round(s)\n";
        break;
      }
      FuzzRoundReport report = RunFuzzRound(options, round);
      std::cout << "round " << report.round << ": " << report.cases
                << " cases, " << report.solver_runs << " solver runs, "
                << report.divergences.size() << " divergence(s)\n";
      for (const FuzzDivergence& d : report.divergences) {
        ++divergences_found;
        std::cout << "  DIVERGENCE case=" << d.case_name
                  << " axis=" << d.axis << " " << d.detail << "\n";
        // Re-derive the diverging job from the deterministic stream, shrink
        // it, and write the repro.
        std::vector<Job> cases = GenerateFuzzCases(options, report.round);
        for (const Job& job : cases) {
          if (job.name != d.case_name) continue;
          Job minimal = MinimizeDivergence(job, options);
          const std::string path =
              repro_dir + "/" + ReproFileName(d.case_name);
          std::ofstream out(path);
          if (!out) {
            std::cerr << "tdfuzz: cannot write " << path << "\n";
          } else {
            out << FormatReproProgram(minimal, options, d.axis);
            std::cout << "  wrote " << path << "\n";
          }
          break;
        }
      }
      if (!report.divergences.empty()) break;  // repros written; stop here
    }
  }

  if (metrics) {
    std::cout << MetricsRegistry::Global().Snapshot().ToJson() << "\n";
  }
  return divergences_found > 0 ? 1 : 0;
}
