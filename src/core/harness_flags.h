// Shared command-line surface of the harness binaries. Every bench and
// example accepts the same five flags — --backend=sim|threads, --threads=N,
// --morsel=N, --tune=off|once|online, --json=<path> — and before this
// header each harness carried its own copy of the parsing loop. One
// parser, two front-ends: bench/bench_common.h (strict: no positionals)
// and examples/example_common.h (positionals pass through).

#ifndef APUJOIN_CORE_HARNESS_FLAGS_H_
#define APUJOIN_CORE_HARNESS_FLAGS_H_

#include <cstdio>
#include <cstring>
#include <string>

#include "cost/online_calibration.h"
#include "exec/backend_kind.h"
#include "exec/exec_options.h"
#include "join/options.h"

namespace apujoin::core {

/// Parsed values of the flags every harness binary shares.
struct HarnessFlags {
  /// --backend, --threads, --morsel, --stream, --layout, --prefetch-dist,
  /// --fuse and --tune, starting from the ExecOptions defaults.
  exec::ExecOptions exec;
  bool backend_set = false;                ///< --backend given explicitly
  bool threads_set = false;                ///< --threads given explicitly
  bool morsel_set = false;                 ///< --morsel given explicitly
  bool stream_set = false;                 ///< --stream given explicitly
  bool layout_set = false;                 ///< --layout given explicitly
  bool prefetch_set = false;               ///< --prefetch-dist explicitly
  bool fuse_set = false;                   ///< --fuse given explicitly
  bool tune_set = false;                   ///< --tune given explicitly
  std::string json_path;                   ///< --json; empty = no JSON output
};

/// Usage fragment for the shared flags (binaries append their own).
inline constexpr char kHarnessUsage[] =
    "[--backend=sim|threads] [--threads=N] [--morsel=N] "
    "[--stream=serial|pipelined] [--layout=chained|open] "
    "[--prefetch-dist=N] [--fuse=off|auto] [--tune=off|once|online] "
    "[--json=path]";

/// Outcome of offering one argv entry to ParseHarnessArg.
enum class HarnessArg {
  kConsumed,     ///< a shared flag, parsed into the HarnessFlags
  kPositional,   ///< not a flag at all; the binary consumes it
  kUnknownFlag,  ///< starts with "--" but matches no shared flag
  kInvalid,      ///< a shared flag with an unusable value (message printed)
};

inline HarnessArg ParseHarnessArg(const char* arg, HarnessFlags* flags) {
  if (std::strncmp(arg, "--tune=", 7) == 0) {
    if (!cost::ParseTuneMode(arg + 7, &flags->exec.tune)) {
      std::fprintf(stderr,
                   "invalid value in '%s' (want --tune=off|once|online)\n",
                   arg);
      return HarnessArg::kInvalid;
    }
    flags->tune_set = true;
    return HarnessArg::kConsumed;
  }
  if (std::strncmp(arg, "--json=", 7) == 0) {
    if (arg[7] == '\0') {
      std::fprintf(stderr, "invalid value in '%s' (want --json=<path>)\n",
                   arg);
      return HarnessArg::kInvalid;
    }
    flags->json_path = arg + 7;
    return HarnessArg::kConsumed;
  }
  switch (exec::ParseMorselFlag(arg, &flags->exec.morsel_items)) {
    case exec::FlagParse::kOk:
      flags->morsel_set = true;
      return HarnessArg::kConsumed;
    case exec::FlagParse::kInvalid:
      std::fprintf(stderr,
                   "invalid value in '%s' (want --morsel=N, 1 <= N <= %ld)\n",
                   arg, exec::kMaxMorselItems);
      return HarnessArg::kInvalid;
    case exec::FlagParse::kNotMatched:
      break;
  }
  switch (exec::ParseStreamFlag(arg, &flags->exec.stream)) {
    case exec::FlagParse::kOk:
      flags->stream_set = true;
      return HarnessArg::kConsumed;
    case exec::FlagParse::kInvalid:
      std::fprintf(stderr,
                   "invalid value in '%s' (want --stream=serial|pipelined)\n",
                   arg);
      return HarnessArg::kInvalid;
    case exec::FlagParse::kNotMatched:
      break;
  }
  switch (exec::ParseLayoutFlag(arg, &flags->exec.layout)) {
    case exec::FlagParse::kOk:
      flags->layout_set = true;
      return HarnessArg::kConsumed;
    case exec::FlagParse::kInvalid:
      std::fprintf(stderr,
                   "invalid value in '%s' (want --layout=chained|open)\n",
                   arg);
      return HarnessArg::kInvalid;
    case exec::FlagParse::kNotMatched:
      break;
  }
  switch (exec::ParseFuseFlag(arg, &flags->exec.fuse)) {
    case exec::FlagParse::kOk:
      flags->fuse_set = true;
      return HarnessArg::kConsumed;
    case exec::FlagParse::kInvalid:
      std::fprintf(stderr, "invalid value in '%s' (want --fuse=off|auto)\n",
                   arg);
      return HarnessArg::kInvalid;
    case exec::FlagParse::kNotMatched:
      break;
  }
  switch (exec::ParsePrefetchFlag(arg, &flags->exec.prefetch_dist)) {
    case exec::FlagParse::kOk:
      flags->prefetch_set = true;
      return HarnessArg::kConsumed;
    case exec::FlagParse::kInvalid:
      std::fprintf(stderr,
                   "invalid value in '%s' (want --prefetch-dist=N, "
                   "0 <= N <= %ld)\n",
                   arg, exec::kMaxPrefetchDist);
      return HarnessArg::kInvalid;
    case exec::FlagParse::kNotMatched:
      break;
  }
  switch (exec::ParseBackendFlag(arg, &flags->exec.backend,
                                  &flags->exec.threads)) {
    case exec::FlagParse::kOk:
      if (std::strncmp(arg, "--backend=", 10) == 0) {
        flags->backend_set = true;
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        flags->threads_set = true;
      }
      return HarnessArg::kConsumed;
    case exec::FlagParse::kInvalid:
      std::fprintf(stderr,
                   "invalid value in '%s' (want --backend=sim|threads, "
                   "--threads=N)\n",
                   arg);
      return HarnessArg::kInvalid;
    case exec::FlagParse::kNotMatched:
      break;
  }
  return std::strncmp(arg, "--", 2) == 0 ? HarnessArg::kUnknownFlag
                                         : HarnessArg::kPositional;
}

/// Stamps the parsed execution options into engine options.
inline void ApplyHarnessFlags(const HarnessFlags& flags,
                              join::EngineOptions* engine) {
  static_cast<exec::ExecOptions&>(*engine) = flags.exec;
}

}  // namespace apujoin::core

#endif  // APUJOIN_CORE_HARNESS_FLAGS_H_
