// Command-line helpers shared by the tools: the usage error, strict
// numeric parsers, and the one Status-to-exit-code map.
//
// A usage error prints "<tool>: <msg>", a blank line and the tool's usage
// text to stderr and exits 2. Every other exit code comes from a Status:
//   0 OK   2 usage   3 INVALID_ARGUMENT   4 NOT_FOUND   5 DATA_LOSS
//   6 DEADLINE_EXCEEDED   7 INTERNAL   8 DEGRADED   9 UNAVAILABLE
//   10 RESOURCE_EXHAUSTED
#pragma once

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/status.h"

namespace m3::cli {

[[noreturn]] inline void UsageError(const char* prog, const char* usage, const std::string& msg) {
  std::fprintf(stderr, "%s: %s\n\n%s", prog, msg.c_str(), usage);
  std::exit(2);
}

/// One tool's name and usage text, bound to the parsers that report
/// through them.
struct Tool {
  const char* prog;
  const char* usage;

  [[noreturn]] void UsageError(const std::string& msg) const {
    cli::UsageError(prog, usage, msg);
  }

  /// argv[i + 1], the value of flag argv[i]; a usage error when there is
  /// none. Call it only once the flag is known, so an unknown flag is
  /// reported as unknown whatever follows it.
  const char* Value(int argc, char** argv, int i) const {
    if (i + 1 >= argc) UsageError(std::string("missing value for ") + argv[i]);
    return argv[i + 1];
  }

  // Strict parsers: the whole token must parse and lie in range
  // (std::atoi-style silent garbage acceptance is how a typo'd flag used
  // to become a zero-path query). ParseInt returns the value as Int.
  template <typename Int = long>
  Int ParseInt(const std::string& key, const char* arg, long min, long max) const {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(arg, &end, 10);
    if (end == arg || *end != '\0' || errno == ERANGE || v < min || v > max) {
      UsageError("invalid " + key + " '" + arg + "' (expected integer in [" +
                 std::to_string(min) + ", " + std::to_string(max) + "])");
    }
    return static_cast<Int>(v);
  }

  double ParseDouble(const std::string& key, const char* arg, double min, double max) const {
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(arg, &end);
    if (end == arg || *end != '\0' || errno == ERANGE || !(v >= min) || !(v <= max)) {
      UsageError("invalid " + key + " '" + arg + "' (expected number in [" +
                 std::to_string(min) + ", " + std::to_string(max) + "])");
    }
    return v;
  }

  /// A duration in [min, 86400] seconds.
  double ParseSeconds(const std::string& key, const char* arg, double min) const {
    return ParseDouble(key, arg, min, 86400.0);
  }
};

/// The exit code of a status, indexed by StatusCode. A StatusCode added
/// without an entry here reads 0 and fails Cli.ExitCodeForEveryStatusCode.
inline int ExitCodeFor(StatusCode code) {
  static constexpr std::array<int, kNumStatusCodes> kExitCodes = {0, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto i = static_cast<std::size_t>(code);
  return i < kExitCodes.size() ? kExitCodes[i] : 7;
}

}  // namespace m3::cli
