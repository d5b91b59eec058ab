// Temp paths for tests. Every path lives in a directory private to this
// process, <testing::TempDir()>/m3_<pid>/, so test binaries of two build
// trees running at once never share a checkpoint, a scratch directory or a
// socket. The process that made the directory removes it when it exits.
#pragma once

#include <string>

namespace m3 {

/// `name` inside this process's private temp directory (created on first
/// use). Short enough for a unix socket path when `name` is.
std::string TempPath(const std::string& name);

}  // namespace m3
