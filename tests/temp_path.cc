#include "temp_path.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

namespace m3 {
namespace {

// Owns the directory; forked children (worker processes) that exit
// through the static destructors leave their parent's directory alone.
struct PrivateDir {
  pid_t owner = ::getpid();
  std::string path = ::testing::TempDir() + "/m3_" + std::to_string(static_cast<long>(owner));

  PrivateDir() { std::filesystem::create_directories(path); }
  ~PrivateDir() {
    std::error_code ec;
    if (::getpid() == owner) std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

std::string TempPath(const std::string& name) {
  static const PrivateDir dir;
  return dir.path + "/" + name;
}

}  // namespace m3
