// Polling wait for tests that watch another thread or process change
// state: returns as soon as the condition holds, so a test waits no
// longer than it must, and its timeout only bounds a hang.
#pragma once

#include <chrono>
#include <thread>

namespace m3 {

/// True once `pred` holds, polling every 10ms up to `timeout`.
template <typename Pred>
bool WaitFor(Pred pred, std::chrono::milliseconds timeout) {
  const auto stop = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (pred()) return true;
    if (std::chrono::steady_clock::now() >= stop) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace m3
