// Deadline-bounded waitpid for tests that fork a child: a child that
// hangs is SIGKILLed, reaped, and reported as nullopt, so the calling
// test fails instead of stalling the whole suite.
#pragma once

#include <sys/types.h>
#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <optional>
#include <thread>

namespace bgpbh::tests {

inline std::optional<int> wait_child(pid_t pid,
                                     std::chrono::seconds deadline) {
  const auto expiry = std::chrono::steady_clock::now() + deadline;
  int status = 0;
  for (;;) {
    const pid_t reaped = waitpid(pid, &status, WNOHANG);
    if (reaped == pid || (reaped < 0 && errno != EINTR)) return status;
    if (std::chrono::steady_clock::now() >= expiry) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return std::nullopt;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace bgpbh::tests
