// shard_server: one fabric shard-server process.
//
//   shard_server --dir DATA_DIR [--port N] [--producers N]
//                [--window-start YYYY-MM-DD] [--window-end YYYY-MM-DD]
//                [--intensity X] [--seed N] [--trace]
//                [--trace-threshold-ns N] [--trace-capacity N]
//
// Builds the study substrates every slot shares, then binds the port
// (0 = ephemeral), prints "PORT <n>" on stdout (the line a spawning
// client parses; once it appears the server is ready to serve), and
// serves fabric frames until a SHUTDOWN frame arrives.  Each slot runs
// its one-shard engine inline on its connection's thread.  Slot state
// persists under DATA_DIR —
// rerunning on the same directory recovers every slot from its last
// drained checkpoint, which is how the fabric survives a SIGKILL'd
// server.
//
// The study knobs must match the fabric client's: both sides derive
// dictionary/registry substrates deterministically from them.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fabric/server.h"
#include "util/time.h"

namespace {

bool parse_date(const char* text, bgpbh::util::SimTime& out) {
  int year = 0, month = 0, day = 0;
  if (std::sscanf(text, "%d-%d-%d", &year, &month, &day) != 3) return false;
  out = bgpbh::util::from_date(year, month, day);
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --dir DATA_DIR [--port N] [--producers N]\n"
               "          [--window-start YYYY-MM-DD] [--window-end "
               "YYYY-MM-DD] [--intensity X] [--seed N]\n"
               "          [--trace] [--trace-threshold-ns N] "
               "[--trace-capacity N]\n"
               "Builds the study substrates every slot shares, then prints "
               "\"PORT <n>\" and serves;\n"
               "each slot runs its one-shard engine on its connection's "
               "thread.\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bgpbh::fabric::ShardServerConfig config;
  config.study.window_start = bgpbh::util::from_date(2017, 3, 15);
  config.study.window_end = bgpbh::util::from_date(2017, 3, 16);
  config.study.workload.intensity_scale = 0.05;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (std::strcmp(arg, "--dir") == 0 && value) {
      config.dir = value;
      ++i;
    } else if (std::strcmp(arg, "--port") == 0 && value) {
      config.port = static_cast<std::uint16_t>(std::atoi(value));
      ++i;
    } else if (std::strcmp(arg, "--producers") == 0 && value) {
      config.num_producers = static_cast<std::size_t>(std::atoi(value));
      ++i;
    } else if (std::strcmp(arg, "--window-start") == 0 && value) {
      if (!parse_date(value, config.study.window_start)) return usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--window-end") == 0 && value) {
      if (!parse_date(value, config.study.window_end)) return usage(argv[0]);
      ++i;
    } else if (std::strcmp(arg, "--intensity") == 0 && value) {
      config.study.workload.intensity_scale = std::atof(value);
      ++i;
    } else if (std::strcmp(arg, "--seed") == 0 && value) {
      config.study.seed = static_cast<std::uint64_t>(std::atoll(value));
      ++i;
    } else if (std::strcmp(arg, "--trace") == 0) {
      // Slot sessions record slow fabric.server.* spans into their
      // trace rings; STATS ships them to fleet_telemetry() clients.
      config.trace.enabled = true;
    } else if (std::strcmp(arg, "--trace-threshold-ns") == 0 && value) {
      config.trace.slow_threshold_ns =
          static_cast<std::uint64_t>(std::atoll(value));
      ++i;
    } else if (std::strcmp(arg, "--trace-capacity") == 0 && value) {
      config.trace.capacity = static_cast<std::size_t>(std::atoll(value));
      ++i;
    } else {
      return usage(argv[0]);
    }
  }
  if (config.dir.empty()) return usage(argv[0]);
  try {
    bgpbh::fabric::ShardServer server(std::move(config));
    // The spawner blocks on this line to learn the bound (possibly
    // ephemeral) port; it is printed after the substrates are built.
    std::printf("PORT %u\n", static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    server.wait();
    server.stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shard_server: %s\n", e.what());
    return 1;
  }
  return 0;
}
