// Multi-process shard-fabric suite (src/fabric/):
//   * storage::wire version negotiation + frame version-range and CRC
//     rejection (the shared record/fabric framing),
//   * consistent-hash placement: determinism, and the add-an-endpoint
//     property (slots either stay put or move to the new endpoint),
//   * control-plane smoke over a real socket: HELLO negotiation +
//     HEALTH against a fork/exec'd shard_server,
//   * the fabric-client session contract (no server needed): refused
//     local-only knobs, inert local-only surfaces, "fabric" health,
//   * the headline grid: the full deterministic workload pushed
//     through fabric clients against live shard-server processes, the
//     scatter-gathered event set byte-identical to the in-process
//     baseline across slots {1,3,8} x producers {1,3},
//   * crash: SIGKILL a shard server mid-stream after a drained
//     checkpoint, restart it on the same directory/port, and the
//     lane replay completes the run with zero loss/duplication,
//   * rebalance: migrate every slot onto a server spawned mid-stream,
//     keep feeding, and the final event set is still byte-identical,
//   * wire log: byte ranges stay exact across partial drops and
//     compaction; lanes' logs compact across checkpoint rounds, then a
//     SIGKILL with frames in flight replays from the compacted log and
//     the events equal the sequential engine's.
#include "fabric/router.h"

#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "bgp/rib.h"
#include "core/engine.h"
#include "core/study.h"
#include "fabric/placement.h"
#include "fabric/protocol.h"
#include "fabric/server.h"
#include "fabric/socket.h"
#include "fabric/wire_log.h"
#include "net/bytes.h"
#include "storage/wire.h"
#include "stream/pipeline.h"
#include "telemetry/fleet.h"
#include "telemetry/metrics.h"

namespace bgpbh::fabric {
namespace {

namespace fs = std::filesystem;
using core::PeerEvent;
using routing::FeedUpdate;

std::string temp_dir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

// Must match the shard_server defaults the spawner passes below: both
// sides derive their substrates deterministically from these knobs.
core::StudyConfig study_config() {
  core::StudyConfig config;
  config.window_start = util::from_date(2017, 3, 1);
  config.window_end = util::from_date(2017, 3, 3);
  config.workload.intensity_scale = 0.05;
  config.table_dump_episodes = 0;
  return config;
}

struct Baseline {
  std::vector<FeedUpdate> updates;
  std::vector<PeerEvent> events;  // canonical order, in-process

  Baseline() {
    api::SessionConfig config;
    config.mode = api::SessionConfig::Mode::kLiveFeed;
    config.study = study_config();
    config.num_shards = 2;
    api::AnalysisSession session(config);
    updates = session.study().replay_updates();
    stream::VectorSource source(updates);
    session.feed(source);
    session.close(study_config().window_end);
    events = session.events();
  }
};

const Baseline& baseline() {
  static Baseline base;
  return base;
}

std::string shard_server_path() {
  // Built next to this test binary (see CMakeLists add_dependencies).
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "./shard_server";
  buf[n] = '\0';
  return (fs::path(buf).parent_path() / "shard_server").string();
}

// One fork/exec'd shard_server process.  The child prints "PORT <n>"
// once bound; spawn() blocks on that line.
struct ServerProc {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::string dir;

  static ServerProc spawn(const std::string& dir, std::size_t producers,
                          std::uint16_t port = 0, bool trace = false) {
    ServerProc proc;
    proc.dir = dir;
    int fds[2] = {-1, -1};
    if (pipe(fds) != 0) return proc;
    std::string path = shard_server_path();
    std::string s_producers = std::to_string(producers);
    std::string s_port = std::to_string(port);
    pid_t pid = fork();
    if (pid == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::vector<char*> argv = {const_cast<char*>(path.c_str()),
                                 const_cast<char*>("--dir"),
                                 const_cast<char*>(dir.c_str()),
                                 const_cast<char*>("--producers"),
                                 const_cast<char*>(s_producers.c_str()),
                                 const_cast<char*>("--port"),
                                 const_cast<char*>(s_port.c_str()),
                                 const_cast<char*>("--window-start"),
                                 const_cast<char*>("2017-03-01"),
                                 const_cast<char*>("--window-end"),
                                 const_cast<char*>("2017-03-03"),
                                 const_cast<char*>("--intensity"),
                                 const_cast<char*>("0.05")};
      if (trace) {
        argv.push_back(const_cast<char*>("--trace"));
        argv.push_back(const_cast<char*>("--trace-threshold-ns"));
        argv.push_back(const_cast<char*>("0"));
      }
      argv.push_back(nullptr);
      execv(path.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    std::string line;
    char c = 0;
    while (read(fds[0], &c, 1) == 1 && c != '\n') line.push_back(c);
    close(fds[0]);
    unsigned parsed = 0;
    if (std::sscanf(line.c_str(), "PORT %u", &parsed) == 1) {
      proc.pid = pid;
      proc.port = static_cast<std::uint16_t>(parsed);
    } else {
      // Bind/startup failure: reap and report an invalid proc.
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
    return proc;
  }

  bool valid() const { return pid > 0 && port != 0; }

  void kill_hard() {
    if (pid <= 0) return;
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    pid = -1;
  }

  int wait_exit() {
    if (pid <= 0) return -1;
    int status = 0;
    waitpid(pid, &status, 0);
    pid = -1;
    return status;
  }
};

api::SessionConfig fabric_session_config(
    std::size_t slots, std::size_t producers,
    const std::vector<ServerProc*>& servers) {
  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = slots;
  config.num_producers = producers;
  for (const ServerProc* s : servers) {
    config.fabric.endpoints.push_back(FabricEndpoint{"127.0.0.1", s->port});
  }
  return config;
}

// The same peer-key partition crash_child uses: one producer always
// carries the same peers, so per-producer (and hence per-lane) order
// is deterministic.
std::vector<std::vector<FeedUpdate>> partition(
    const std::vector<FeedUpdate>& updates, std::size_t producers) {
  std::vector<std::vector<FeedUpdate>> parts(producers);
  for (const auto& u : updates) {
    bgp::PeerKey peer{u.update.peer_ip, u.update.peer_asn};
    parts[bgp::PeerKeyHash{}(peer) % producers].push_back(u);
  }
  return parts;
}

// ---- satellite: shared framing + version negotiation ------------------

TEST(WireVersion, NegotiationPicksHighestCommonVersion) {
  using storage::wire::negotiate_version;
  EXPECT_EQ(negotiate_version(1, 1, 1, 1), std::optional<std::uint8_t>(1));
  EXPECT_EQ(negotiate_version(1, 3, 2, 5), std::optional<std::uint8_t>(3));
  EXPECT_EQ(negotiate_version(2, 5, 1, 3), std::optional<std::uint8_t>(3));
  EXPECT_EQ(negotiate_version(1, 2, 2, 2), std::optional<std::uint8_t>(2));
  EXPECT_EQ(negotiate_version(1, 1, 2, 3), std::nullopt);
  EXPECT_EQ(negotiate_version(4, 5, 1, 3), std::nullopt);
}

TEST(WireVersion, DecodeRejectsVersionOutsideReadableRange) {
  const std::vector<std::uint8_t> payload = {0xAA, 0xBB, 0xCC};
  net::BufWriter frame;
  const std::size_t start = storage::wire::begin_frame(frame, 0x1234, 3);
  frame.bytes(payload);
  storage::wire::end_frame(frame, start);
  {
    net::BufReader r(frame.data());
    auto decoded = storage::wire::decode_frame(r, 0x1234, 1, 4, 1 << 16);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->version, 3);
    EXPECT_TRUE(std::equal(decoded->payload.begin(), decoded->payload.end(),
                           payload.begin()));
  }
  {
    // Same frame, reader only speaks versions [1, 2].
    net::BufReader r(frame.data());
    EXPECT_FALSE(
        storage::wire::decode_frame(r, 0x1234, 1, 2, 1 << 16).has_value());
  }
  {
    // Wrong magic.
    net::BufReader r(frame.data());
    EXPECT_FALSE(
        storage::wire::decode_frame(r, 0x4321, 1, 4, 1 << 16).has_value());
  }
  {
    // One flipped payload bit must fail the CRC.
    auto corrupted = frame.data();
    std::vector<std::uint8_t> bytes(corrupted.begin(), corrupted.end());
    bytes[8] ^= 0x01;
    net::BufReader r(bytes);
    EXPECT_FALSE(
        storage::wire::decode_frame(r, 0x1234, 1, 4, 1 << 16).has_value());
  }
}

// ---- placement --------------------------------------------------------

TEST(Placement, DeterministicAndInRange) {
  auto a = place_slots(64, 3);
  auto b = place_slots(64, 3);
  EXPECT_EQ(a, b);
  for (std::size_t e : a) EXPECT_LT(e, 3u);
  // Every endpoint owns at least one slot at this slot:endpoint ratio.
  std::vector<std::size_t> counts(3, 0);
  for (std::size_t e : a) ++counts[e];
  for (std::size_t n : counts) EXPECT_GT(n, 0u);
}

TEST(Placement, AddingAnEndpointOnlyMovesSlotsToIt) {
  auto before = place_slots(64, 2);
  auto after = place_slots(64, 3);
  std::size_t moved = 0;
  for (std::size_t s = 0; s < before.size(); ++s) {
    if (after[s] != before[s]) {
      // Consistent hashing: a slot either stays where it was or moves
      // to the NEW endpoint — never between old endpoints.
      EXPECT_EQ(after[s], 2u);
      ++moved;
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, before.size());
}

// ---- live server: control-plane smoke ---------------------------------

TEST(ShardServerSmoke, HelloNegotiatesAndHealthAnswers) {
  std::string dir = temp_dir("bgpbh_fabric_smoke");
  ServerProc server = ServerProc::spawn(dir, 1);
  ASSERT_TRUE(server.valid());
  auto conn = TcpConn::dial("127.0.0.1", server.port);
  ASSERT_TRUE(conn.has_value());
  net::BufWriter hello;
  hello.u8(kFabricVersion);
  hello.u8(kFabricVersion);
  hello.u32(kControlLane);
  hello.u32(kControlLane);
  ASSERT_TRUE(conn->send_frame(FrameType::kHello, hello.data()));
  auto hello_ack = conn->recv_frame();
  ASSERT_TRUE(hello_ack.has_value());
  ASSERT_EQ(hello_ack->type, FrameType::kHelloAck);
  net::BufReader hr(hello_ack->body);
  EXPECT_EQ(hr.u8(), kFabricVersion);
  EXPECT_EQ(hr.u64(), 0u);
  ASSERT_TRUE(conn->send_frame(FrameType::kHealth, {}));
  auto health = conn->recv_frame();
  ASSERT_TRUE(health.has_value());
  ASSERT_EQ(health->type, FrameType::kHealthAck);
  net::BufReader br(health->body);
  EXPECT_EQ(br.u32(), 0u);  // no slots touched yet
  EXPECT_EQ(br.u8(), 0u);   // healthy
  ASSERT_TRUE(conn->send_frame(FrameType::kShutdown, {}));
  auto ack = conn->recv_frame();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, FrameType::kShutdownAck);
  int status = server.wait_exit();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  fs::remove_all(dir);
}

// A peer offering only versions this build no longer speaks gets an
// ERROR naming the mismatch, not a silently dropped connection.
TEST(ShardServerSmoke, HelloRejectsUnsupportedVersion) {
  std::string dir = temp_dir("bgpbh_fabric_smoke_version");
  ServerProc server = ServerProc::spawn(dir, 1);
  ASSERT_TRUE(server.valid());
  const auto send_hello = [](TcpConn& conn, std::uint8_t version) {
    net::BufWriter hello;
    hello.u8(version);
    hello.u8(version);
    hello.u32(kControlLane);
    hello.u32(kControlLane);
    return conn.send_frame(FrameType::kHello, hello.data());
  };
  {
    auto conn = TcpConn::dial("127.0.0.1", server.port);
    ASSERT_TRUE(conn.has_value());
    ASSERT_TRUE(send_hello(*conn, 1));
    auto reply = conn->recv_frame();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(std::string(reply->body.begin(), reply->body.end()),
              "no common fabric protocol version");
  }
  // The refusal cost the server nothing: a current peer still gets in.
  auto conn = TcpConn::dial("127.0.0.1", server.port);
  ASSERT_TRUE(conn.has_value());
  ASSERT_TRUE(send_hello(*conn, kFabricVersion));
  auto hello_ack = conn->recv_frame();
  ASSERT_TRUE(hello_ack.has_value());
  ASSERT_EQ(hello_ack->type, FrameType::kHelloAck);
  ASSERT_TRUE(conn->send_frame(FrameType::kShutdown, {}));
  auto ack = conn->recv_frame();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, FrameType::kShutdownAck);
  int status = server.wait_exit();
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  fs::remove_all(dir);
}

// A server that refuses every HELLO with ERROR: the router must fail at
// once with the server's text, not redial through its reconnect budget
// and report the endpoint "unreachable".
TEST(FabricRouterHello, RefusedHelloFailsAtOnceWithServerText) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());
  std::atomic<int> accepts{0};
  std::thread server([&] {
    while (auto conn = listener->accept()) {
      accepts.fetch_add(1);
      if (conn->recv_frame()) {
        const std::string text = "test server refuses every lane";
        conn->send_frame(
            FrameType::kError,
            std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size()));
      }
    }
  });
  FabricConfig config;
  config.endpoints = {FabricEndpoint{"127.0.0.1", listener->port()}};
  // Short budget: a regression that retries still ends quickly, and
  // shows up in the accept count.
  config.reconnect.max_attempts = 3;
  config.reconnect.base_delay = std::chrono::milliseconds(1);
  config.reconnect.max_delay = std::chrono::milliseconds(1);
  {
    FabricRouter router(config, /*num_slots=*/1, /*num_producers=*/1,
                        nullptr);
    // Control RPC: refused once, reported as a failed checkpoint.
    EXPECT_FALSE(router.checkpoint_all());
    EXPECT_EQ(accepts.load(), 1);
    // Data lane: the refusal surfaces as an exception carrying the text.
    FeedUpdate update;
    update.update.peer_ip = *net::IpAddr::parse("198.51.100.1");
    update.update.peer_asn = 200;
    update.update.body.announced.push_back(*net::Prefix::parse("20.0.1.1/32"));
    ASSERT_TRUE(router.push(0, update));
    try {
      router.flush(0);
      ADD_FAILURE() << "flush() through a refused HELLO did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("test server refuses every lane"),
                std::string::npos)
          << e.what();
    }
  }
  listener->shutdown();
  server.join();
  EXPECT_EQ(accepts.load(), 2);
}

// A server that acks HELLO but answers APPEND with ERROR: the refusal
// is deterministic, so the lane must fail at once with the server's
// text, not redial through its reconnect budget.
TEST(FabricRouterAppend, RefusedAppendFailsAtOnceWithServerText) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());
  std::atomic<int> accepts{0};
  std::thread server([&] {
    while (auto conn = listener->accept()) {
      accepts.fetch_add(1);
      if (!conn->recv_frame()) continue;  // HELLO
      net::BufWriter ack;
      ack.u8(kFabricVersion);
      ack.u64(0);  // nothing accepted yet
      conn->send_frame(FrameType::kHelloAck, ack.data());
      if (conn->recv_frame()) {  // APPEND
        const std::string text = "test server refuses every append";
        conn->send_frame(
            FrameType::kError,
            std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size()));
      }
    }
  });
  FabricConfig config;
  config.endpoints = {FabricEndpoint{"127.0.0.1", listener->port()}};
  config.reconnect.max_attempts = 3;
  config.reconnect.base_delay = std::chrono::milliseconds(1);
  config.reconnect.max_delay = std::chrono::milliseconds(1);
  {
    FabricRouter router(config, /*num_slots=*/1, /*num_producers=*/1,
                        nullptr);
    FeedUpdate update;
    update.update.peer_ip = *net::IpAddr::parse("198.51.100.1");
    update.update.peer_asn = 200;
    update.update.body.announced.push_back(*net::Prefix::parse("20.0.1.1/32"));
    ASSERT_TRUE(router.push(0, update));
    try {
      router.flush(0);
      ADD_FAILURE() << "flush() through a refused APPEND did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("test server refuses every append"),
                std::string::npos)
          << e.what();
    }
  }
  listener->shutdown();
  server.join();
  EXPECT_EQ(accepts.load(), 1);
}

// ---- fabric-client session contract -----------------------------------

// The AnalysisSession surface of a fabric client, pinned without a
// server: FabricRouter dials lazily, so nothing here touches a socket.
api::SessionConfig fabric_client_config() {
  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = 5;
  config.fabric.endpoints = {FabricEndpoint{"127.0.0.1", 1}};
  return config;
}

TEST(FabricClientContract, ConstructorRefusesLocalOnlyKnobs) {
  using Mode = api::SessionConfig::Mode;
  for (Mode mode : {Mode::kBatch, Mode::kLiveReplay}) {
    api::SessionConfig config = fabric_client_config();
    config.mode = mode;
    EXPECT_THROW(api::AnalysisSession{config}, std::logic_error);
  }
  api::SessionConfig persist = fabric_client_config();
  persist.persist_dir = temp_dir("bgpbh_fabric_contract");
  EXPECT_THROW(api::AnalysisSession{persist}, std::logic_error);
  api::SessionConfig resume = fabric_client_config();
  resume.resume = true;
  EXPECT_THROW(api::AnalysisSession{resume}, std::logic_error);
  api::SessionConfig recover = fabric_client_config();
  recover.recover = true;
  EXPECT_THROW(api::AnalysisSession{recover}, std::logic_error);
  api::SessionConfig dump = fabric_client_config();
  dump.study.table_dump_episodes = 1;
  EXPECT_THROW(api::AnalysisSession{dump}, std::logic_error);
  EXPECT_FALSE(fs::exists(persist.persist_dir));
}

TEST(FabricClientContract, LocalOnlySurfacesAreInertAndHealthNamesTheFabric) {
  api::AnalysisSession session(fabric_client_config());
  ASSERT_NE(session.fabric(), nullptr);
  api::EventSink sink;
  EXPECT_FALSE(session.subscribe(sink));
  EXPECT_EQ(session.stats(), core::EngineStats{});
  EXPECT_EQ(session.open_event_count(), 0u);
  EXPECT_EQ(session.open_at_close(), 0u);
  EXPECT_EQ(session.num_shards(), 5u);
  EXPECT_EQ(session.updates_pushed(), 0u);
  const api::SessionHealth health = session.health();
  const api::ComponentHealth* fabric = health.find("fabric");
  ASSERT_NE(fabric, nullptr);
  EXPECT_EQ(fabric->state, api::HealthState::kHealthy);
}

// The borrowing constructor (one Study shared by several sessions, as
// a shard server's slots share it) is for live modes only.
TEST(SharedStudyContract, BorrowingRefusesBatchAndReopen) {
  auto study = std::make_shared<core::Study>(study_config());
  api::SessionConfig batch;
  batch.mode = api::SessionConfig::Mode::kBatch;
  EXPECT_THROW(api::AnalysisSession(batch, study), std::logic_error);
  api::SessionConfig reopen;
  reopen.mode = api::SessionConfig::Mode::kReopen;
  reopen.persist_dir = temp_dir("bgpbh_fabric_borrow_reopen");
  EXPECT_THROW(api::AnalysisSession(reopen, study), std::logic_error);
  api::SessionConfig live;
  live.mode = api::SessionConfig::Mode::kLiveFeed;
  EXPECT_THROW(api::AnalysisSession(live, nullptr), std::logic_error);
  // A borrowing session's study config is the borrowed Study's.
  live.study.seed = study_config().seed + 1;
  api::AnalysisSession session(live, study);
  EXPECT_EQ(&session.study(), study.get());
  EXPECT_EQ(session.config().study.seed, study_config().seed);
  EXPECT_EQ(session.config().study.window_end, study_config().window_end);
}

// One in-process server hosts all 4 slots of a 2-producer client that
// pushes from 2 threads: 8 connection threads run their slots' engines
// over the one Study the server built at start-up.
TEST(SharedStudy, OneServerHostsEverySlotOnSharedSubstrates) {
  const Baseline& base = baseline();
  std::string dir = temp_dir("bgpbh_fabric_shared_study");
  ShardServerConfig server_config;
  server_config.dir = dir;
  server_config.study = study_config();
  server_config.num_producers = 2;
  ShardServer server(server_config);

  core::Study study(study_config());
  core::InferenceEngine engine(study.dictionary(), study.registry(),
                               study_config().engine);
  for (const auto& u : base.updates) engine.process(u.platform, u.update);
  engine.finish(study_config().window_end);
  std::vector<PeerEvent> sequential = engine.events();
  core::canonical_sort(sequential);

  {
    api::SessionConfig config;
    config.mode = api::SessionConfig::Mode::kLiveFeed;
    config.study = study_config();
    config.num_shards = 4;
    config.num_producers = 2;
    config.fabric.endpoints = {FabricEndpoint{"127.0.0.1", server.port()}};
    api::AnalysisSession session(config);
    auto parts = partition(base.updates, 2);
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < 2; ++p) {
      threads.emplace_back([&, p] {
        for (const auto& u : parts[p]) session.push(u, p);
        session.flush(p);
      });
    }
    for (auto& t : threads) t.join();
    session.close(study_config().window_end);
    EXPECT_TRUE(session.events() == sequential)
        << "slots on shared substrates diverged from the sequential engine";
    EXPECT_EQ(server.slots_hosted(), 4u);
  }
  server.stop();
  fs::remove_all(dir);
}

// Slot sessions run the default quarantine, so a client configured
// above it is refused by the server: at once, with the server's text.
TEST(SlotQuarantine, ClientAboveServerLimitsIsRefusedAtOnce) {
  std::string dir = temp_dir("bgpbh_fabric_slot_quarantine");
  ShardServerConfig server_config;
  server_config.dir = dir;
  server_config.study = study_config();
  ShardServer server(server_config);
  {
    api::SessionConfig config;
    config.mode = api::SessionConfig::Mode::kLiveFeed;
    config.study = study_config();
    config.num_shards = 1;
    config.max_communities = 8192;
    config.fabric.endpoints = {FabricEndpoint{"127.0.0.1", server.port()}};
    api::AnalysisSession session(config);
    FeedUpdate update;
    update.update.peer_ip = *net::IpAddr::parse("198.51.100.1");
    update.update.peer_asn = 200;
    update.update.body.announced.push_back(*net::Prefix::parse("20.0.1.1/32"));
    update.update.body.as_path = bgp::AsPath::of({200, 400});
    for (std::uint32_t i = 0; i < 5000; ++i) {
      update.update.body.communities.add(
          bgp::Community(static_cast<std::uint16_t>(64500 + i / 1000),
                         static_cast<std::uint16_t>(i % 1000)));
    }
    ASSERT_TRUE(session.push(update, 0)) << "the client's own limit admits it";
    const auto t0 = std::chrono::steady_clock::now();
    try {
      session.flush(0);
      ADD_FAILURE() << "a server over its quarantine limits accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("refused sub-update 0"),
                std::string::npos)
          << e.what();
    }
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  }
  server.stop();
  fs::remove_all(dir);
}

// A 300-hop path needs two AS_SEQUENCE segments on the wire: a
// blackhole announcement carrying one must reach its slot and close
// the sequential engine's events.
TEST(FabricLongPath, LongPathBlackholeMatchesSequentialEngine) {
  const Baseline& base = baseline();
  std::vector<FeedUpdate> updates(
      base.updates.begin(),
      base.updates.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(
              2000, base.updates.size())));
  core::Study study(study_config());
  // Prepend the peer AS until the first event-opening announcement
  // with a path is 300 hops long.
  bool lengthened = false;
  {
    core::InferenceEngine probe(study.dictionary(), study.registry(),
                                study_config().engine);
    for (auto& u : updates) {
      const std::uint64_t opened = probe.stats().events_opened;
      probe.process(u.platform, u.update);
      bgp::AsPath& path = u.update.body.as_path;
      if (probe.stats().events_opened == opened || path.empty()) continue;
      path.prepend(path.first(), 300 - path.length());
      lengthened = true;
      break;
    }
  }
  ASSERT_TRUE(lengthened);

  core::InferenceEngine engine(study.dictionary(), study.registry(),
                               study_config().engine);
  for (const auto& u : updates) engine.process(u.platform, u.update);
  engine.finish(study_config().window_end);
  std::vector<PeerEvent> sequential = engine.events();
  core::canonical_sort(sequential);
  ASSERT_FALSE(sequential.empty());

  std::string dir = temp_dir("bgpbh_fabric_long_path");
  ShardServerConfig server_config;
  server_config.dir = dir;
  server_config.study = study_config();
  ShardServer server(server_config);
  {
    api::SessionConfig config;
    config.mode = api::SessionConfig::Mode::kLiveFeed;
    config.study = study_config();
    config.num_shards = 2;
    config.fabric.endpoints = {FabricEndpoint{"127.0.0.1", server.port()}};
    api::AnalysisSession session(config);
    for (const auto& u : updates) ASSERT_TRUE(session.push(u, 0));
    session.flush(0);
    session.close(study_config().window_end);
    EXPECT_TRUE(session.events() == sequential)
        << "the long-path announcement diverged from the sequential engine";
  }
  server.stop();
  fs::remove_all(dir);
}

// ---- the headline grid ------------------------------------------------

TEST(FabricGrid, DistributedEventSetMatchesInProcess) {
  const Baseline& base = baseline();
  ASSERT_FALSE(base.events.empty());
  for (std::size_t slots : {1u, 3u, 8u}) {
    for (std::size_t producers : {1u, 3u}) {
      SCOPED_TRACE("slots=" + std::to_string(slots) +
                   " producers=" + std::to_string(producers));
      const std::size_t n_servers = std::min<std::size_t>(slots, 3);
      std::vector<ServerProc> servers;
      std::vector<ServerProc*> refs;
      std::vector<std::string> dirs;
      for (std::size_t i = 0; i < n_servers; ++i) {
        dirs.push_back(temp_dir("bgpbh_fabric_grid_" + std::to_string(slots) +
                                "_" + std::to_string(producers) + "_" +
                                std::to_string(i)));
        servers.push_back(ServerProc::spawn(dirs.back(), producers));
        ASSERT_TRUE(servers.back().valid());
      }
      for (auto& s : servers) refs.push_back(&s);
      {
        api::AnalysisSession session(
            fabric_session_config(slots, producers, refs));
        auto parts = partition(base.updates, producers);
        std::vector<std::thread> threads;
        for (std::size_t p = 0; p < producers; ++p) {
          threads.emplace_back([&, p] {
            for (const auto& u : parts[p]) session.push(u, p);
            session.flush(p);
          });
        }
        for (auto& t : threads) t.join();
        session.close(study_config().window_end);
        EXPECT_TRUE(session.events() == base.events)
            << "distributed event set diverged from the in-process baseline";
        EXPECT_EQ(session.updates_pushed(), base.updates.size());
        session.fabric()->shutdown_endpoints();
      }
      for (auto& s : servers) {
        int status = s.wait_exit();
        EXPECT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
      }
      for (const auto& d : dirs) fs::remove_all(d);
    }
  }
}

// ---- crash: SIGKILL'd server recovers, lanes replay -------------------

TEST(FabricCrash, SigkilledServerRecoversAndReplayCompletes) {
  const Baseline& base = baseline();
  ASSERT_FALSE(base.events.empty());
  const std::size_t slots = 3;
  std::string dir0 = temp_dir("bgpbh_fabric_crash_0");
  std::string dir1 = temp_dir("bgpbh_fabric_crash_1");
  ServerProc s0 = ServerProc::spawn(dir0, 1);
  ServerProc s1 = ServerProc::spawn(dir1, 1);
  ASSERT_TRUE(s0.valid());
  ASSERT_TRUE(s1.valid());
  std::vector<ServerProc*> refs = {&s0, &s1};
  api::AnalysisSession session(fabric_session_config(slots, 1, refs));
  const auto& updates = base.updates;
  const std::size_t checkpoint_at = updates.size() / 3;
  const std::size_t kill_at = updates.size() / 2;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (i == checkpoint_at) {
      // Drained cut on every slot: the servers' durable totals advance
      // to everything sent so far.
      ASSERT_TRUE(session.checkpoint_now());
    }
    if (i == kill_at) {
      // The hardest failure: no flush, no destructors.  Everything the
      // server accepted after the cut exists only in the client's
      // replay buffers now.
      std::uint16_t port = s0.port;
      s0.kill_hard();
      s0 = ServerProc::spawn(dir0, 1, port);
      ASSERT_TRUE(s0.valid());
    }
    session.push(updates[i], 0);
  }
  session.flush(0);
  session.close(study_config().window_end);
  EXPECT_GT(session.fabric()->reconnects(), 0u)
      << "the kill was never even noticed — crash path not exercised";
  EXPECT_TRUE(session.events() == base.events)
      << "post-crash event set diverged: replay lost or duplicated updates";
  session.fabric()->shutdown_endpoints();
  for (ServerProc* s : {&s0, &s1}) {
    int status = s->wait_exit();
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  fs::remove_all(dir0);
  fs::remove_all(dir1);
}

// ---- fleet observability: STATS gather + fold, across a crash ---------
//
// From a single client, fleet_telemetry() must return a folded registry
// covering every slot of a live two-process fleet — and the fold must
// be exactly the sum of the per-slot views it gathered: counters and
// gauges sum, histograms merge bucket-exactly.  Run it across a
// SIGKILL + same-port restart so the gather also proves STATS works
// against a recovered server, not just a pristine one.

TEST(FabricFleetTelemetry, FoldedViewEqualsPerSlotSumAfterCrash) {
  const Baseline& base = baseline();
  ASSERT_FALSE(base.events.empty());
  const std::size_t slots = 3;
  std::string dir0 = temp_dir("bgpbh_fabric_fleet_0");
  std::string dir1 = temp_dir("bgpbh_fabric_fleet_1");
  ServerProc s0 = ServerProc::spawn(dir0, 1, 0, /*trace=*/true);
  ServerProc s1 = ServerProc::spawn(dir1, 1, 0, /*trace=*/true);
  ASSERT_TRUE(s0.valid());
  ASSERT_TRUE(s1.valid());
  std::vector<ServerProc*> refs = {&s0, &s1};
  api::SessionConfig config = fabric_session_config(slots, 1, refs);
  // Client-side ring on, threshold 0: every RPC span is recorded, so
  // the stitch pass below has client spans to match server spans with.
  config.trace.enabled = true;
  config.trace.slow_threshold_ns = 0;
  api::AnalysisSession session(config);
  const auto& updates = base.updates;
  const std::size_t checkpoint_at = updates.size() / 3;
  const std::size_t kill_at = updates.size() / 2;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    if (i == checkpoint_at) ASSERT_TRUE(session.checkpoint_now());
    if (i == kill_at) {
      std::uint16_t port = s0.port;
      s0.kill_hard();
      s0 = ServerProc::spawn(dir0, 1, port, /*trace=*/true);
      ASSERT_TRUE(s0.valid());
    }
    session.push(updates[i], 0);
  }
  session.flush(0);
  session.close(study_config().window_end);
  EXPECT_GT(session.fabric()->reconnects(), 0u);
  EXPECT_TRUE(session.events() == base.events);

  telemetry::FleetTelemetry fleet = session.fabric()->fleet_telemetry();

  // Every slot of the fleet answered, each exactly once.
  std::size_t gathered = 0;
  std::vector<bool> seen(slots, false);
  for (const auto& ep : fleet.endpoints) {
    for (const auto& slot : ep.slots) {
      ASSERT_LT(slot.slot, slots);
      EXPECT_FALSE(seen[slot.slot]) << "slot " << slot.slot << " twice";
      seen[slot.slot] = true;
      ++gathered;
    }
  }
  EXPECT_EQ(gathered, slots);

  // Reference fold: plain summation for counters/gauges, and
  // HistogramSnapshot::merge_from for histograms (itself verified
  // bucket-exact against a single instrument in test_telemetry).
  std::map<std::string, double> summed;
  std::map<std::string, telemetry::HistogramSnapshot> merged;
  for (const auto& ep : fleet.endpoints) {
    for (const auto& slot : ep.slots) {
      for (const auto& m : slot.metrics.metrics) {
        if (m.kind == telemetry::MetricKind::kHistogram) {
          merged[m.name].merge_from(m.hist);
        } else {
          summed[m.name] += m.value;
        }
      }
    }
  }
  for (const auto& [name, total] : summed) {
    const auto* m = fleet.folded.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_DOUBLE_EQ(m->value, total) << name;
  }
  for (const auto& [name, hist] : merged) {
    const auto* m = fleet.folded.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->hist.count, hist.count) << name;
    EXPECT_EQ(m->hist.sum, hist.sum) << name;
    if (hist.count > 0) {
      EXPECT_EQ(m->hist.min, hist.min) << name;
      EXPECT_EQ(m->hist.max, hist.max) << name;
    }
    EXPECT_EQ(m->hist.buckets, hist.buckets) << name;
  }

  // The folded view carries the remote pipelines' substance: the
  // servers measured ingest->close latency end-to-end from the stamps
  // the v2 sub-updates carried across the wire.
  const auto* detect = fleet.folded.find("e2e.detect_latency_ns");
  ASSERT_NE(detect, nullptr);
  EXPECT_GT(detect->hist.count, 0u);
  const auto* appends = fleet.folded.find("fabric.server.append_ns");
  ASSERT_NE(appends, nullptr);
  EXPECT_GT(appends->hist.count, 0u);

  // Observability metrics document themselves: every fabric.* and
  // e2e.* metric in the folded view ships non-empty HELP text.
  for (const auto& m : fleet.folded.metrics) {
    if (m.name.rfind("fabric.", 0) == 0 || m.name.rfind("e2e.", 0) == 0) {
      EXPECT_FALSE(m.help.empty()) << m.name;
    }
  }

  // Trace propagation: with both rings on at threshold 0, the newest
  // appends live in the client ring AND the server slot rings under
  // the same trace id, so the stitch pass pairs at least one RPC and
  // attributes its time: client_ns >= server span -> wire_queue_ns is
  // the clamped difference.
  EXPECT_FALSE(fleet.stitched.empty());
  for (const auto& s : fleet.stitched) {
    EXPECT_NE(s.trace_id, 0u);
    EXPECT_FALSE(s.client_label.empty());
    EXPECT_FALSE(s.server_label.empty());
    if (s.client_ns >= s.server_ns) {
      EXPECT_EQ(s.wire_queue_ns, s.client_ns - s.server_ns);
    } else {
      EXPECT_EQ(s.wire_queue_ns, 0u);
    }
  }

  session.fabric()->shutdown_endpoints();
  for (ServerProc* s : {&s0, &s1}) {
    int status = s->wait_exit();
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  fs::remove_all(dir0);
  fs::remove_all(dir1);
}

// ---- rebalance: live migration to a server spawned mid-stream ---------

TEST(FabricRebalance, MidStreamMigrationLosesNothing) {
  const Baseline& base = baseline();
  ASSERT_FALSE(base.events.empty());
  const std::size_t slots = 4;
  std::string dir0 = temp_dir("bgpbh_fabric_reb_0");
  std::string dir1 = temp_dir("bgpbh_fabric_reb_1");
  std::string dir2 = temp_dir("bgpbh_fabric_reb_2");
  ServerProc s0 = ServerProc::spawn(dir0, 1);
  ServerProc s1 = ServerProc::spawn(dir1, 1);
  ASSERT_TRUE(s0.valid());
  ASSERT_TRUE(s1.valid());
  std::vector<ServerProc*> refs = {&s0, &s1};
  api::AnalysisSession session(fabric_session_config(slots, 1, refs));
  const auto& updates = base.updates;
  const std::size_t half = updates.size() / 2;
  for (std::size_t i = 0; i < half; ++i) session.push(updates[i], 0);
  // New capacity arrives mid-stream; move EVERY slot onto it.
  ServerProc s2 = ServerProc::spawn(dir2, 1);
  ASSERT_TRUE(s2.valid());
  FabricRouter* fabric = session.fabric();
  std::size_t target = fabric->add_endpoint("127.0.0.1", s2.port);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    ASSERT_TRUE(fabric->migrate(slot, target))
        << "migration of slot " << slot << " failed";
    EXPECT_EQ(fabric->endpoint_of(slot), target);
  }
  for (std::size_t i = half; i < updates.size(); ++i) {
    session.push(updates[i], 0);
  }
  session.flush(0);
  session.close(study_config().window_end);
  EXPECT_TRUE(session.events() == base.events)
      << "post-migration event set diverged: handoff lost or duplicated "
         "state";
  session.fabric()->shutdown_endpoints();
  for (ServerProc* s : {&s0, &s1, &s2}) {
    int status = s->wait_exit();
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  fs::remove_all(dir0);
  fs::remove_all(dir1);
  fs::remove_all(dir2);
}

// ---- wire log: byte ranges across partial drops and compaction -------

std::vector<std::uint8_t> entry_bytes(std::uint64_t index) {
  // Entries of 1..13 bytes, each byte naming its entry.
  return std::vector<std::uint8_t>(1 + index % 13,
                                   static_cast<std::uint8_t>(index));
}

std::vector<std::uint8_t> expected_range(std::uint64_t from,
                                         std::uint64_t to) {
  std::vector<std::uint8_t> out;
  for (std::uint64_t i = from; i < to; ++i) {
    const auto e = entry_bytes(i);
    out.insert(out.end(), e.begin(), e.end());
  }
  return out;
}

TEST(FabricWireLog, RangesSurvivePartialDropsAndCompaction) {
  WireLog log;
  std::uint64_t next = 0;
  const auto append_until = [&](std::uint64_t end) {
    for (; next < end; ++next) log.append().bytes(entry_bytes(next));
  };
  const auto range_is = [&](std::uint64_t from, std::uint64_t to) {
    const auto r = log.range(from, to);
    return std::vector<std::uint8_t>(r.begin(), r.end()) ==
           expected_range(from, to);
  };
  append_until(100);
  EXPECT_EQ(log.base(), 0u);
  EXPECT_EQ(log.end(), 100u);
  EXPECT_TRUE(range_is(0, 100));
  const std::size_t full = log.size_bytes();

  // A dead prefix under half the buffer only moves the base.
  log.drop_before(10);
  EXPECT_EQ(log.base(), 10u);
  EXPECT_EQ(log.size_bytes(), full);
  EXPECT_TRUE(range_is(10, 100));
  EXPECT_TRUE(range_is(37, 64));

  // Past half, the prefix is cut off; live entries keep their bytes.
  log.drop_before(60);
  EXPECT_EQ(log.base(), 60u);
  EXPECT_EQ(log.size_bytes(), expected_range(60, 100).size());
  EXPECT_TRUE(range_is(60, 100));
  EXPECT_TRUE(range_is(75, 75));

  // Appends after a compaction, then more rounds of drops.
  append_until(250);
  for (std::uint64_t cut : {61u, 130u, 131u, 200u, 249u}) {
    log.drop_before(cut);
    EXPECT_EQ(log.base(), cut);
    EXPECT_EQ(log.end(), 250u);
    EXPECT_TRUE(range_is(cut, 250)) << "cut " << cut;
    EXPECT_TRUE(range_is(cut, cut + 1)) << "cut " << cut;
    EXPECT_LE(log.size_bytes(), 2 * expected_range(cut, 250).size() + 13)
        << "cut " << cut;
  }

  // Dropping beyond the end stops at the end; everything is dead then.
  log.drop_before(1000);
  EXPECT_EQ(log.base(), 250u);
  EXPECT_EQ(log.end(), 250u);
  EXPECT_EQ(log.size_bytes(), 0u);

  // Capacity is kept: refilling with what the log held before does not
  // grow the buffer.
  const std::size_t capacity = log.capacity_bytes();
  append_until(400);
  EXPECT_EQ(log.capacity_bytes(), capacity);
  EXPECT_TRUE(range_is(250, 400));
}

// ---- wire log: compaction across checkpoint rounds, then a crash -----
//
// A lane keeps its sub-updates in one byte log until the server reports
// them durable, and every drained checkpoint lets the router cut the
// dead prefix off.  Push in rounds with checkpoint_all() between them,
// so every lane's log compacts several times; then SIGKILL a server
// while APPEND frames are unacked (a lane reads acks only when its
// window fills or it is flushed, so frames sent since the last cut are
// in flight), restart it on the same directory and port, and finish
// the stream.  The resend must come out of the compacted log at
// exactly the server's recovered index: the events equal the
// sequential engine's.

TEST(FabricReplayLog, CompactedLogReplaysExactlyAfterKill) {
  const Baseline& base = baseline();
  core::Study study(study_config());
  core::InferenceEngine engine(study.dictionary(), study.registry());
  for (const auto& u : base.updates) engine.process(u.platform, u.update);
  engine.finish(study_config().window_end);
  std::vector<PeerEvent> sequential = engine.events();
  core::canonical_sort(sequential);
  ASSERT_FALSE(sequential.empty());

  const std::size_t slots = 3, producers = 2;
  std::string dir0 = temp_dir("bgpbh_fabric_log_0");
  std::string dir1 = temp_dir("bgpbh_fabric_log_1");
  ServerProc s0 = ServerProc::spawn(dir0, producers);
  ServerProc s1 = ServerProc::spawn(dir1, producers);
  ASSERT_TRUE(s0.valid());
  ASSERT_TRUE(s1.valid());
  std::vector<ServerProc*> refs = {&s0, &s1};
  api::AnalysisSession session(fabric_session_config(slots, producers, refs));
  FabricRouter* fabric = session.fabric();
  const auto parts = partition(base.updates, producers);
  // Pushes parts[p][from * n / 10, to * n / 10) for every producer.
  const auto push_tenths = [&](std::size_t from, std::size_t to) {
    for (std::size_t p = 0; p < producers; ++p) {
      const std::size_t n = parts[p].size();
      for (std::size_t i = from * n / 10; i < to * n / 10; ++i) {
        ASSERT_TRUE(session.push(parts[p][i], p));
      }
    }
  };
  // Four rounds of a tenth each, a drained cut after every round.
  for (std::size_t round = 0; round < 4; ++round) {
    push_tenths(round, round + 1);
    ASSERT_TRUE(fabric->checkpoint_all()) << "round " << round;
  }
  // Three tenths past the last cut, then the kill with frames in flight.
  push_tenths(4, 7);
  const std::uint16_t port = s0.port;
  s0.kill_hard();
  s0 = ServerProc::spawn(dir0, producers, port);
  ASSERT_TRUE(s0.valid());
  push_tenths(7, 10);
  for (std::size_t p = 0; p < producers; ++p) session.flush(p);
  session.close(study_config().window_end);
  EXPECT_GT(fabric->reconnects(), 0u)
      << "the kill was never noticed: the replay path was not exercised";
  EXPECT_EQ(session.updates_pushed(), base.updates.size());
  EXPECT_TRUE(session.events() == sequential)
      << "events diverged from the sequential engine: the replay from the "
         "compacted log lost or duplicated sub-updates";
  fabric->shutdown_endpoints();
  for (ServerProc* s : {&s0, &s1}) {
    int status = s->wait_exit();
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  fs::remove_all(dir0);
  fs::remove_all(dir1);
}

}  // namespace
}  // namespace bgpbh::fabric
