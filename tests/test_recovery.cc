// Recovery-plane suite (src/recovery/):
//   * checkpoint codec + file discipline: round-trip, newest-valid-wins
//     load, prune-keeps-newest, torn/bit-flipped newest falls back to
//     the previous checkpoint,
//   * truncate_log: exact durable-prefix rewrite, refusal when the log
//     holds fewer records than the checkpoint claims,
//   * retention pinning: segments at/past the checkpoint floor survive
//     any retention budget,
//   * Watchdog stall detection via the scan_once seam (idle silence
//     never alarms; silence with backlog does; recovery clears it),
//   * PoisonQuarantine: adversarial updates rejected at push() and
//     feed() with per-producer accounting and an error-budget health
//     signal,
//   * in-process checkpoint/recover round trip: byte-identical event
//     set vs an uncrashed baseline, and
//   * the headline kill grid: fork/exec crash_child, SIGKILL it
//     mid-stream (twice), recover to completion, and assert the
//     persisted event set is byte-identical to the uncrashed baseline
//     across shard counts {1,3,8} x producer counts {1,3}; a child
//     that outlives its deadline fails the grid cell as hung.
#include "recovery/checkpoint.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "bgp/rib.h"
#include "recovery/quarantine.h"
#include "recovery/watchdog.h"
#include "storage/segment_reader.h"
#include "storage/segment_writer.h"
#include "stream/pipeline.h"
#include "wait_child.h"

namespace bgpbh::recovery {
namespace {

namespace fs = std::filesystem;
using core::PeerEvent;
using routing::FeedUpdate;
using routing::Platform;

std::string temp_dir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

// Must match tests/crash_child.cc exactly.
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
  std::vector<PeerEvent> events;  // canonical order, uncrashed

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

// A structurally rich checkpoint exercising every payload field.
Checkpoint rich_checkpoint() {
  Checkpoint cp;
  cp.seq = 7;
  cp.num_shards = 2;
  cp.num_producers = 3;
  cp.includes_table_dump = true;
  cp.position = storage::DurablePos{5, 321};
  for (std::uint32_t s = 0; s < cp.num_shards; ++s) {
    ShardCheckpoint shard;
    shard.watermarks = {100 + s, 200 + s, 300 + s};
    for (std::uint32_t i = 0; i < 3 + s; ++i) {
      core::OpenEventState open;
      open.peer.peer_ip = *net::IpAddr::parse("198.51.100." + std::to_string(i));
      open.peer.peer_asn = 64500 + i;
      open.prefix = *net::Prefix::parse("10." + std::to_string(s) + "." +
                                        std::to_string(i) + ".1/32");
      open.start = 1000 + i;
      open.platform = s == 0 ? Platform::kRis : Platform::kRouteViews;
      open.from_table_dump = i == 0;
      core::OpenDetection det;
      det.provider = core::ProviderRef{.is_ixp = s == 1, .asn = 3356, .ixp_id = s};
      det.user = 65000 + i;
      det.kind = core::DetectionKind::kProviderOnPath;
      det.as_distance = static_cast<int>(i);
      open.detections.push_back(det);
      open.communities.add(bgp::Community(3356, 666));
      open.communities.add(bgp::LargeCommunity(4200000001u, 666, i));
      shard.open_state.push_back(std::move(open));
    }
    cp.shards.push_back(std::move(shard));
  }
  core::PrefixEvent pe;
  pe.prefix = *net::Prefix::parse("10.0.0.0/24");
  pe.start = 1000;
  pe.end = 2000;
  pe.providers.insert(core::ProviderRef{.is_ixp = false, .asn = 3356, .ixp_id = 0});
  pe.users.insert(65001);
  pe.num_peer_events = 4;
  pe.includes_table_dump_start = true;
  cp.correlated.push_back(pe);
  pe.end = 3000;
  cp.grouped.push_back(pe);
  return cp;
}

// ---- checkpoint codec + files -----------------------------------------

TEST(CheckpointCodec, RoundTripsRichCheckpoint) {
  Checkpoint cp = rich_checkpoint();
  std::vector<std::uint8_t> file = encode_checkpoint_file(cp);
  auto decoded = decode_checkpoint_file(file);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == cp);
}

TEST(CheckpointCodec, EmptyCheckpointRoundTrips) {
  Checkpoint cp;
  cp.seq = 1;
  cp.num_shards = 1;
  cp.num_producers = 1;
  cp.shards.push_back(ShardCheckpoint{{0}, {}});
  auto decoded = decode_checkpoint_file(encode_checkpoint_file(cp));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(*decoded == cp);
}

TEST(CheckpointFiles, NewestValidWinsAndPrunesToKeep) {
  std::string dir = temp_dir("bgpbh_rec_files");
  Checkpoint cp = rich_checkpoint();
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    cp.seq = seq;
    ASSERT_TRUE(write_checkpoint(dir, cp, /*keep=*/2));
  }
  EXPECT_FALSE(fs::exists(fs::path(dir) / checkpoint_file_name(1)));
  EXPECT_TRUE(fs::exists(fs::path(dir) / checkpoint_file_name(2)));
  EXPECT_TRUE(fs::exists(fs::path(dir) / checkpoint_file_name(3)));
  auto loaded = load_latest_checkpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->checkpoint.seq, 3u);
  EXPECT_EQ(loaded->skipped_corrupt, 0u);
  fs::remove_all(dir);
}

TEST(CheckpointFiles, TornNewestFallsBackToPrevious) {
  std::string dir = temp_dir("bgpbh_rec_torn");
  Checkpoint cp = rich_checkpoint();
  cp.seq = 1;
  ASSERT_TRUE(write_checkpoint(dir, cp));
  cp.seq = 2;
  ASSERT_TRUE(write_checkpoint(dir, cp));
  // Tear the newest file in half: a crash mid-write that somehow
  // survived the atomic-rename discipline must still never load.
  fs::path newest = fs::path(dir) / checkpoint_file_name(2);
  auto size = fs::file_size(newest);
  fs::resize_file(newest, size / 2);
  auto loaded = load_latest_checkpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->checkpoint.seq, 1u);
  EXPECT_EQ(loaded->skipped_corrupt, 1u);
  fs::remove_all(dir);
}

TEST(CheckpointFiles, BitFlippedNewestFallsBackToPrevious) {
  std::string dir = temp_dir("bgpbh_rec_flip");
  Checkpoint cp = rich_checkpoint();
  cp.seq = 1;
  ASSERT_TRUE(write_checkpoint(dir, cp));
  cp.seq = 2;
  ASSERT_TRUE(write_checkpoint(dir, cp));
  fs::path newest = fs::path(dir) / checkpoint_file_name(2);
  std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(fs::file_size(newest)) / 2);
  char byte = 0;
  f.get(byte);
  f.seekp(static_cast<std::streamoff>(fs::file_size(newest)) / 2);
  f.put(static_cast<char>(byte ^ 0x40));
  f.close();
  auto loaded = load_latest_checkpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->checkpoint.seq, 1u);
  EXPECT_EQ(loaded->skipped_corrupt, 1u);
  fs::remove_all(dir);
}

// ---- truncate_log ------------------------------------------------------

PeerEvent make_event(std::uint32_t n) {
  PeerEvent e;
  e.platform = Platform::kRis;
  e.peer.peer_ip = *net::IpAddr::parse("198.51.100.7");
  e.peer.peer_asn = 100 + (n % 7);
  e.prefix = *net::Prefix::parse(std::to_string(10 + n % 200) + "." +
                                 std::to_string(n / 200 % 256) + ".0.1/32");
  e.provider = core::ProviderRef{.is_ixp = false, .asn = 200, .ixp_id = 0};
  e.user = 400 + n;
  e.start = 1000 + n;
  e.end = 2000 + n;
  e.open = false;
  return e;
}

// Writes `count` events into dir's log and returns the durable pos.
storage::DurablePos write_log(const std::string& dir, std::uint32_t count,
                              std::uint64_t max_segment_bytes = 1u << 20) {
  storage::SegmentConfig config;
  config.max_segment_bytes = max_segment_bytes;
  auto writer = storage::SegmentWriter::open(dir, config);
  EXPECT_NE(writer, nullptr);
  for (std::uint32_t i = 0; i < count; ++i) {
    EXPECT_TRUE(writer->append(make_event(i)));
  }
  EXPECT_TRUE(writer->sync());
  storage::DurablePos pos = writer->durable_pos();
  writer->close();
  return pos;
}

std::size_t log_records(const std::string& dir) {
  auto set = storage::SegmentSet::open(dir);
  std::size_t n = 0;
  if (set) set->for_each([&n](const PeerEvent&) { ++n; });
  return n;
}

TEST(TruncateLog, RewritesBoundarySegmentToExactDurablePrefix) {
  std::string dir = temp_dir("bgpbh_rec_trunc");
  storage::DurablePos pos = write_log(dir, 50);
  // Claim only 30 of the 50 durable records: the rewrite must leave a
  // footer-less 30-record prefix that writer recovery reseals.
  ASSERT_TRUE(truncate_log(dir, {pos.seq, 30}));
  { auto reseal = storage::SegmentWriter::open(dir); ASSERT_NE(reseal, nullptr); }
  EXPECT_EQ(log_records(dir), 30u);
  fs::remove_all(dir);
}

TEST(TruncateLog, DeletesSegmentsPastThePositionEntirely) {
  std::string dir = temp_dir("bgpbh_rec_trunc_del");
  // Tiny segments: the 60 events span several files.
  storage::DurablePos pos = write_log(dir, 60, /*max_segment_bytes=*/512);
  ASSERT_GT(pos.seq, 2u) << "workload did not roll segments";
  // Truncate to the END of segment 1 (pos {2, 0}): everything after
  // the first segment must vanish.
  ASSERT_TRUE(truncate_log(dir, {2, 0}));
  EXPECT_TRUE(fs::exists(fs::path(dir) / storage::segment_file_name(1)));
  for (std::uint64_t seq = 2; seq <= pos.seq; ++seq) {
    EXPECT_FALSE(fs::exists(fs::path(dir) / storage::segment_file_name(seq)))
        << "segment " << seq << " survived truncation";
  }
  fs::remove_all(dir);
}

TEST(TruncateLog, RefusesWhenLogHoldsFewerRecordsThanClaimed) {
  std::string dir = temp_dir("bgpbh_rec_trunc_refuse");
  storage::DurablePos pos = write_log(dir, 20);
  // A checkpoint claiming 500 durable records in a 20-record segment
  // means the log lost data past fsync's promise: recovery must stop.
  EXPECT_FALSE(truncate_log(dir, {pos.seq, 500}));
  fs::remove_all(dir);
}

// ---- retention pinning -------------------------------------------------

TEST(RetentionPin, FloorPinsSegmentsAtOrPastTheCheckpoint) {
  std::string dir = temp_dir("bgpbh_rec_retain");
  storage::SegmentConfig config;
  config.max_segment_bytes = 512;     // roll every ~dozen records
  config.retain_max_segments = 1;     // brutal budget
  auto writer = storage::SegmentWriter::open(dir, config);
  ASSERT_NE(writer, nullptr);
  // Pin everything from segment 2 onward (a checkpoint at pos {2, n}),
  // then seal far more segments than the budget allows.
  writer->set_retention_floor(2);
  for (std::uint32_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(writer->append(make_event(i)));
  }
  ASSERT_TRUE(writer->sync());
  // `last` may be an empty, never-materialized active segment (the
  // final append landed exactly on a roll boundary) — the pinning
  // claim covers every SEALED segment at or past the floor.
  storage::DurablePos pos = writer->durable_pos();
  writer->close();
  std::uint64_t last = pos.records > 0 ? pos.seq : pos.seq - 1;
  ASSERT_GT(last, 4u) << "workload did not roll segments";
  // Segment 1 is retirable; 2..last are pinned despite the budget.
  for (std::uint64_t seq = 2; seq <= last; ++seq) {
    EXPECT_TRUE(fs::exists(fs::path(dir) / storage::segment_file_name(seq)))
        << "pinned segment " << seq << " was retired";
  }
  EXPECT_FALSE(fs::exists(fs::path(dir) / storage::segment_file_name(1)))
      << "budget should still retire segments below the floor";
  fs::remove_all(dir);
}

// ---- watchdog ----------------------------------------------------------

struct FakeShard {
  std::uint64_t beat = 0;
  std::size_t depth = 0;
};

Watchdog make_watchdog(std::vector<FakeShard>& shards,
                       std::chrono::milliseconds deadline =
                           std::chrono::milliseconds(100)) {
  std::vector<WatchedShard> watched;
  for (auto& s : shards) {
    watched.push_back(WatchedShard{[&s] { return s.beat; },
                                   [&s] { return s.depth; }});
  }
  WatchdogConfig config;
  config.stall_deadline = deadline;
  return Watchdog(std::move(watched), config);
}

TEST(WatchdogDetector, SilenceWithBacklogPastDeadlineIsAStall) {
  std::vector<FakeShard> shards(2);
  shards[0].depth = 4;  // wedged with work
  shards[1].depth = 3;
  Watchdog dog = make_watchdog(shards);
  auto t0 = std::chrono::steady_clock::now();
  dog.scan_once(t0);  // prime
  shards[1].beat++;   // shard 1 makes progress, shard 0 stays silent
  dog.scan_once(t0 + std::chrono::milliseconds(60));
  EXPECT_EQ(dog.stalled_shards(), 0u);  // deadline not reached yet
  shards[1].beat++;   // shard 1 keeps working; shard 0 is still frozen
  dog.scan_once(t0 + std::chrono::milliseconds(200));
  EXPECT_EQ(dog.stalled_shards(), 1u);
  EXPECT_EQ(dog.stalls_detected(), 1u);
  api::ComponentHealth health = dog.component_health();
  EXPECT_EQ(health.state, api::HealthState::kDegraded);
  EXPECT_EQ(health.component, "watchdog");
  EXPECT_FALSE(health.reason.empty());
}

TEST(WatchdogDetector, IdleSilenceNeverAlarms) {
  std::vector<FakeShard> shards(1);
  shards[0].depth = 0;  // empty queue: silence is idleness
  Watchdog dog = make_watchdog(shards);
  auto t0 = std::chrono::steady_clock::now();
  dog.scan_once(t0);
  dog.scan_once(t0 + std::chrono::seconds(10));
  dog.scan_once(t0 + std::chrono::seconds(20));
  EXPECT_EQ(dog.stalled_shards(), 0u);
  EXPECT_EQ(dog.stalls_detected(), 0u);
  EXPECT_EQ(dog.component_health().state, api::HealthState::kHealthy);
}

TEST(WatchdogDetector, StallClearsWhenTheHeartbeatResumes) {
  std::vector<FakeShard> shards(1);
  shards[0].depth = 2;
  Watchdog dog = make_watchdog(shards);
  auto t0 = std::chrono::steady_clock::now();
  dog.scan_once(t0);
  dog.scan_once(t0 + std::chrono::milliseconds(200));
  ASSERT_EQ(dog.stalled_shards(), 1u);
  shards[0].beat++;  // the worker came back
  dog.scan_once(t0 + std::chrono::milliseconds(250));
  EXPECT_EQ(dog.stalled_shards(), 0u);
  EXPECT_EQ(dog.stalls_detected(), 1u);  // the episode stays counted
  EXPECT_EQ(dog.component_health().state, api::HealthState::kHealthy);
  // A NEW stall counts a new episode.
  dog.scan_once(t0 + std::chrono::milliseconds(600));
  EXPECT_EQ(dog.stalls_detected(), 2u);
}

// ---- poison quarantine -------------------------------------------------

FeedUpdate clean_update() {
  FeedUpdate fu;
  fu.platform = Platform::kRis;
  fu.update.time = 1000;
  fu.update.peer_ip = *net::IpAddr::parse("198.51.100.9");
  fu.update.peer_asn = 64500;
  fu.update.body.announced.push_back(*net::Prefix::parse("10.1.0.1/32"));
  fu.update.body.as_path = bgp::AsPath::of({64500, 3356, 65001});
  fu.update.body.communities.add(bgp::Community(3356, 666));
  return fu;
}

FeedUpdate absurd_path_update(std::size_t hops) {
  FeedUpdate fu = clean_update();
  std::vector<bgp::Asn> path;
  path.reserve(hops);
  for (std::size_t i = 0; i < hops; ++i) {
    path.push_back(static_cast<bgp::Asn>(64500 + i));
  }
  fu.update.body.as_path = bgp::AsPath(std::move(path));
  return fu;
}

FeedUpdate absurd_community_update(std::size_t count) {
  FeedUpdate fu = clean_update();
  for (std::size_t i = 0; i < count; ++i) {
    fu.update.body.communities.add(
        bgp::Community(static_cast<std::uint32_t>(i)));
  }
  return fu;
}

TEST(PoisonQuarantineUnit, RejectsAbsurdInputsAndCountsPerProducer) {
  QuarantineConfig config;
  config.max_as_path_hops = 16;
  config.max_communities = 8;
  PoisonQuarantine quarantine(/*num_producers=*/2, config);
  EXPECT_TRUE(quarantine.admit(clean_update(), 0));
  EXPECT_TRUE(quarantine.admit(absurd_path_update(16), 0));   // at the limit
  EXPECT_FALSE(quarantine.admit(absurd_path_update(17), 0));  // over it
  EXPECT_FALSE(quarantine.admit(absurd_community_update(9), 1));
  EXPECT_EQ(quarantine.poisoned(0), 1u);
  EXPECT_EQ(quarantine.poisoned(1), 1u);
  EXPECT_EQ(quarantine.total_poisoned(), 2u);
  EXPECT_EQ(quarantine.component_health().state, api::HealthState::kHealthy);
}

TEST(PoisonQuarantineUnit, BlownErrorBudgetDegradesHealth) {
  QuarantineConfig config;
  config.max_as_path_hops = 4;
  config.error_budget = 3;
  PoisonQuarantine quarantine(1, config);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(quarantine.admit(absurd_path_update(100), 0));
  }
  api::ComponentHealth health = quarantine.component_health();
  EXPECT_EQ(health.state, api::HealthState::kDegraded);
  EXPECT_EQ(health.component, "quarantine");
  EXPECT_NE(health.reason.find("producer 0"), std::string::npos);
}

TEST(PoisonQuarantineSession, PushRejectsPoisonWithoutTouchingState) {
  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = 2;
  config.max_as_path_hops = 64;
  config.poison_error_budget = 2;
  api::AnalysisSession session(config);
  session.start();
  EXPECT_FALSE(session.push(absurd_path_update(100000), 0));
  EXPECT_FALSE(session.push(absurd_community_update(100000), 0));
  EXPECT_FALSE(session.push(absurd_path_update(65), 0));
  EXPECT_EQ(session.poison_rejected(), 3u);
  // The budget (2) is blown: the quarantine component degrades health.
  api::SessionHealth health = session.health();
  EXPECT_EQ(health.state, api::HealthState::kDegraded);
  const api::ComponentHealth* component = health.find("quarantine");
  ASSERT_NE(component, nullptr);
  EXPECT_EQ(component->state, api::HealthState::kDegraded);
  // The clean remainder still processes to the exact baseline.
  for (const auto& u : baseline().updates) session.push(u, 0);
  session.close(study_config().window_end);
  EXPECT_TRUE(session.events() == baseline().events);
  EXPECT_EQ(session.updates_pushed(), baseline().updates.size());
}

TEST(PoisonQuarantineSession, FeedRejectsPoisonLikePush) {
  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = 2;
  config.max_as_path_hops = 64;
  api::AnalysisSession session(config);
  std::vector<FeedUpdate> poison = {absurd_path_update(65)};
  stream::VectorSource poisoned(poison);
  EXPECT_EQ(session.feed(poisoned), 0u);
  EXPECT_EQ(session.poison_rejected(), 1u);
  EXPECT_EQ(session.updates_pushed(), 0u);
  // The clean remainder yields exactly the baseline (pushed) event set.
  stream::VectorSource clean(baseline().updates);
  EXPECT_EQ(session.feed(clean), baseline().updates.size());
  session.close(study_config().window_end);
  EXPECT_TRUE(session.events() == baseline().events);
  EXPECT_EQ(session.poison_rejected(), 1u);
}

// ---- in-process checkpoint / recover round trip ------------------------

TEST(RecoveryRoundTrip, CheckpointMidStreamThenRecoverIsByteIdentical) {
  const Baseline& base = baseline();
  ASSERT_FALSE(base.events.empty());
  std::string dir = temp_dir("bgpbh_rec_roundtrip");

  auto make_config = [&] {
    api::SessionConfig config;
    config.mode = api::SessionConfig::Mode::kLiveFeed;
    config.study = study_config();
    config.num_shards = 3;
    config.persist_dir = dir;
    config.recover = true;
    return config;
  };

  // First incarnation: half the stream, an explicit checkpoint, then a
  // shutdown whose post-checkpoint work the recovery must discard and
  // regenerate (close() force-closes opens the checkpoint knew as open).
  {
    api::AnalysisSession session(make_config());
    const std::size_t half = base.updates.size() / 2;
    for (std::size_t i = 0; i < half; ++i) session.push(base.updates[i], 0);
    session.flush(0);
    ASSERT_TRUE(session.checkpoint_now());
    EXPECT_GE(session.checkpoints_written(), 1u);
    session.close(study_config().window_end);
  }

  // Second incarnation: recovers the cut, replays the FULL stream (the
  // watermark skip deduplicates the prefix), finishes cleanly.
  {
    api::AnalysisSession session(make_config());
    EXPECT_TRUE(session.recovered());
    EXPECT_GE(session.recovered_checkpoint_seq(), 1u);
    for (const auto& u : base.updates) session.push(u, 0);
    session.flush(0);
    session.close(study_config().window_end);
    EXPECT_TRUE(session.events() == base.events)
        << "recovered session diverged from the uncrashed baseline";
    EXPECT_EQ(session.health().state, api::HealthState::kHealthy);
  }

  // Third incarnation: the archive alone serves the identical set.
  {
    api::SessionConfig reopen;
    reopen.mode = api::SessionConfig::Mode::kReopen;
    reopen.persist_dir = dir;
    api::AnalysisSession session(reopen);
    EXPECT_TRUE(session.events() == base.events);
  }
  fs::remove_all(dir);
}

TEST(RecoveryRoundTrip, ShapeMismatchRefusesToRecover) {
  std::string dir = temp_dir("bgpbh_rec_shape");
  {
    api::SessionConfig config;
    config.mode = api::SessionConfig::Mode::kLiveFeed;
    config.study = study_config();
    config.num_shards = 2;
    config.persist_dir = dir;
    config.recover = true;
    api::AnalysisSession session(config);
    for (std::size_t i = 0; i < 100; ++i) {
      session.push(baseline().updates[i], 0);
    }
    session.flush(0);
    ASSERT_TRUE(session.checkpoint_now());
    session.close(study_config().window_end);
  }
  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = 3;  // different routing shape
  config.persist_dir = dir;
  config.recover = true;
  EXPECT_THROW({ api::AnalysisSession session(config); }, std::runtime_error);
  fs::remove_all(dir);
}

TEST(RecoveryRoundTrip, RecoverOnEmptyDirectoryIsAFreshStart) {
  std::string dir = temp_dir("bgpbh_rec_fresh");
  api::SessionConfig config;
  config.mode = api::SessionConfig::Mode::kLiveFeed;
  config.study = study_config();
  config.num_shards = 2;
  config.persist_dir = dir;
  config.recover = true;
  api::AnalysisSession session(config);
  EXPECT_FALSE(session.recovered());
  stream::VectorSource source(baseline().updates);
  session.feed(source);
  session.close(study_config().window_end);
  EXPECT_TRUE(session.events() == baseline().events);
  fs::remove_all(dir);
}

// ---- one-shard inline plane under concurrency ---------------------------

// A one-shard session runs its engine on the pushing threads.  Three
// producers, one per platform group, push concurrently while a fourth
// thread cuts checkpoints in a loop: every cut takes the engine mutex
// between two updates.  The events must equal the sequential engine's,
// and a recover session on the directory, re-fed the same partitions,
// must land on the same set.
TEST(InlineRecovery, ConcurrentPushesAndCheckpointsMatchSequential) {
  const Baseline& base = baseline();
  constexpr std::size_t kProducers = 3;
  std::string dir = temp_dir("bgpbh_rec_inline");
  auto make_config = [&] {
    api::SessionConfig config;
    config.mode = api::SessionConfig::Mode::kLiveFeed;
    config.study = study_config();
    config.num_shards = 1;
    config.num_producers = kProducers;
    config.drain_batch = 32;
    config.persist_dir = dir;
    config.recover = true;
    return config;
  };
  // Collector sessions are platform-disjoint, so a platform partition
  // keeps every (peer, prefix) key on one producer.
  std::vector<std::vector<FeedUpdate>> parts(kProducers);
  for (const auto& u : base.updates) {
    parts[static_cast<std::size_t>(u.platform) % kProducers].push_back(u);
  }
  auto push_all = [&](api::AnalysisSession& session) {
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        for (const auto& u : parts[p]) session.push(u, p);
        session.flush(p);
      });
    }
    for (auto& t : threads) t.join();
  };

  std::vector<PeerEvent> sequential;
  {
    api::AnalysisSession session(make_config());
    core::InferenceEngine engine(session.dictionary(), session.registry(),
                                 study_config().engine);
    for (const auto& u : base.updates) engine.process(u.platform, u.update);
    engine.finish(study_config().window_end);
    sequential = engine.events();
    core::canonical_sort(sequential);

    std::atomic<bool> pushing{true};
    std::uint64_t cuts = 0;
    std::thread cutter([&] {
      while (pushing.load(std::memory_order_acquire)) {
        if (session.checkpoint_now()) ++cuts;
      }
    });
    push_all(session);
    pushing.store(false, std::memory_order_release);
    cutter.join();
    EXPECT_GE(cuts, 1u);
    session.close(study_config().window_end);
    EXPECT_TRUE(session.events() == sequential)
        << "inline plane diverged from the sequential engine";
    EXPECT_EQ(session.updates_pushed(), base.updates.size());
  }
  {
    api::AnalysisSession session(make_config());
    EXPECT_TRUE(session.recovered());
    push_all(session);
    session.close(study_config().window_end);
    EXPECT_TRUE(session.events() == sequential)
        << "recovered inline session diverged from the sequential engine";
  }
  fs::remove_all(dir);
}

// ---- the headline: SIGKILL grid ---------------------------------------

std::string crash_child_path() {
  // The child is built next to this test binary.
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "./crash_child";
  buf[n] = '\0';
  return (fs::path(buf).parent_path() / "crash_child").string();
}

int run_child(const std::string& dir, std::size_t shards,
              std::size_t producers, std::uint64_t checkpoint_every,
              std::uint64_t checkpoint_at, std::uint64_t kill_after) {
  std::string child = crash_child_path();
  std::string s_shards = std::to_string(shards);
  std::string s_producers = std::to_string(producers);
  std::string s_every = std::to_string(checkpoint_every);
  std::string s_at = std::to_string(checkpoint_at);
  std::string s_kill = std::to_string(kill_after);
  pid_t pid = fork();
  if (pid == 0) {
    char* argv[] = {const_cast<char*>(child.c_str()),
                    const_cast<char*>(dir.c_str()),
                    const_cast<char*>(s_shards.c_str()),
                    const_cast<char*>(s_producers.c_str()),
                    const_cast<char*>(s_every.c_str()),
                    const_cast<char*>(s_at.c_str()),
                    const_cast<char*>(s_kill.c_str()),
                    nullptr};
    execv(child.c_str(), argv);
    _exit(127);
  }
  // ~0.5 s per run in Release; a child still alive after the deadline
  // is hung, not slow.  Its kill must not pass for the expected crash,
  // so report it and return a status that is neither signaled nor
  // exited, which every caller's check rejects.
  constexpr std::chrono::seconds kDeadline{300};
  if (std::optional<int> status = tests::wait_child(pid, kDeadline)) {
    return *status;
  }
  ADD_FAILURE() << "crash_child hung: " << dir << " " << shards << " "
                << producers << " " << checkpoint_every << " " << checkpoint_at
                << " " << kill_after << " (killed after " << kDeadline.count()
                << " s)";
  return -1;
}

TEST(CrashKillGrid, SigkillMidStreamRecoversByteIdentically) {
  const Baseline& base = baseline();
  ASSERT_FALSE(base.events.empty());
  const std::uint64_t total = base.updates.size();
  ASSERT_GT(total, 100u);
  for (std::size_t shards : {1u, 3u, 8u}) {
    for (std::size_t producers : {1u, 3u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " producers=" + std::to_string(producers));
      std::string dir = temp_dir("bgpbh_rec_kill_" + std::to_string(shards) +
                                 "_" + std::to_string(producers));
      // Crash 1: explicit checkpoint at 1/5, SIGKILL at 2/5 — plus a
      // cadence every total/4 so the background path also runs.
      int status = run_child(dir, shards, producers, total / 4, total / 5,
                             2 * total / 5);
      ASSERT_TRUE(WIFSIGNALED(status)) << "child 1 was not killed";
      ASSERT_EQ(WTERMSIG(status), SIGKILL);
      // Crash 2: recover from crash 1's state, checkpoint again deeper
      // into the stream, die again at 4/5.
      status = run_child(dir, shards, producers, total / 4, 3 * total / 5,
                         4 * total / 5);
      ASSERT_TRUE(WIFSIGNALED(status)) << "child 2 was not killed";
      ASSERT_EQ(WTERMSIG(status), SIGKILL);
      // Final incarnation: recover and run to a clean close.
      status = run_child(dir, shards, producers, total / 4, 0, 0);
      ASSERT_TRUE(WIFEXITED(status)) << "final child crashed";
      ASSERT_EQ(WEXITSTATUS(status), 0);
      // Two SIGKILLs later: the archive is byte-identical to a run
      // that never crashed.  Zero loss, zero duplication.
      api::SessionConfig reopen;
      reopen.mode = api::SessionConfig::Mode::kReopen;
      reopen.persist_dir = dir;
      api::AnalysisSession session(reopen);
      EXPECT_TRUE(session.events() == base.events)
          << "recovered archive diverged from the uncrashed baseline";
      fs::remove_all(dir);
    }
  }
}

}  // namespace
}  // namespace bgpbh::recovery
