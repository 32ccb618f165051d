// ShardServer: the server half of the multi-process shard fabric.
//
// One process hosts any number of slots.  The study substrates
// (graph, registry, dictionary, ...) are built once, at start-up,
// before the port is announced; every slot borrows them.  Each slot is
// an api::AnalysisSession on that shared core::Study (kLiveFeed,
// num_shards = 1, persist_dir = <dir>/slot-<id>, recover = true with
// suffix feeding): its own engine, event store, segment log,
// checkpoints and telemetry.  A one-shard pipeline runs inline, so a
// decoded sub-update goes through the slot's engine on the
// connection's own thread — no worker thread, no queue.  The fabric
// adds nothing to the data plane; it only moves slots behind sockets.
//
// Protocol handling (fabric/protocol.h):
//   * HELLO        version negotiation; data lanes also learn the
//                  slot's recovered accepted count for their producer.
//   * APPEND       idempotent by sub-update index: indices below the
//                  accepted count are replay duplicates and are
//                  skipped; a gap above it is a protocol error, and a
//                  sub-update over the slot session's (default)
//                  quarantine limits is refused with ERROR.
//   * CHECKPOINT   drain + checkpoint_now on the slot session — the
//                  drained cut that advances the durable totals.
//   * QUERY        the slot's full event set, record-codec payloads.
//   * CLOSE        session.close(end_time): force-close open events.
//   * HANDOFF_FETCH / HANDOFF_INSTALL / RELEASE
//                  migration: ship the quiesced slot directory,
//                  recover it on the target, drop the source replica.
//   * HEALTH       slot count + worst session health.
//   * SHUTDOWN     graceful exit (run loop stops, wait() returns).
//
// Concurrency: one blocking thread per connection.  A slot has a
// shared_mutex (APPEND/QUERY shared, control ops exclusive) plus one
// mutex per producer lane, so a reconnecting lane can never race its
// predecessor's last push.  Slot sessions are opened on first touch
// (cheap: the substrates already exist) and recover themselves from
// their directory — a SIGKILLed server restarted on the same directory
// resumes where its last drained checkpoint left every slot.  Several
// producer lanes of one slot serialize on its engine mutex; the shared
// Study is only ever read.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "core/study.h"
#include "fabric/socket.h"
#include "telemetry/metrics.h"

namespace bgpbh::fabric {

struct ShardServerConfig {
  std::uint16_t port = 0;  // 0 = ephemeral; read back via port()
  // Root directory: slot <id> persists under <dir>/slot-<id>.
  std::string dir;
  // Substrates + window, built once by the constructor and shared by
  // every slot session.  table_dump_episodes is forced to 0 (each slot
  // session would fold the dump once, duplicating its opens across
  // slots; clients replicate the restriction).
  core::StudyConfig study;
  std::size_t num_producers = 1;
  telemetry::MetricsRegistry* metrics = nullptr;  // optional, borrowed
  // Trace-ring configuration for every slot session: enable it so
  // server-side RPC spans (fabric.server.*) reach the ring and can be
  // stitched against client spans via STATS / fleet_telemetry().
  telemetry::TraceConfig trace;
};

class ShardServer {
 public:
  // Builds the shared substrates, then binds + starts the accept loop;
  // throws std::runtime_error when the port cannot be bound.
  explicit ShardServer(ShardServerConfig config);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  // Blocks until a SHUTDOWN frame arrives (or stop() is called).
  void wait();
  // Stop accepting, sever every connection, join all threads, destroy
  // the slot sessions (their directories stay — a restart recovers).
  // Idempotent.
  void stop();

  std::size_t slots_hosted() const;

 private:
  struct Slot {
    std::shared_mutex mu;  // session lifecycle + control vs data ops
    std::unique_ptr<api::AnalysisSession> session;
    // Per-producer lane serialization: a reconnected lane's APPEND
    // must not race the predecessor connection's in-flight push.
    std::vector<std::unique_ptr<std::mutex>> lane_mu;
    // Sub-updates accepted / made durable per producer (lane indices).
    std::vector<std::uint64_t> accepted;
    std::vector<std::uint64_t> durable;
    bool released = false;
    // The session's RPC histograms, looked up once when it opens (null
    // while no session is open).
    telemetry::LatencyHistogram* append_ns = nullptr;
    telemetry::LatencyHistogram* ingress_delay_ns = nullptr;
  };

  // One connection's buffers, reused for every frame it carries.
  struct ConnBuffers {
    std::vector<std::uint8_t> rx;  // received frame (bodies view into it)
    net::BufWriter tx;             // APPEND_ACK frame
    routing::FeedUpdate sub;       // sub-update decode scratch
  };
  using Body = std::span<const std::uint8_t>;

  void accept_loop();
  void serve(TcpConn conn);
  // Handlers return false to drop the connection (after kError).
  bool handle_frame(TcpConn& conn, const TcpConn::FrameView& frame,
                    ConnBuffers& bufs);
  bool handle_append(TcpConn& conn, Body body, ConnBuffers& bufs);
  bool handle_query(TcpConn& conn, Body body);
  bool handle_checkpoint(TcpConn& conn, Body body);
  bool handle_stats(TcpConn& conn, Body body);
  bool handle_close(TcpConn& conn, Body body);
  bool handle_health(TcpConn& conn);
  bool handle_handoff_fetch(TcpConn& conn, Body body);
  bool handle_handoff_install(TcpConn& conn, Body body);
  bool handle_release(TcpConn& conn, Body body);

  std::string slot_dir(std::uint32_t slot) const;
  // Slot by id, created (and recovered from its directory) on first
  // touch.  Callers then lock slot->mu themselves.
  Slot& slot(std::uint32_t id);
  // Builds the slot's session from its directory (recover = true) and
  // seeds accepted/durable from the recovered totals.  Requires the
  // slot's unique lock.
  void open_slot_session_locked(Slot& s, std::uint32_t id);
  static bool send_error(TcpConn& conn, const std::string& message);

  ShardServerConfig config_;
  // The substrates every slot session borrows.
  std::shared_ptr<core::Study> study_;
  TcpListener listener_;
  std::thread accept_thread_;
  mutable std::mutex slots_mu_;
  std::map<std::uint32_t, std::unique_ptr<Slot>> slots_;
  std::mutex conns_mu_;
  std::vector<std::thread> conn_threads_;
  std::vector<int> conn_fds_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::atomic<bool> stopped_{false};
};

}  // namespace bgpbh::fabric
