// Time-ordered store of closed blackholing events produced by the
// engine shards of the streaming pipeline.
//
// Shard workers hand events over in *sealed chunks*: each worker seals
// its engine's drained batch and moves the whole vector into its own
// lane under that lane's mutex — an O(1) splice plus small counter
// updates, never an element-wise copy under a shared lock.  Lanes are
// per-shard, so the hot ingest path has no cross-shard contention.
// The lanes are an event's only home for the store's whole lifetime:
// nothing ever relocates one, so every reader simply scans the lanes
// (each under its own mutex) and sorts what it gets back if it needs
// canonical order.
//
// Aggregate counters (per-provider, per-platform, total) are kept per
// lane and folded on demand, so a live alerting sink can take a
// snapshot at any time without stopping the workers.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/events.h"

namespace bgpbh::stream {

class EventStore {
 public:
  // Aggregate counters at one instant.  The time fields are meaningful
  // only when total_events > 0.
  struct Snapshot {
    std::size_t total_events = 0;
    util::SimTime first_start = 0;  // min start over ingested events
    util::SimTime last_end = 0;     // max end over ingested events
    std::map<core::ProviderRef, std::size_t> per_provider;
    std::map<routing::Platform, std::size_t> per_platform;
  };

  // Folds one event into a snapshot's counters — THE accumulation rule
  // for Snapshot, shared by the store's lane counters and by
  // api::AnalysisSession's batch-mode snapshot.
  static void fold_event(Snapshot& into, const core::PeerEvent& event);

  // Folds one snapshot into another (same rule as fold_event, counter
  // granularity) — how the lanes combine, and how api::AnalysisSession
  // merges the persistent segment log's cached summary into a live
  // view.
  static void fold(Snapshot& into, const Snapshot& from);

  // One lane per concurrent ingester (shard worker).  Lane count is
  // fixed at construction; ingest_chunk(lane) for lane >= lanes rounds
  // into the available ones.
  explicit EventStore(std::size_t lanes = 1);

  // Sealed-chunk handoff: moves the whole chunk into the lane under
  // its (per-lane, effectively uncontended) mutex.  Thread-safe.
  void ingest_chunk(std::size_t lane, std::vector<core::PeerEvent>&& chunk);

  // Sink-dispatch hook: receives a copy of every chunk right AFTER it
  // landed in its lane (so a listener-driven snapshot can never lag
  // the events already handed out), on the ingesting thread and
  // outside any store lock (the listener may block for backpressure
  // without stalling readers).
  //
  // ORDERING CONTRACT (single writer per lane): the store never
  // reorders — a lane's chunks are observed in exactly the order its
  // ingester called ingest_chunk, so with the pipeline's shape (one
  // shard worker per lane, every (peer, prefix) key owned by one
  // shard) per-key close order is preserved end to end.  Nothing is
  // guaranteed across lanes: cross-lane interleaving follows whichever
  // ingester ran first.  Two writers sharing a lane would also be
  // safe (the lane mutex serializes them) but forfeits the per-key
  // order, so don't.
  //
  // LIFECYCLE CONTRACT: set before any ingester runs, never after —
  // the slot is read without synchronization on the ingest path, so
  // installing a listener once ingest_chunk has run is a data race AND
  // would silently miss the chunks already handed over.  Debug builds
  // assert; null clears (same rule).  When no listener is set the only
  // cost is one branch per sealed chunk — nothing per event; with one,
  // the chunk copy made for it is the entire hot-path cost.
  using ChunkListener =
      std::function<void(std::size_t lane, std::vector<core::PeerEvent> chunk)>;
  void set_chunk_listener(ChunkListener listener);

  // Spill hook (persistent event store, src/storage/): identical
  // contracts to the chunk listener, invoked right before it with its
  // own copy of the chunk.  Kept a separate slot so persistence
  // composes with sink dispatch — api::AnalysisSession wires this to a
  // storage::SpillWriter (whose bounded queue and writer thread keep
  // segment I/O off the ingesting threads) while the chunk listener
  // feeds the SinkDispatcher.
  void set_spill_listener(ChunkListener listener);

  // ---- queries ----------------------------------------------------------
  // Every reader scans the lanes one at a time, each under its own
  // mutex, and is safe at any time, also while workers ingest.  Events
  // only ever land, so a reading never reports fewer events than an
  // earlier one.
  std::size_t size() const;
  Snapshot snapshot() const;

  // Predicate scan.  Result order is scan order, NOT canonical —
  // canonical_sort it for comparisons.  api::EventQuery runs on this.
  std::vector<core::PeerEvent> query(
      const std::function<bool(const core::PeerEvent&)>& pred) const;
  std::size_t count(
      const std::function<bool(const core::PeerEvent&)>& pred) const;

  // Every event so far, copied out of the lanes in canonical order.
  std::vector<core::PeerEvent> events() const;

 private:
  struct Lane {
    mutable std::mutex mu;
    std::vector<std::vector<core::PeerEvent>> chunks;
    Snapshot counters;
  };

  // Calls visit(lane) for every lane under that lane's mutex.
  template <typename Visit>
  void for_each_lane(Visit&& visit) const;

  std::vector<std::unique_ptr<Lane>> lanes_;
  ChunkListener chunk_listener_;
  ChunkListener spill_listener_;
#ifndef NDEBUG
  // Catches the set-after-ingest lifecycle footgun (see the listener
  // contracts above); debug builds only.
  std::atomic<bool> ingest_started_{false};
#endif
};

}  // namespace bgpbh::stream
