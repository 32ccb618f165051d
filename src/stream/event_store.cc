#include "stream/event_store.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace bgpbh::stream {

EventStore::EventStore(std::size_t lanes) {
  if (lanes == 0) lanes = 1;
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
}

void EventStore::fold_event(Snapshot& into, const core::PeerEvent& event) {
  if (into.total_events == 0 || event.start < into.first_start) {
    into.first_start = event.start;
  }
  if (into.total_events == 0 || event.end > into.last_end) {
    into.last_end = event.end;
  }
  into.total_events += 1;
  into.per_provider[event.provider] += 1;
  into.per_platform[event.platform] += 1;
}

void EventStore::fold(Snapshot& into, const Snapshot& from) {
  if (from.total_events == 0) return;
  if (into.total_events == 0 || from.first_start < into.first_start) {
    into.first_start = from.first_start;
  }
  if (into.total_events == 0 || from.last_end > into.last_end) {
    into.last_end = from.last_end;
  }
  into.total_events += from.total_events;
  for (const auto& [provider, n] : from.per_provider) {
    into.per_provider[provider] += n;
  }
  for (const auto& [platform, n] : from.per_platform) {
    into.per_platform[platform] += n;
  }
}

void EventStore::set_chunk_listener(ChunkListener listener) {
  assert(!ingest_started_.load(std::memory_order_relaxed) &&
         "set_chunk_listener() after the first ingest_chunk(): the slot is "
         "read unsynchronized on the ingest path and already-handed-over "
         "chunks would be missed — install listeners before any ingester "
         "runs");
  chunk_listener_ = std::move(listener);
}

void EventStore::set_spill_listener(ChunkListener listener) {
  assert(!ingest_started_.load(std::memory_order_relaxed) &&
         "set_spill_listener() after the first ingest_chunk(): install the "
         "spill hook before any ingester runs");
  spill_listener_ = std::move(listener);
}

void EventStore::ingest_chunk(std::size_t lane_index,
                              std::vector<core::PeerEvent>&& chunk) {
  if (chunk.empty()) return;
#ifndef NDEBUG
  ingest_started_.store(true, std::memory_order_relaxed);
#endif
  lane_index %= lanes_.size();
  // The listeners' copies are taken up front and delivered only after
  // the chunk is counted into its lane, so a snapshot triggered by the
  // delivery can never report fewer events than the listener has been
  // handed.  Delivery stays outside the lane lock: a listener parked
  // on a full dispatch/spill queue (backpressure) must not hold up
  // concurrent snapshot readers.
  std::vector<core::PeerEvent> observed;
  if (chunk_listener_) observed = chunk;
  std::vector<core::PeerEvent> spilled;
  if (spill_listener_) spilled = chunk;
  Lane& lane = *lanes_[lane_index];
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    for (const auto& e : chunk) fold_event(lane.counters, e);
    lane.chunks.push_back(std::move(chunk));
  }
  if (spill_listener_) spill_listener_(lane_index, std::move(spilled));
  if (chunk_listener_) chunk_listener_(lane_index, std::move(observed));
}

template <typename Visit>
void EventStore::for_each_lane(Visit&& visit) const {
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mu);
    visit(*lane);
  }
}

std::size_t EventStore::size() const {
  std::size_t total = 0;
  for_each_lane([&](const Lane& lane) { total += lane.counters.total_events; });
  return total;
}

EventStore::Snapshot EventStore::snapshot() const {
  Snapshot snap;
  for_each_lane([&](const Lane& lane) { fold(snap, lane.counters); });
  return snap;
}

std::vector<core::PeerEvent> EventStore::query(
    const std::function<bool(const core::PeerEvent&)>& pred) const {
  std::vector<core::PeerEvent> out;
  for_each_lane([&](const Lane& lane) {
    for (const auto& chunk : lane.chunks) {
      std::copy_if(chunk.begin(), chunk.end(), std::back_inserter(out), pred);
    }
  });
  return out;
}

std::size_t EventStore::count(
    const std::function<bool(const core::PeerEvent&)>& pred) const {
  std::size_t n = 0;
  for_each_lane([&](const Lane& lane) {
    for (const auto& chunk : lane.chunks) {
      n += static_cast<std::size_t>(
          std::count_if(chunk.begin(), chunk.end(), pred));
    }
  });
  return n;
}

std::vector<core::PeerEvent> EventStore::events() const {
  auto out = query([](const core::PeerEvent&) { return true; });
  core::canonical_sort(out);
  return out;
}

}  // namespace bgpbh::stream
