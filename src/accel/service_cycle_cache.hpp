// Service-cycle memoization for warm serving traffic.
//
// Accelerator::run is a pure function of (config, program, stories,
// model_resident): the cycle-level simulation always lands on the same
// timing and outputs for the same inputs. Serving traffic walks a fixed
// corpus round-robin, so the same batch contents recur constantly once
// the pool is warm — and re-simulating them is where nearly all host
// wall-clock goes. ServiceCycleCache memoizes complete RunResults keyed
// on (program fingerprint, story digest, resident flag) so a repeated
// batch replays its cached timing/output instead of re-simulating;
// replay is bit-identical because the key covers every input that can
// influence the simulation.
//
// The cache is shared by the serving scheduler's host workers and the
// simulation thread, so it is internally locked and additionally acts as
// a rendezvous for in-flight computations: acquire() on a key that
// another thread is currently simulating blocks until that thread
// publishes (or abandons), which both deduplicates speculative work and
// lets the simulation thread pick up a prefetched result the moment it
// is ready.
//
// Cross-run persistence: the serving suite and its seeds are
// deterministic, so memoized results are valid across process runs.
// save()/load() serialize the resident entries to a versioned,
// checksummed binary file; load is corruption-tolerant (a truncated,
// garbled or version-mismatched file is ignored with a warning, never a
// crash) and round-trips bit-exactly (doubles travel as raw bits), so a
// replayed entry is indistinguishable from a re-simulated one.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "accel/accelerator.hpp"
#include "data/types.hpp"
#include "obs/metrics.hpp"

namespace mann::accel {

/// Hit/miss/eviction counters, exported into the ServingReport. Every
/// lookup lands in exactly one of hits/waits/misses: a lookup that
/// blocked on another thread's in-flight simulation is a *wait*, not a
/// hit — it avoided duplicate work but paid miss-shaped latency, and
/// counting it as a hit used to inflate the reported hit rate.
struct ServiceCycleCacheStats {
  std::uint64_t hits = 0;         ///< immediately resident
  std::uint64_t misses = 0;       ///< lookups that had to simulate
  std::uint64_t waits = 0;        ///< resolved by an in-flight run we blocked on
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;        ///< resident entries at sample time

  /// True hits over all lookups (hits + waits + misses).
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t lookups = hits + waits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// Word-at-a-time FNV-1a — the one hash primitive behind the story
/// digest, the key hash and the device fingerprint, kept together so the
/// three stay a matched set (they jointly form the cache key).
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
[[nodiscard]] inline std::uint64_t fnv1a_mix(std::uint64_t h,
                                             std::uint64_t word) noexcept {
  return (h ^ word) * 0x100000001b3ULL;
}

/// FNV-1a digest of a story span (shapes and contents). Two spans with
/// the same digest and count are treated as the same workload.
[[nodiscard]] std::uint64_t digest_stories(
    std::span<const data::EncodedStory> stories) noexcept;

class ServiceCycleCache {
 public:
  struct Key {
    /// Config + program digest, salted with kSimModelVersion.
    std::uint64_t program_fingerprint = 0;
    std::uint64_t stories_digest = 0;
    std::size_t story_count = 0;
    bool model_resident = false;

    [[nodiscard]] bool operator==(const Key&) const noexcept = default;
  };

  /// On-disk format version: bump whenever the serialized layout
  /// changes. Simulator-behaviour changes are kSimModelVersion's job: the
  /// file header records it beside this version, and load() discards a
  /// file written under another simulator model.
  static constexpr std::uint32_t kPersistVersion = 1;

  /// `capacity` bounds resident entries; the least recently used entry is
  /// evicted on overflow. Throws std::invalid_argument when `capacity` is
  /// 0. When `metrics` is set the cache mirrors its stats into
  /// "accel.cycle_cache.*" counters (non-owning; may be null).
  explicit ServiceCycleCache(std::size_t capacity = 1024,
                             obs::MetricsRegistry* metrics = nullptr);

  ServiceCycleCache(const ServiceCycleCache&) = delete;
  ServiceCycleCache& operator=(const ServiceCycleCache&) = delete;

  /// Looks up `key`. On a hit returns a copy of the cached result. On a
  /// miss the caller becomes the key's owner and MUST later call
  /// publish() (or abandon() on failure). If another thread owns the key,
  /// blocks until it publishes or abandons, then resolves accordingly.
  /// `outcome`, when non-null, reports which of those paths was taken.
  [[nodiscard]] std::optional<RunResult> acquire(
      const Key& key, CacheOutcome* outcome = nullptr);

  /// Inserts the owned key's result (evicting beyond capacity) and wakes
  /// any acquire() blocked on it.
  void publish(const Key& key, const RunResult& result);

  /// Releases ownership without a result (the simulation threw); a
  /// blocked acquire() takes over the computation.
  void abandon(const Key& key) noexcept;

  // ---- cross-run persistence ----

  /// Serializes every resident entry to `path` (atomically: tmp file +
  /// rename). Returns the entry count written, or 0 with a stderr
  /// warning when the file cannot be written. Never throws.
  [[nodiscard]] std::size_t save(const std::string& path) const;

  /// Merges entries from a file previously written by save() (keys
  /// already resident win; capacity eviction applies). All-or-nothing:
  /// a missing, truncated, corrupted or version-mismatched file loads
  /// nothing, warns on stderr and returns 0 — never throws. Returns the
  /// entry count loaded. Loaded entries do not count as insertions (the
  /// stats describe this process's lookups and publishes).
  [[nodiscard]] std::size_t load(const std::string& path);

  [[nodiscard]] ServiceCycleCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  void clear();

 private:
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    Key key;
    RunResult result;
  };

  /// Inserts at the most recently used end; the lock must be held.
  /// Returns false when the key is already resident.
  bool insert_locked(Key key, RunResult result);
  /// Evicts LRU entries past capacity; the lock must be held.
  void evict_over_capacity_locked();

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  std::unordered_set<Key, KeyHash> in_flight_;
  ServiceCycleCacheStats stats_;
  // Mirrored obs instruments (null without a registry).
  obs::Counter* obs_hits_ = nullptr;
  obs::Counter* obs_waits_ = nullptr;
  obs::Counter* obs_misses_ = nullptr;
  obs::Counter* obs_insertions_ = nullptr;
  obs::Counter* obs_evictions_ = nullptr;
  obs::Gauge* obs_entries_ = nullptr;
};

}  // namespace mann::accel
