#include "accel/service_cycle_cache.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mann::accel {

std::uint64_t digest_stories(
    std::span<const data::EncodedStory> stories) noexcept {
  // Digests index streams, not bytes: one multiply per token.
  std::uint64_t h = kFnv1aOffset;
  for (const data::EncodedStory& story : stories) {
    h = fnv1a_mix(h, story.context.size());
    for (const std::vector<std::int32_t>& sentence : story.context) {
      h = fnv1a_mix(h, sentence.size());
      for (const std::int32_t word : sentence) {
        h = fnv1a_mix(h, static_cast<std::uint64_t>(word));
      }
    }
    h = fnv1a_mix(h, story.question.size());
    for (const std::int32_t word : story.question) {
      h = fnv1a_mix(h, static_cast<std::uint64_t>(word));
    }
    h = fnv1a_mix(h, static_cast<std::uint64_t>(story.answer));
  }
  return h;
}

std::size_t ServiceCycleCache::KeyHash::operator()(
    const Key& k) const noexcept {
  std::uint64_t h = kFnv1aOffset;
  h = fnv1a_mix(h, k.program_fingerprint);
  h = fnv1a_mix(h, k.stories_digest);
  h = fnv1a_mix(h, k.story_count);
  h = fnv1a_mix(h, k.model_resident ? 1 : 0);
  return static_cast<std::size_t>(h);
}

ServiceCycleCache::ServiceCycleCache(std::size_t capacity,
                                     obs::MetricsRegistry* metrics)
    : capacity_(capacity),
      obs_hits_(obs::counter(metrics, "accel.cycle_cache.hits")),
      obs_waits_(obs::counter(metrics, "accel.cycle_cache.waits")),
      obs_misses_(obs::counter(metrics, "accel.cycle_cache.misses")),
      obs_insertions_(obs::counter(metrics, "accel.cycle_cache.insertions")),
      obs_evictions_(obs::counter(metrics, "accel.cycle_cache.evictions")),
      obs_entries_(obs::gauge(metrics, "accel.cycle_cache.entries")) {
  if (capacity_ == 0) {
    throw std::invalid_argument("ServiceCycleCache: capacity must be > 0");
  }
}

std::optional<RunResult> ServiceCycleCache::acquire(const Key& key,
                                                    CacheOutcome* outcome) {
  std::unique_lock lock(mutex_);
  bool waited = false;
  for (;;) {
    if (const auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      // A lookup resolved by someone else's in-flight simulation is a
      // wait, not a hit: it deduplicated work but paid miss-shaped
      // latency, and exactly one of hits/waits/misses counts per lookup.
      if (waited) {
        ++stats_.waits;
        obs::add(obs_waits_);
      } else {
        ++stats_.hits;
        obs::add(obs_hits_);
      }
      if (outcome != nullptr) {
        *outcome = waited ? CacheOutcome::kWait : CacheOutcome::kHit;
      }
      return it->second->result;
    }
    if (!in_flight_.contains(key)) {
      in_flight_.insert(key);
      ++stats_.misses;
      obs::add(obs_misses_);
      if (outcome != nullptr) {
        *outcome = CacheOutcome::kMiss;
      }
      return std::nullopt;  // caller owns the computation
    }
    waited = true;
    ready_.wait(lock, [&] {
      return index_.contains(key) || !in_flight_.contains(key);
    });
  }
}

bool ServiceCycleCache::insert_locked(Key key, RunResult result) {
  if (index_.contains(key)) {
    return false;
  }
  // Front = MRU. load() inserts a file's entries coldest-first (save()'s
  // order), so each warmer entry displaces the colder ones toward the
  // eviction end.
  lru_.push_front({std::move(key), std::move(result)});
  index_.emplace(lru_.front().key, lru_.begin());
  return true;
}

void ServiceCycleCache::evict_over_capacity_locked() {
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);  // back is coldest
    lru_.pop_back();
    ++stats_.evictions;
    obs::add(obs_evictions_);
  }
}

void ServiceCycleCache::publish(const Key& key, const RunResult& result) {
  {
    std::lock_guard lock(mutex_);
    in_flight_.erase(key);
    if (insert_locked(key, result)) {
      ++stats_.insertions;
      obs::add(obs_insertions_);
      evict_over_capacity_locked();
      obs::set(obs_entries_, static_cast<std::int64_t>(lru_.size()));
    }
  }
  ready_.notify_all();
}

void ServiceCycleCache::abandon(const Key& key) noexcept {
  {
    std::lock_guard lock(mutex_);
    in_flight_.erase(key);
  }
  ready_.notify_all();
}

ServiceCycleCacheStats ServiceCycleCache::stats() const {
  std::lock_guard lock(mutex_);
  ServiceCycleCacheStats snapshot = stats_;
  snapshot.entries = lru_.size();
  return snapshot;
}

std::size_t ServiceCycleCache::size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

void ServiceCycleCache::clear() {
  std::lock_guard lock(mutex_);
  lru_.clear();
  index_.clear();
  stats_ = {};
  obs::set(obs_entries_, 0);
}

// --------------------------------------------------------- persistence
//
// Layout (host-endian; the file is a per-machine cache, not an exchange
// format):
//   u64 magic "MANNCYC1"  u32 version  u32 simulator model version
//   u64 payload_bytes     u64 payload_fnv1a   u64 entry_count
//   payload: entries back-to-back, each
//     Key{u64 fingerprint, u64 digest, u64 story_count, u8 resident}
//     RunResult{stories[], total_cycles, seconds(bits), modules[],
//               total_ops, fifo_in, fifo_out, link_active, stream_words}
// Doubles travel as raw bit patterns (std::bit_cast), so a loaded result
// is bit-identical to the published one — the property the serving
// stack's sequential-vs-parallel identity gate depends on.

namespace {

constexpr std::uint64_t kPersistMagic = 0x3143594E4E414DULL;  // "MANNYC1\0"

void put_u64(std::string& out, std::uint64_t v) {
  char bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  out.append(bytes, sizeof(v));
}

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_double(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_ops(std::string& out, const sim::OpCounts& ops) {
  put_u64(out, ops.mac);
  put_u64(out, ops.add);
  put_u64(out, ops.exp);
  put_u64(out, ops.div);
  put_u64(out, ops.mem_read);
  put_u64(out, ops.mem_write);
  put_u64(out, ops.compare);
}

void put_fifo(std::string& out, const sim::FifoStats& s) {
  put_u64(out, s.pushes);
  put_u64(out, s.pops);
  put_u64(out, s.full_rejects);
  put_u64(out, s.max_occupancy);
}

/// Bounds-checked reader over the loaded payload; every get_* returns
/// false once the cursor would pass the end, poisoning the whole parse.
struct Reader {
  const char* data = nullptr;
  std::size_t size = 0;
  std::size_t pos = 0;
  bool ok = true;

  bool take(void* out, std::size_t n) {
    if (!ok || size - pos < n) {
      ok = false;
      return false;
    }
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  std::uint64_t get_u64() {
    std::uint64_t v = 0;
    take(&v, sizeof(v));
    return v;
  }
  std::uint8_t get_u8() {
    std::uint8_t v = 0;
    take(&v, sizeof(v));
    return v;
  }
  double get_double() { return std::bit_cast<double>(get_u64()); }
  sim::OpCounts get_ops() {
    sim::OpCounts ops;
    ops.mac = get_u64();
    ops.add = get_u64();
    ops.exp = get_u64();
    ops.div = get_u64();
    ops.mem_read = get_u64();
    ops.mem_write = get_u64();
    ops.compare = get_u64();
    return ops;
  }
  sim::FifoStats get_fifo() {
    sim::FifoStats s;
    s.pushes = get_u64();
    s.pops = get_u64();
    s.full_rejects = get_u64();
    s.max_occupancy = static_cast<std::size_t>(get_u64());
    return s;
  }
  /// Sanity bound for element counts: each element costs at least
  /// `min_bytes`, so a count that cannot fit in the remaining payload is
  /// corruption, not data.
  bool plausible_count(std::uint64_t count, std::size_t min_bytes) const {
    return ok && count <= (size - pos) / (min_bytes == 0 ? 1 : min_bytes);
  }
};

std::uint64_t fnv1a_bytes(const std::string& bytes) {
  std::uint64_t h = kFnv1aOffset;
  for (const char c : bytes) {
    h = fnv1a_mix(h, static_cast<std::uint8_t>(c));
  }
  return h;
}

void serialize_entry(std::string& out, const ServiceCycleCache::Key& key,
                     const RunResult& r) {
  put_u64(out, key.program_fingerprint);
  put_u64(out, key.stories_digest);
  put_u64(out, key.story_count);
  put_u8(out, key.model_resident ? 1 : 0);

  put_u64(out, r.stories.size());
  for (const StoryOutcome& s : r.stories) {
    put_u64(out, static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(s.prediction)));
    put_u64(out, s.output_probes);
    put_u8(out, s.early_exit ? 1 : 0);
    put_u64(out, s.finish_cycle);
  }
  put_u64(out, r.total_cycles);
  put_double(out, r.seconds);
  put_u64(out, r.modules.size());
  for (const ModuleReport& m : r.modules) {
    put_u64(out, m.name.size());
    out.append(m.name);
    put_u64(out, m.stats.busy_cycles);
    put_u64(out, m.stats.stall_cycles);
    put_ops(out, m.stats.ops);
  }
  put_ops(out, r.total_ops);
  put_fifo(out, r.fifo_in_stats);
  put_fifo(out, r.fifo_out_stats);
  put_u64(out, r.link_active_cycles);
  put_u64(out, r.stream_words);
}

/// Smallest serialized entry (no stories, no modules): the key
/// (3 x u64 + u8), the story and module counts, total_cycles, seconds,
/// total_ops (7 x u64), two FifoStats (4 x u64 each), link_active_cycles
/// and stream_words. Bounds the header's entry count by the payload size.
constexpr std::size_t kMinEntryBytes = 25 + 2 * 8 + 2 * 8 + 7 * 8 +
                                       2 * 4 * 8 + 2 * 8;

bool deserialize_entry(Reader& in, ServiceCycleCache::Key& key,
                       RunResult& r) {
  key.program_fingerprint = in.get_u64();
  key.stories_digest = in.get_u64();
  key.story_count = static_cast<std::size_t>(in.get_u64());
  key.model_resident = in.get_u8() != 0;

  const std::uint64_t stories = in.get_u64();
  if (!in.plausible_count(stories, 25)) {  // 2×u64 + u8 + u64 per story
    return false;
  }
  r.stories.resize(static_cast<std::size_t>(stories));
  for (StoryOutcome& s : r.stories) {
    s.prediction = static_cast<std::int32_t>(
        static_cast<std::int64_t>(in.get_u64()));
    s.output_probes = in.get_u64();
    s.early_exit = in.get_u8() != 0;
    s.finish_cycle = in.get_u64();
  }
  r.total_cycles = in.get_u64();
  r.seconds = in.get_double();
  const std::uint64_t modules = in.get_u64();
  if (!in.plausible_count(modules, 8 + 2 * 8 + 7 * 8)) {
    return false;
  }
  r.modules.resize(static_cast<std::size_t>(modules));
  for (ModuleReport& m : r.modules) {
    const std::uint64_t name_len = in.get_u64();
    if (!in.plausible_count(name_len, 1)) {
      return false;
    }
    m.name.resize(static_cast<std::size_t>(name_len));
    if (!in.take(m.name.data(), m.name.size())) {
      return false;
    }
    m.stats.busy_cycles = in.get_u64();
    m.stats.stall_cycles = in.get_u64();
    m.stats.ops = in.get_ops();
  }
  r.total_ops = in.get_ops();
  r.fifo_in_stats = in.get_fifo();
  r.fifo_out_stats = in.get_fifo();
  r.link_active_cycles = in.get_u64();
  r.stream_words = static_cast<std::size_t>(in.get_u64());
  return in.ok;
}

}  // namespace

std::size_t ServiceCycleCache::save(const std::string& path) const {
  std::string payload;
  std::uint64_t count = 0;
  {
    std::lock_guard lock(mutex_);
    // Back-to-front: coldest first, so a capacity-truncating future load
    // naturally keeps the hottest entries resident (they insert last and
    // LRU-evict from the back).
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      serialize_entry(payload, it->key, it->result);
      ++count;
    }
  }
  std::string header;
  put_u64(header, kPersistMagic);
  // u32 format version + u32 simulator model version, as one u64.
  put_u64(header, std::uint64_t{kPersistVersion} |
                      (std::uint64_t{kSimModelVersion} << 32U));
  put_u64(header, payload.size());
  put_u64(header, fnv1a_bytes(payload));
  put_u64(header, count);

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "ServiceCycleCache: cannot write %s\n",
                 tmp.c_str());
    return 0;
  }
  const bool wrote =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "ServiceCycleCache: failed writing %s\n",
                 path.c_str());
    std::remove(tmp.c_str());
    return 0;
  }
  return static_cast<std::size_t>(count);
}

std::size_t ServiceCycleCache::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return 0;  // absent file = cold start, not an error
  }
  std::string bytes;
  char buffer[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.append(buffer, n);
  }
  std::fclose(f);

  const auto reject = [&](const char* why) -> std::size_t {
    std::fprintf(stderr,
                 "ServiceCycleCache: ignoring %s (%s); starting cold\n",
                 path.c_str(), why);
    return 0;
  };
  Reader header{bytes.data(), bytes.size(), 0, true};
  const std::uint64_t magic = header.get_u64();
  const std::uint64_t version = header.get_u64();
  const std::uint64_t payload_bytes = header.get_u64();
  const std::uint64_t checksum = header.get_u64();
  const std::uint64_t count = header.get_u64();
  if (!header.ok || magic != kPersistMagic) {
    return reject("not a cycle-cache file");
  }
  if ((version & 0xFFFFFFFFU) != kPersistVersion) {
    return reject("format version mismatch");
  }
  if ((version >> 32U) != kSimModelVersion) {
    return reject("written by another simulator model version");
  }
  if (payload_bytes != bytes.size() - header.pos) {
    return reject("truncated or oversized payload");
  }
  const std::string payload = bytes.substr(header.pos);
  if (fnv1a_bytes(payload) != checksum) {
    return reject("checksum mismatch (corrupted)");
  }

  // All-or-nothing: parse every entry before touching the cache, so a
  // file that goes bad mid-stream cannot leave a half-loaded state.
  Reader in{payload.data(), payload.size(), 0, true};
  if (!in.plausible_count(count, kMinEntryBytes)) {
    return reject("implausible entry count");
  }
  std::vector<std::pair<Key, RunResult>> entries;
  entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Key key;
    RunResult result;
    if (!deserialize_entry(in, key, result)) {
      return reject("malformed entry stream");
    }
    entries.emplace_back(std::move(key), std::move(result));
  }
  if (in.pos != in.size) {
    return reject("trailing bytes after the last entry");
  }

  std::size_t loaded = 0;
  std::lock_guard lock(mutex_);
  for (auto& [key, result] : entries) {
    if (insert_locked(std::move(key), std::move(result))) {
      ++loaded;
    }
  }
  evict_over_capacity_locked();
  obs::set(obs_entries_, static_cast<std::int64_t>(lru_.size()));
  return loaded;
}

}  // namespace mann::accel
