#include "accel/service_cycle_cache.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "serve/eviction.hpp"

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
                                     obs::MetricsRegistry* metrics,
                                     std::size_t segments)
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
  if (segments == 0) {
    throw std::invalid_argument("ServiceCycleCache: segments must be > 0");
  }
  segment_capacity_ = (capacity_ + segments - 1) / segments;
  segments_.reserve(segments);
  for (std::size_t i = 0; i < segments; ++i) {
    auto segment = std::make_unique<Segment>();
    if (segments > 1 && metrics != nullptr) {
      const std::string prefix =
          "accel.cycle_cache.segment." + std::to_string(i) + ".";
      segment->obs_hits = obs::counter(metrics, prefix + "hits");
      segment->obs_waits = obs::counter(metrics, prefix + "waits");
      segment->obs_misses = obs::counter(metrics, prefix + "misses");
      segment->obs_contended = obs::counter(metrics, prefix + "contended");
    }
    segments_.push_back(std::move(segment));
  }
}

// Out of line: serve::EvictionPolicy is forward-declared in the header.
ServiceCycleCache::~ServiceCycleCache() = default;

ServiceCycleCache::Segment& ServiceCycleCache::segment_for(
    const Key& key) noexcept {
  // KeyHash mixes the story digest, so concurrent distinct batches
  // spread across segments instead of queueing on one mutex.
  return *segments_[KeyHash{}(key) % segments_.size()];
}

std::unique_lock<std::mutex> ServiceCycleCache::lock_segment(
    Segment& segment) {
  std::unique_lock lock(segment.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Host-domain contention signal only — never feeds a simulated
    // number, so the counter may vary run to run.
    obs::add(segment.obs_contended);
    lock.lock();
  }
  return lock;
}

std::optional<RunResult> ServiceCycleCache::acquire(const Key& key,
                                                    CacheOutcome* outcome) {
  Segment& segment = segment_for(key);
  std::unique_lock lock = lock_segment(segment);
  bool waited = false;
  for (;;) {
    if (const auto it = segment.index.find(key); it != segment.index.end()) {
      segment.lru.splice(segment.lru.begin(), segment.lru,
                         it->second);  // touch
      it->second->touch_seq = ++segment.touch_counter;
      ++it->second->hits;
      // A lookup resolved by someone else's in-flight simulation is a
      // wait, not a hit: it deduplicated work but paid miss-shaped
      // latency, and exactly one of hits/waits/misses counts per lookup.
      if (waited) {
        ++segment.stats.waits;
        obs::add(obs_waits_);
        obs::add(segment.obs_waits);
      } else {
        ++segment.stats.hits;
        obs::add(obs_hits_);
        obs::add(segment.obs_hits);
      }
      if (outcome != nullptr) {
        *outcome = waited ? CacheOutcome::kWait : CacheOutcome::kHit;
      }
      return it->second->result;
    }
    if (!segment.in_flight.contains(key)) {
      segment.in_flight.insert(key);
      ++segment.stats.misses;
      obs::add(obs_misses_);
      obs::add(segment.obs_misses);
      if (outcome != nullptr) {
        *outcome = CacheOutcome::kMiss;
      }
      return std::nullopt;  // caller owns the computation
    }
    waited = true;
    segment.ready.wait(lock, [&] {
      return segment.index.contains(key) || !segment.in_flight.contains(key);
    });
  }
}

void ServiceCycleCache::evict_over_capacity_locked(Segment& segment) {
  while (segment.lru.size() > segment_capacity_) {
    auto victim = std::prev(segment.lru.end());  // LRU order: back is coldest
    if (segment.eviction != nullptr && segment.lru.size() > 1) {
      // Policy view of the resident entries (in list order): recency is
      // the touch clock, frequency the per-entry hit count, and reload
      // cost the entry's own simulated cycles — re-simulating IS the
      // reload. The policy's pick maps back to a list iterator.
      std::vector<serve::EvictionCandidate> candidates;
      std::vector<std::list<Entry>::iterator> iters;
      candidates.reserve(segment.lru.size());
      iters.reserve(segment.lru.size());
      std::size_t index = 0;
      for (auto it = segment.lru.begin(); it != segment.lru.end();
           ++it, ++index) {
        serve::EvictionCandidate c;
        c.slot = index;
        c.resident_task = index;
        c.last_dispatch_cycle = it->touch_seq;
        c.resident_task_dispatches = it->hits;
        c.reload_cycles = it->result.total_cycles;
        candidates.push_back(c);
        iters.push_back(it);
      }
      victim = iters[segment.eviction->pick_victim(candidates)];
    }
    segment.index.erase(victim->key);
    segment.lru.erase(victim);
    entry_count_.fetch_sub(1, std::memory_order_relaxed);
    ++segment.stats.evictions;
    obs::add(obs_evictions_);
  }
}

void ServiceCycleCache::publish(const Key& key, const RunResult& result) {
  Segment& segment = segment_for(key);
  {
    std::unique_lock lock = lock_segment(segment);
    segment.in_flight.erase(key);
    if (segment.admission_floor > 0 &&
        result.total_cycles < segment.admission_floor) {
      // Cheaper to re-simulate than to hold a slot: don't admit. Waiters
      // below still wake and re-acquire — one of them re-runs inline.
      ++segment.stats.admission_rejects;
    } else if (!segment.index.contains(key)) {
      segment.lru.push_front({key, result, ++segment.touch_counter, 0});
      segment.index.emplace(key, segment.lru.begin());
      entry_count_.fetch_add(1, std::memory_order_relaxed);
      ++segment.stats.insertions;
      obs::add(obs_insertions_);
      evict_over_capacity_locked(segment);
      obs::set(obs_entries_, entry_count_.load(std::memory_order_relaxed));
    }
  }
  segment.ready.notify_all();
}

void ServiceCycleCache::abandon(const Key& key) noexcept {
  Segment& segment = segment_for(key);
  {
    std::lock_guard lock(segment.mutex);
    segment.in_flight.erase(key);
  }
  segment.ready.notify_all();
}

void ServiceCycleCache::set_admission_floor(sim::Cycle floor) {
  for (const auto& segment : segments_) {
    std::lock_guard lock(segment->mutex);
    segment->admission_floor = floor;
  }
}

void ServiceCycleCache::set_eviction_policy(
    std::unique_ptr<serve::EvictionPolicy> policy) {
  if (segments_.size() > 1 && policy != nullptr) {
    throw std::invalid_argument(
        "ServiceCycleCache: a sharded cache needs one policy per segment; "
        "use the EvictionPolicyKind overload");
  }
  for (const auto& segment : segments_) {
    std::lock_guard lock(segment->mutex);
    segment->eviction = std::move(policy);
  }
}

void ServiceCycleCache::set_eviction_policy(serve::EvictionPolicyKind kind,
                                            obs::MetricsRegistry* metrics) {
  for (const auto& segment : segments_) {
    auto policy = serve::make_eviction_policy(kind, metrics);
    std::lock_guard lock(segment->mutex);
    segment->eviction = std::move(policy);
  }
}

ServiceCycleCacheStats ServiceCycleCache::stats() const {
  ServiceCycleCacheStats total;
  for (const auto& segment : segments_) {
    std::lock_guard lock(segment->mutex);
    total.hits += segment->stats.hits;
    total.misses += segment->stats.misses;
    total.waits += segment->stats.waits;
    total.insertions += segment->stats.insertions;
    total.evictions += segment->stats.evictions;
    total.admission_rejects += segment->stats.admission_rejects;
    total.entries += segment->lru.size();
  }
  return total;
}

std::size_t ServiceCycleCache::size() const {
  std::size_t total = 0;
  for (const auto& segment : segments_) {
    std::lock_guard lock(segment->mutex);
    total += segment->lru.size();
  }
  return total;
}

void ServiceCycleCache::clear() {
  for (const auto& segment : segments_) {
    std::lock_guard lock(segment->mutex);
    segment->lru.clear();
    segment->index.clear();
    segment->stats = {};
    segment->touch_counter = 0;
  }
  entry_count_.store(0, std::memory_order_relaxed);
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
//
// A sharded cache serializes the merged view (segments in order, each
// coldest-first), so files round-trip between any two segment counts.

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

bool ServiceCycleCache::insert_locked(Segment& segment, Key key,
                                      RunResult result) {
  if (segment.index.contains(key)) {
    return false;
  }
  // Front = MRU: entries arrive coldest-first from save(), so each
  // warmer entry displaces the colder ones toward the eviction end.
  segment.lru.push_front({std::move(key), std::move(result), 0, 0});
  segment.index.emplace(segment.lru.front().key, segment.lru.begin());
  entry_count_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t ServiceCycleCache::save(const std::string& path) const {
  std::string payload;
  std::uint64_t count = 0;
  for (const auto& segment : segments_) {
    std::lock_guard lock(segment->mutex);
    // Back-to-front: coldest first, so a capacity-truncating future load
    // naturally keeps the hottest entries resident (they insert last and
    // LRU-evict from the back).
    for (auto it = segment->lru.rbegin(); it != segment->lru.rend(); ++it) {
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
  std::vector<std::pair<Key, RunResult>> entries;
  entries.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, 1 << 20)));
  Reader in{payload.data(), payload.size(), 0, true};
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
  for (auto& [key, result] : entries) {
    Segment& segment = segment_for(key);
    std::lock_guard lock(segment.mutex);
    if (insert_locked(segment, std::move(key), std::move(result))) {
      ++loaded;
    }
  }
  for (const auto& segment : segments_) {
    std::lock_guard lock(segment->mutex);
    evict_over_capacity_locked(*segment);
  }
  obs::set(obs_entries_, entry_count_.load(std::memory_order_relaxed));
  return loaded;
}

}  // namespace mann::accel
