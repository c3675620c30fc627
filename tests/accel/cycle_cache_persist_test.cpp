// Cross-run persistence of ServiceCycleCache: round-trips must be
// bit-exact (the serving stack's sequential-vs-parallel identity gate
// replays persisted entries), and a bad file must never crash or
// half-load — a missing, truncated, corrupted or version-mismatched
// cache file means a cold start, nothing worse.
#include "accel/service_cycle_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/compiler.hpp"
#include "model/memn2n.hpp"
#include "numeric/random.hpp"

namespace mann::accel {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A RunResult with every serialized field set to a distinctive value,
/// including doubles that do not round-trip through decimal text — the
/// round-trip test is only meaningful if nothing stays at its default.
RunResult rich_result(std::uint64_t salt) {
  RunResult r;
  r.stories.resize(3);
  for (std::size_t i = 0; i < r.stories.size(); ++i) {
    r.stories[i].prediction = static_cast<std::int32_t>(salt + i) - 1;
    r.stories[i].output_probes = 2 + i;
    r.stories[i].early_exit = (i % 2) == 0;
    r.stories[i].finish_cycle = 1000 * salt + i;
  }
  r.total_cycles = 123456 + salt;
  r.seconds = 0.1 + static_cast<double>(salt) / 3.0;  // non-terminating
  r.modules.resize(2);
  r.modules[0].name = "ip_module";
  r.modules[0].stats.busy_cycles = 77 + salt;
  r.modules[0].stats.stall_cycles = 5;
  r.modules[0].stats.ops.mac = 11;
  r.modules[0].stats.ops.add = 12;
  r.modules[0].stats.ops.exp = 13;
  r.modules[0].stats.ops.div = 14;
  r.modules[0].stats.ops.mem_read = 15;
  r.modules[0].stats.ops.mem_write = 16;
  r.modules[0].stats.ops.compare = 17;
  r.modules[1].name = "oc";
  r.modules[1].stats.busy_cycles = 88;
  r.total_ops.mac = 21 + salt;
  r.total_ops.mem_write = 22;
  r.fifo_in_stats.pushes = 31;
  r.fifo_in_stats.pops = 32;
  r.fifo_in_stats.full_rejects = 33;
  r.fifo_in_stats.max_occupancy = 34;
  r.fifo_out_stats.pushes = 41 + salt;
  r.link_active_cycles = 51 + salt;
  r.stream_words = 61 + salt;
  return r;
}

void expect_bit_identical(const RunResult& a, const RunResult& b) {
  // Bit equality, not EXPECT_DOUBLE_EQ: persistence stores raw bits.
  EXPECT_TRUE(run_results_identical(a, b));
}

void seed_entry(ServiceCycleCache& cache, const ServiceCycleCache::Key& key,
                const RunResult& result) {
  ASSERT_FALSE(cache.acquire(key).has_value());
  cache.publish(key, result);
}

TEST(CycleCachePersist, RoundTripIsBitIdentical) {
  const std::string path = temp_path("cycle_cache_roundtrip.bin");
  std::remove(path.c_str());

  ServiceCycleCache cache(16);
  const ServiceCycleCache::Key warm{101, 202, 3, true};
  const ServiceCycleCache::Key cold{101, 202, 3, false};
  seed_entry(cache, warm, rich_result(1));
  seed_entry(cache, cold, rich_result(2));
  ASSERT_EQ(cache.save(path), 2U);

  ServiceCycleCache reloaded(16);
  ASSERT_EQ(reloaded.load(path), 2U);
  EXPECT_EQ(reloaded.size(), 2U);
  // Loaded entries are replays, not this process's publishes.
  EXPECT_EQ(reloaded.stats().insertions, 0U);

  const std::optional<RunResult> warm_seen = reloaded.acquire(warm);
  ASSERT_TRUE(warm_seen.has_value());
  expect_bit_identical(rich_result(1), *warm_seen);
  const std::optional<RunResult> cold_seen = reloaded.acquire(cold);
  ASSERT_TRUE(cold_seen.has_value());
  expect_bit_identical(rich_result(2), *cold_seen);
  std::remove(path.c_str());
}

TEST(CycleCachePersist, SegmentCountIsNotPartOfTheOnDiskFormat) {
  // A sharded cache saves a merged view; any segmentation loads it.
  // Save from 4 segments, reload into 1 and 8: every entry must replay
  // bit-identically — the file format stays v1, segment-agnostic.
  const std::string path = temp_path("cycle_cache_segments.bin");
  std::remove(path.c_str());

  // Capacity / segments stays >= the entry count so the per-segment
  // LRU bound can never evict, however unevenly the keys hash.
  ServiceCycleCache sharded(128, nullptr, 4);
  std::vector<ServiceCycleCache::Key> keys;
  for (std::uint64_t k = 0; k < 12; ++k) {
    keys.push_back({k * 31 + 5, k * 17 + 9, 3, k % 2 == 0});
    seed_entry(sharded, keys.back(), rich_result(k));
  }
  ASSERT_EQ(sharded.save(path), keys.size());

  for (const std::size_t segments : {1u, 8u}) {
    ServiceCycleCache reloaded(128, nullptr, segments);
    ASSERT_EQ(reloaded.load(path), keys.size()) << segments << " segments";
    EXPECT_EQ(reloaded.size(), keys.size());
    for (std::uint64_t k = 0; k < keys.size(); ++k) {
      const std::optional<RunResult> seen = reloaded.acquire(keys[k]);
      ASSERT_TRUE(seen.has_value())
          << "key " << k << " lost at " << segments << " segments";
      expect_bit_identical(rich_result(k), *seen);
    }
  }
  std::remove(path.c_str());
}

TEST(CycleCachePersist, RoundTripsRealSimulationResults) {
  const std::string path = temp_path("cycle_cache_real.bin");
  std::remove(path.c_str());

  model::ModelConfig mc;
  mc.vocab_size = 12;
  mc.embedding_dim = 8;
  mc.hops = 2;
  mc.max_memory = 8;
  numeric::Rng rng(7);
  const model::MemN2N net(mc, rng);
  const Accelerator device(AccelConfig{}, compile_model(net));
  std::vector<data::EncodedStory> stories(4);
  for (std::size_t i = 0; i < stories.size(); ++i) {
    const auto w = [&](std::size_t k) {
      return static_cast<std::int32_t>((i + k) % 12);
    };
    stories[i].context = {{w(0), w(1)}, {w(2), w(3)}};
    stories[i].question = {w(4)};
    stories[i].answer = w(5);
  }

  ServiceCycleCache cache(8);
  RunOptions options;
  options.cycle_cache = &cache;
  const RunResult simulated = device.run(stories, options);
  ASSERT_EQ(cache.save(path), 1U);

  // A fresh cache loaded from disk replays the identical result.
  ServiceCycleCache reloaded(8);
  ASSERT_EQ(reloaded.load(path), 1U);
  options.cycle_cache = &reloaded;
  const RunResult replayed = device.run(stories, options);
  EXPECT_EQ(reloaded.stats().hits, 1U);
  EXPECT_EQ(reloaded.stats().misses, 0U);
  expect_bit_identical(simulated, replayed);
  std::remove(path.c_str());
}

TEST(CycleCachePersist, MissingFileLoadsNothing) {
  ServiceCycleCache cache(4);
  EXPECT_EQ(cache.load(temp_path("cycle_cache_does_not_exist.bin")), 0U);
  EXPECT_EQ(cache.size(), 0U);
}

TEST(CycleCachePersist, GarbageFileIsIgnored) {
  const std::string path = temp_path("cycle_cache_garbage.bin");
  write_file(path, "this is not a cycle cache at all, not even close");
  ServiceCycleCache cache(4);
  EXPECT_EQ(cache.load(path), 0U);
  EXPECT_EQ(cache.size(), 0U);
  std::remove(path.c_str());
}

TEST(CycleCachePersist, TruncatedFileIsIgnored) {
  const std::string path = temp_path("cycle_cache_truncated.bin");
  std::remove(path.c_str());
  ServiceCycleCache cache(4);
  seed_entry(cache, {1, 2, 3, false}, rich_result(1));
  ASSERT_EQ(cache.save(path), 1U);

  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 8U);
  // Chop mid-payload (and, for the shortest prefix, mid-header): every
  // truncation point must load nothing, not a partial cache.
  for (const std::size_t keep :
       {bytes.size() - 1, bytes.size() / 2, std::size_t{12}}) {
    write_file(path, bytes.substr(0, keep));
    ServiceCycleCache fresh(4);
    EXPECT_EQ(fresh.load(path), 0U) << "kept " << keep << " bytes";
    EXPECT_EQ(fresh.size(), 0U);
  }
  std::remove(path.c_str());
}

TEST(CycleCachePersist, CorruptedPayloadFailsChecksum) {
  const std::string path = temp_path("cycle_cache_corrupt.bin");
  std::remove(path.c_str());
  ServiceCycleCache cache(4);
  seed_entry(cache, {1, 2, 3, false}, rich_result(1));
  ASSERT_EQ(cache.save(path), 1U);

  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 48U);
  bytes[bytes.size() - 5] ^= 0x40;  // single bit flip deep in the payload
  write_file(path, bytes);

  ServiceCycleCache fresh(4);
  EXPECT_EQ(fresh.load(path), 0U);
  EXPECT_EQ(fresh.size(), 0U);
  std::remove(path.c_str());
}

TEST(CycleCachePersist, VersionMismatchInvalidates) {
  const std::string path = temp_path("cycle_cache_version.bin");
  std::remove(path.c_str());
  ServiceCycleCache cache(4);
  seed_entry(cache, {1, 2, 3, false}, rich_result(1));
  ASSERT_EQ(cache.save(path), 1U);

  // The version lives in header bytes [8, 16); the checksum only covers
  // the payload, so this isolates the version gate from the checksum one.
  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 16U);
  bytes[8] = static_cast<char>(ServiceCycleCache::kPersistVersion + 1);
  write_file(path, bytes);

  ServiceCycleCache fresh(4);
  EXPECT_EQ(fresh.load(path), 0U);
  EXPECT_EQ(fresh.size(), 0U);
  std::remove(path.c_str());
}

TEST(CycleCachePersist, SimulatorModelMismatchInvalidates) {
  const std::string path = temp_path("cycle_cache_sim_model.bin");
  std::remove(path.c_str());
  ServiceCycleCache cache(4);
  seed_entry(cache, {1, 2, 3, false}, rich_result(1));
  ASSERT_EQ(cache.save(path), 1U);

  // The simulator model version lives in header bytes [12, 16), beside
  // the format version; a file from another model must load nothing,
  // even though its layout and checksum are intact.
  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 16U);
  std::uint32_t model = 0;
  std::memcpy(&model, bytes.data() + 12, sizeof(model));
  EXPECT_EQ(model, kSimModelVersion);
  for (const std::uint32_t other : {kSimModelVersion + 1, 0U}) {
    std::memcpy(bytes.data() + 12, &other, sizeof(other));
    write_file(path, bytes);
    ServiceCycleCache fresh(4);
    EXPECT_EQ(fresh.load(path), 0U);
    EXPECT_EQ(fresh.size(), 0U);
  }
  std::remove(path.c_str());
}

TEST(CycleCachePersist, LoadMergesAndResidentKeysWin) {
  const std::string path = temp_path("cycle_cache_merge.bin");
  std::remove(path.c_str());
  const ServiceCycleCache::Key shared{9, 9, 2, false};
  const ServiceCycleCache::Key only_on_disk{9, 10, 2, false};

  ServiceCycleCache writer(8);
  seed_entry(writer, shared, rich_result(1));
  seed_entry(writer, only_on_disk, rich_result(2));
  ASSERT_EQ(writer.save(path), 2U);

  // The reader already computed `shared` itself (different salt): its own
  // entry must survive the merge, while the disk-only key joins it.
  ServiceCycleCache reader(8);
  seed_entry(reader, shared, rich_result(3));
  EXPECT_EQ(reader.load(path), 1U);
  EXPECT_EQ(reader.size(), 2U);
  expect_bit_identical(rich_result(3), *reader.acquire(shared));
  expect_bit_identical(rich_result(2), *reader.acquire(only_on_disk));
  std::remove(path.c_str());
}

TEST(CycleCachePersist, LoadRespectsCapacityKeepingHottestEntries) {
  const std::string path = temp_path("cycle_cache_capacity.bin");
  std::remove(path.c_str());
  ServiceCycleCache writer(8);
  for (std::uint64_t i = 0; i < 4; ++i) {
    seed_entry(writer, {i, i, 1, false}, rich_result(i));
  }
  ASSERT_EQ(writer.save(path), 4U);

  // A smaller cache truncates on load — and keeps the most recently
  // used entries (save orders coldest-first for exactly this reason).
  ServiceCycleCache small(2);
  EXPECT_EQ(small.load(path), 4U);
  EXPECT_EQ(small.size(), 2U);
  EXPECT_TRUE(small.acquire({3, 3, 1, false}).has_value());
  EXPECT_TRUE(small.acquire({2, 2, 1, false}).has_value());
  EXPECT_FALSE(small.acquire({0, 0, 1, false}).has_value());
  small.abandon({0, 0, 1, false});
  std::remove(path.c_str());
}

TEST(CycleCachePersist, SaveOverwritesAtomicallyAndIsReloadable) {
  const std::string path = temp_path("cycle_cache_overwrite.bin");
  std::remove(path.c_str());
  ServiceCycleCache first(4);
  seed_entry(first, {1, 1, 1, false}, rich_result(1));
  ASSERT_EQ(first.save(path), 1U);

  ServiceCycleCache second(4);
  seed_entry(second, {2, 2, 1, false}, rich_result(2));
  seed_entry(second, {3, 3, 1, false}, rich_result(3));
  ASSERT_EQ(second.save(path), 2U);  // replaces, never appends

  ServiceCycleCache reloaded(4);
  EXPECT_EQ(reloaded.load(path), 2U);
  EXPECT_FALSE(reloaded.acquire({1, 1, 1, false}).has_value());
  reloaded.abandon({1, 1, 1, false});
  EXPECT_TRUE(reloaded.acquire({2, 2, 1, false}).has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mann::accel
