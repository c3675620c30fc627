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
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <utility>
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

// Header layout: u64 magic, u64 versions, u64 payload_bytes,
// u64 payload checksum, u64 entry count; the payload follows.
constexpr std::size_t kPayloadBytesOffset = 16;
constexpr std::size_t kChecksumOffset = 24;
constexpr std::size_t kCountOffset = 32;
constexpr std::size_t kHeaderBytes = 40;

std::uint64_t u64_at(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void put_u64_at(std::string& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof(v));
}

/// Rewrites the header's payload size and checksum to match the payload,
/// so a mutated payload gets past the integrity gates to the entry parser.
void reseal(std::string& bytes) {
  std::uint64_t h = kFnv1aOffset;
  for (std::size_t i = kHeaderBytes; i < bytes.size(); ++i) {
    h = fnv1a_mix(h, static_cast<std::uint8_t>(bytes[i]));
  }
  put_u64_at(bytes, kPayloadBytesOffset, bytes.size() - kHeaderBytes);
  put_u64_at(bytes, kChecksumOffset, h);
}

/// Offsets of every count/length field of a well-formed file: the
/// header's entry count and, per entry, the story count, the module
/// count and each module-name length.
std::vector<std::size_t> count_field_offsets(const std::string& bytes) {
  std::vector<std::size_t> offsets{kCountOffset};
  std::size_t at = kHeaderBytes;
  for (std::uint64_t e = 0; e < u64_at(bytes, kCountOffset); ++e) {
    at += 3 * 8 + 1;  // key
    offsets.push_back(at);
    at += 8 + u64_at(bytes, at) * (3 * 8 + 1);  // stories
    at += 2 * 8;                                // total_cycles, seconds
    offsets.push_back(at);
    const std::uint64_t modules = u64_at(bytes, at);
    at += 8;
    for (std::uint64_t m = 0; m < modules; ++m) {
      offsets.push_back(at);
      at += 8 + u64_at(bytes, at) + 2 * 8 + 7 * 8;  // name, cycles, ops
    }
    at += 7 * 8 + 2 * 4 * 8 + 2 * 8;  // ops, two FIFOs, link, stream
  }
  EXPECT_EQ(at, bytes.size());
  return offsets;
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

DeviceProgram tiny_program() {
  model::ModelConfig mc;
  mc.vocab_size = 12;
  mc.embedding_dim = 8;
  mc.hops = 2;
  mc.max_memory = 8;
  numeric::Rng rng(7);
  const model::MemN2N net(mc, rng);
  return compile_model(net);
}

std::vector<data::EncodedStory> tiny_stories(std::size_t count,
                                             std::size_t offset = 0) {
  std::vector<data::EncodedStory> stories(count);
  for (std::size_t i = 0; i < stories.size(); ++i) {
    const auto w = [&](std::size_t k) {
      return static_cast<std::int32_t>((i + k + offset) % 12);
    };
    stories[i].context = {{w(0), w(1)}, {w(2), w(3)}};
    stories[i].question = {w(4)};
    stories[i].answer = w(5);
  }
  return stories;
}

TEST(CycleCachePersist, RoundTripsRealSimulationResults) {
  const std::string path = temp_path("cycle_cache_real.bin");
  std::remove(path.c_str());

  const Accelerator device(AccelConfig{}, tiny_program());
  const std::vector<data::EncodedStory> stories = tiny_stories(4);

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

TEST(CycleCachePersist, ImplausibleEntryCountIsRejectedBeforeAllocating) {
  const std::string path = temp_path("cycle_cache_count.bin");
  std::remove(path.c_str());
  // An empty cache saves a bare header: empty payload, valid checksum.
  ServiceCycleCache empty(4);
  ASSERT_EQ(empty.save(path), 0U);
  std::string bytes = read_file(path);
  ASSERT_EQ(bytes.size(), kHeaderBytes);

  // Claim 2^20 entries. Sized from the count alone, the parse buffer
  // would take hundreds of MB before the first entry failed to parse.
  const std::uint64_t count = std::uint64_t{1} << 20;
  std::memcpy(bytes.data() + kCountOffset, &count, sizeof(count));
  write_file(path, bytes);

  ServiceCycleCache fresh(4);
  testing::internal::CaptureStderr();
  const std::size_t loaded = fresh.load(path);
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_EQ(loaded, 0U);
  EXPECT_EQ(fresh.size(), 0U);
  EXPECT_NE(warning.find("implausible entry count"), std::string::npos)
      << warning;
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

TEST(CycleCachePersist, SeededMutationsNeverCrashOrCorruptEntries) {
  const std::string path = temp_path("cycle_cache_mutated.bin");
  std::remove(path.c_str());

  // Real simulation results: warm and cold runs of several batch sizes,
  // so the file carries varied story counts and named module reports.
  const Accelerator device(AccelConfig{}, tiny_program());
  std::vector<std::vector<data::EncodedStory>> batches;
  for (std::size_t n = 1; n <= 3; ++n) {
    batches.push_back(tiny_stories(n, n));
  }
  ServiceCycleCache source(16);
  std::vector<std::pair<ServiceCycleCache::Key, RunResult>> originals;
  for (const auto& batch : batches) {
    for (const bool resident : {false, true}) {
      RunOptions options;
      options.model_resident = resident;
      options.cycle_cache = &source;
      originals.emplace_back(
          ServiceCycleCache::Key{device.fingerprint(), digest_stories(batch),
                                 batch.size(), resident},
          device.run(batch, options));
    }
  }
  ASSERT_EQ(source.save(path), originals.size());
  const std::string clean = read_file(path);

  // The unmutated file replays every batch bit-identically, no misses.
  {
    ServiceCycleCache reloaded(16);
    ASSERT_EQ(reloaded.load(path), originals.size());
    for (const auto& batch : batches) {
      for (const bool resident : {false, true}) {
        RunOptions options;
        options.model_resident = resident;
        options.cycle_cache = &reloaded;
        RunOptions fresh;
        fresh.model_resident = resident;
        EXPECT_TRUE(run_results_identical(device.run(batch, options),
                                          device.run(batch, fresh)));
      }
    }
    EXPECT_EQ(reloaded.stats().misses, 0U);
  }

  const std::vector<std::size_t> count_fields = count_field_offsets(clean);
  std::mt19937_64 rng(2019);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  constexpr int kMutations = 5000;
  testing::internal::CaptureStderr();  // one rejection warning per load
  for (int i = 0; i < kMutations; ++i) {
    std::string bytes = clean;
    const int kind = i % 5;
    if (kind == 0) {
      // Bit flip anywhere, checksum left alone: caught before parsing.
      bytes[below(bytes.size())] ^= static_cast<char>(1U << below(8));
    } else if (kind == 1) {
      // Truncation, resealed so the parser meets the short stream.
      bytes.resize(kHeaderBytes + below(bytes.size() - kHeaderBytes));
      reseal(bytes);
    } else if (kind == 2 || kind == 3) {
      // Splice: a payload slice inserted at (kind 2) or copied over
      // (kind 3) another offset, resealed.
      const std::size_t from =
          kHeaderBytes + below(bytes.size() - kHeaderBytes);
      const std::string slice =
          bytes.substr(from, 1 + below(bytes.size() - from));
      const std::size_t to =
          kHeaderBytes + below(bytes.size() - kHeaderBytes);
      if (kind == 2) {
        bytes.insert(to, slice);
      } else {
        bytes.replace(to, slice.size(), slice);
      }
      reseal(bytes);
    } else {
      // Count/length rewrite: one count field set to an edge value.
      const std::size_t at = count_fields[below(count_fields.size())];
      const std::uint64_t was = u64_at(bytes, at);
      const std::uint64_t values[] = {0,
                                      1,
                                      was - 1,
                                      was + 1,
                                      2 * was,
                                      std::uint64_t{1} << 20,
                                      std::uint64_t{1} << 32,
                                      std::uint64_t{1} << 63,
                                      ~std::uint64_t{0}};
      put_u64_at(bytes, at, values[below(std::size(values))]);
      reseal(bytes);
    }
    if (bytes == clean) {
      continue;  // a no-op mutation (e.g. a splice onto itself)
    }
    write_file(path, bytes);

    ServiceCycleCache cache(16);
    const std::size_t loaded = cache.load(path);
    SCOPED_TRACE("mutation " + std::to_string(i) + " kind " +
                 std::to_string(kind));
    EXPECT_LE(loaded, originals.size());
    EXPECT_EQ(cache.size(), loaded);
    if (kind == 0) {
      EXPECT_EQ(loaded, 0U);
    }
    if (kind == 3) {
      // A resealed overwrite can rewrite result fields in place, which
      // the recomputed checksum then vouches for: only the ledger above
      // is checkable.
      continue;
    }
    // Every other mutation shifts or cuts the entry stream: whatever
    // loaded replays an original result bit for bit.
    for (const auto& [key, result] : originals) {
      if (const std::optional<RunResult> seen = cache.acquire(key)) {
        EXPECT_TRUE(run_results_identical(result, *seen));
      } else {
        cache.abandon(key);
      }
    }
  }
  // The resealed mutations got past the integrity gates: the entry
  // parser itself rejected some of them, on each of its checks.
  const std::string warnings = testing::internal::GetCapturedStderr();
  for (const char* reason :
       {"checksum mismatch", "implausible entry count",
        "malformed entry stream", "trailing bytes after the last entry"}) {
    EXPECT_NE(warnings.find(reason), std::string::npos) << reason;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mann::accel
