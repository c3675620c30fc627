// Differential oracle for the event-driven device simulation: on small
// synthetic programs and stall-heavy configurations, Accelerator::run
// (Simulator::run_events, quiescent stretches skipped) must report every
// RunResult field bit-identical to the same device graph ticked every
// cycle (Simulator::run_until).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/device_graph.hpp"
#include "numeric/random.hpp"

namespace mann::accel {
namespace {

FxMatrix random_matrix(std::size_t rows, std::size_t cols, float scale,
                       numeric::Rng& rng) {
  FxMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = Fx::from_float(rng.uniform(-scale, scale));
    }
  }
  return m;
}

/// A random V-class, E-dim program with ITH tables whose thresholds sit
/// near typical logits, so some stories exit early and some do not.
DeviceProgram synthetic_program(std::size_t vocab, std::size_t dim,
                                std::size_t hops, std::size_t memory,
                                std::uint64_t seed) {
  numeric::Rng rng(seed);
  DeviceProgram p;
  p.vocab_size = vocab;
  p.embedding_dim = dim;
  p.hops = hops;
  p.max_memory = memory;
  p.emb_a = random_matrix(vocab, dim, 1.0F, rng);
  p.emb_c = random_matrix(vocab, dim, 1.0F, rng);
  p.emb_q = random_matrix(vocab, dim, 1.0F, rng);
  p.w_r = random_matrix(dim, dim, 0.5F, rng);
  p.w_o = random_matrix(vocab, dim, 1.0F, rng);
  for (std::size_t c = 0; c < vocab; ++c) {
    p.thresholds.push_back(
        c % 3 == 0 ? Fx::max() : Fx::from_float(rng.uniform(0.0F, 2.0F)));
    p.probe_order.push_back(static_cast<std::int32_t>((c * 5 + 1) % vocab));
  }
  return p;
}

std::vector<data::EncodedStory> synthetic_stories(std::size_t count,
                                                  std::size_t vocab,
                                                  std::uint64_t seed) {
  numeric::Rng rng(seed);
  const auto word = [&] {
    return static_cast<std::int32_t>(rng.index(vocab));
  };
  std::vector<data::EncodedStory> stories(count);
  for (data::EncodedStory& s : stories) {
    const std::size_t sentences = 1 + rng.index(7);
    for (std::size_t i = 0; i < sentences; ++i) {
      std::vector<std::int32_t> sentence(1 + rng.index(5));
      for (std::int32_t& w : sentence) {
        w = word();
      }
      s.context.push_back(std::move(sentence));
    }
    s.question.resize(1 + rng.index(4));
    for (std::int32_t& w : s.question) {
      w = word();
    }
    s.answer = word();
  }
  return stories;
}

struct Case {
  std::string name;
  AccelConfig config;
};

/// Stall-heavy and otherwise awkward configurations: shallow FIFOs,
/// a narrow adder tree, sparse reads, a pipelined host with no setup
/// latency, and link rates with inexact or sub-word credit steps.
std::vector<Case> cases() {
  std::vector<Case> out;
  const auto add = [&](std::string name, auto&& tweak) {
    for (const bool ith : {false, true}) {
      AccelConfig cfg;
      cfg.ith_enabled = ith;
      tweak(cfg);
      out.push_back({name + (ith ? "/ith" : ""), cfg});
    }
  };
  add("default", [](AccelConfig&) {});
  add("25MHz", [](AccelConfig& c) { c.clock_hz = 25.0e6; });
  add("75MHz", [](AccelConfig& c) { c.clock_hz = 75.0e6; });
  add("fifo1", [](AccelConfig& c) { c.fifo_depth = 1; });
  add("fifo2", [](AccelConfig& c) { c.fifo_depth = 2; });
  add("lane4", [](AccelConfig& c) { c.timing.lane_width = 4; });
  add("sparse2", [](AccelConfig& c) { c.sparse_read_slots = 2; });
  add("pipelined", [](AccelConfig& c) {
    c.link.synchronous_stories = false;
    c.link.per_story_latency = 0.0;
  });
  add("pipelined-fifo2-lane4", [](AccelConfig& c) {
    c.link.synchronous_stories = false;
    c.link.per_story_latency = 0.0;
    c.fifo_depth = 2;
    c.timing.lane_width = 4;
    c.sparse_read_slots = 2;
  });
  add("fast-link-fifo1", [](AccelConfig& c) {
    // Several stream words per cycle: the link outruns CONTROL.
    c.link.words_per_second = 3.5e8;
    c.link.model_words_per_second = 1.3e8;
    c.fifo_depth = 1;
  });
  add("slow-upload", [](AccelConfig& c) {
    c.link.model_words_per_second = 0.3e8;  // under one word per cycle
    c.link.result_latency = 0.0;
  });
  return out;
}

TEST(EventSimulation, MatchesTickedSimulationOnSyntheticPrograms) {
  const std::vector<DeviceProgram> programs = {
      synthetic_program(7, 5, 2, 4, 11),
      synthetic_program(12, 9, 3, 6, 12),
      synthetic_program(5, 3, 1, 2, 13),
  };
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const DeviceProgram& program = programs[p];
    const std::vector<data::EncodedStory> stories =
        synthetic_stories(9, program.vocab_size, 100 + p);
    for (const Case& c : cases()) {
      const Accelerator device(c.config, program);
      for (const bool resident : {false, true}) {
        SCOPED_TRACE("program " + std::to_string(p) + " " + c.name +
                     (resident ? " warm" : " cold"));
        RunOptions options;
        options.model_resident = resident;
        const RunResult events = device.run(stories, options);
        const RunResult ticked =
            simulate_ticked(c.config, program, stories, resident);
        EXPECT_EQ(events.total_cycles, ticked.total_cycles);
        EXPECT_TRUE(run_results_identical(events, ticked));
      }
    }
  }
}

TEST(EventSimulation, IdentityCheckSeesEveryField) {
  const DeviceProgram program = synthetic_program(6, 4, 2, 3, 21);
  const std::vector<data::EncodedStory> stories =
      synthetic_stories(3, program.vocab_size, 22);
  const RunResult base = simulate_ticked({}, program, stories, false);
  ASSERT_TRUE(run_results_identical(base, base));
  RunResult changed = base;
  changed.stories.back().finish_cycle += 1;
  EXPECT_FALSE(run_results_identical(base, changed));
  changed = base;
  changed.modules[0].stats.stall_cycles += 1;
  EXPECT_FALSE(run_results_identical(base, changed));
  changed = base;
  changed.fifo_in_stats.full_rejects += 1;
  EXPECT_FALSE(run_results_identical(base, changed));
  changed = base;
  changed.link_active_cycles += 1;
  EXPECT_FALSE(run_results_identical(base, changed));
}

TEST(EventSimulation, WatchdogExpiryStillThrows) {
  const DeviceProgram program = synthetic_program(7, 5, 2, 4, 31);
  const std::vector<data::EncodedStory> stories =
      synthetic_stories(4, program.vocab_size, 32);
  AccelConfig cfg;
  // Far too few cycles for the upload plus four stories: the event loop
  // must still stop at the watchdog, whether it lands mid-skip or not.
  for (const sim::Cycle watchdog : {sim::Cycle{50}, sim::Cycle{3'000}}) {
    cfg.watchdog_cycles = watchdog;
    const Accelerator device(cfg, program);
    EXPECT_THROW((void)device.run(stories), std::runtime_error);
    EXPECT_THROW((void)simulate_ticked(cfg, program, stories, false),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace mann::accel
