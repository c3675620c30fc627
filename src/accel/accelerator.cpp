#include "accel/accelerator.hpp"

#include <array>
#include <bit>
#include <stdexcept>

#include "accel/device_graph.hpp"
#include "accel/service_cycle_cache.hpp"

namespace mann::accel {

namespace {

// FNV-1a (the cache's shared mixer) over the timing-relevant device
// identity (config + program). Everything the simulation's timing or
// outputs can depend on is mixed in; watchdog_cycles is deliberately
// excluded (it only bounds runaway simulations — expiry throws, so a
// watchdog difference can never publish a differing result).
class Fingerprint {
 public:
  void mix(std::uint64_t word) noexcept { h_ = fnv1a_mix(h_, word); }
  void mix(double value) noexcept { mix(std::bit_cast<std::uint64_t>(value)); }
  void mix(bool value) noexcept { mix(std::uint64_t{value ? 1U : 0U}); }
  void mix_matrix(const FxMatrix& m) noexcept {
    mix(m.rows());
    mix(m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (const Fx word : m.row(r)) {
        mix(static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(word.raw())));
      }
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kFnv1aOffset;
};

std::uint64_t fingerprint_device(const AccelConfig& config,
                                 const DeviceProgram& program) noexcept {
  Fingerprint fp;
  fp.mix(std::uint64_t{kSimModelVersion});
  fp.mix(config.clock_hz);
  fp.mix(config.timing.lane_width);
  fp.mix(config.timing.exp_latency);
  fp.mix(config.timing.exp_ii);
  fp.mix(config.timing.div_latency);
  fp.mix(config.timing.div_ii);
  fp.mix(config.timing.bram_write);
  fp.mix(config.fifo_depth);
  fp.mix(config.link.words_per_second);
  fp.mix(config.link.model_words_per_second);
  fp.mix(config.link.per_story_latency);
  fp.mix(config.link.result_latency);
  fp.mix(config.link.synchronous_stories);
  fp.mix(config.sparse_read_slots);
  fp.mix(config.ith_enabled);
  fp.mix(config.use_index_ordering);

  fp.mix(program.vocab_size);
  fp.mix(program.embedding_dim);
  fp.mix(program.hops);
  fp.mix(program.max_memory);
  fp.mix_matrix(program.emb_a);
  fp.mix_matrix(program.emb_c);
  fp.mix_matrix(program.emb_q);
  fp.mix_matrix(program.w_r);
  fp.mix_matrix(program.w_o);
  fp.mix(program.thresholds.size());
  for (const Fx t : program.thresholds) {
    fp.mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.raw())));
  }
  fp.mix(program.probe_order.size());
  for (const std::int32_t c : program.probe_order) {
    fp.mix(static_cast<std::uint64_t>(c));
  }
  return fp.value();
}

}  // namespace

double RunResult::early_exit_rate() const noexcept {
  if (stories.empty()) {
    return 0.0;
  }
  std::size_t exits = 0;
  for (const StoryOutcome& s : stories) {
    exits += s.early_exit ? 1 : 0;
  }
  return static_cast<double>(exits) / static_cast<double>(stories.size());
}

double RunResult::mean_output_probes() const noexcept {
  if (stories.empty()) {
    return 0.0;
  }
  std::uint64_t probes = 0;
  for (const StoryOutcome& s : stories) {
    probes += s.output_probes;
  }
  return static_cast<double>(probes) / static_cast<double>(stories.size());
}

Accelerator::Accelerator(AccelConfig config, DeviceProgram program)
    : config_(config), program_(std::move(program)) {
  if (config_.clock_hz <= 0.0) {
    throw std::invalid_argument("Accelerator: clock must be positive");
  }
  if (config_.ith_enabled && !program_.has_ith_tables()) {
    throw std::invalid_argument(
        "Accelerator: ITH enabled but the program has no threshold tables");
  }
  fingerprint_ = fingerprint_device(config_, program_);
}

namespace {

bool same_ops(const sim::OpCounts& a, const sim::OpCounts& b) noexcept {
  return a.mac == b.mac && a.add == b.add && a.exp == b.exp &&
         a.div == b.div && a.mem_read == b.mem_read &&
         a.mem_write == b.mem_write && a.compare == b.compare;
}

bool same_fifo(const sim::FifoStats& a, const sim::FifoStats& b) noexcept {
  return a.pushes == b.pushes && a.pops == b.pops &&
         a.full_rejects == b.full_rejects && a.max_occupancy == b.max_occupancy;
}

}  // namespace

bool run_results_identical(const RunResult& a, const RunResult& b) noexcept {
  if (a.total_cycles != b.total_cycles ||
      std::bit_cast<std::uint64_t>(a.seconds) !=
          std::bit_cast<std::uint64_t>(b.seconds) ||
      !same_ops(a.total_ops, b.total_ops) ||
      !same_fifo(a.fifo_in_stats, b.fifo_in_stats) ||
      !same_fifo(a.fifo_out_stats, b.fifo_out_stats) ||
      a.link_active_cycles != b.link_active_cycles ||
      a.stream_words != b.stream_words ||
      a.stories.size() != b.stories.size() ||
      a.modules.size() != b.modules.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.stories.size(); ++i) {
    const StoryOutcome& x = a.stories[i];
    const StoryOutcome& y = b.stories[i];
    if (x.prediction != y.prediction || x.output_probes != y.output_probes ||
        x.early_exit != y.early_exit || x.finish_cycle != y.finish_cycle) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.modules.size(); ++i) {
    const ModuleReport& x = a.modules[i];
    const ModuleReport& y = b.modules[i];
    if (x.name != y.name || x.stats.busy_cycles != y.stats.busy_cycles ||
        x.stats.stall_cycles != y.stats.stall_cycles ||
        !same_ops(x.stats.ops, y.stats.ops)) {
      return false;
    }
  }
  return true;
}

sim::FifoStats RunResult::queue_stats() const noexcept {
  sim::FifoStats combined = fifo_in_stats;
  combined += fifo_out_stats;
  return combined;
}

RunResult Accelerator::run(std::span<const data::EncodedStory> stories,
                           const RunOptions& options) const {
  ServiceCycleCache::Key key;
  if (options.cache_outcome != nullptr) {
    *options.cache_outcome = CacheOutcome::kNone;
  }
  if (options.cycle_cache != nullptr) {
    key = {fingerprint_, digest_stories(stories), stories.size(),
           options.model_resident};
    if (std::optional<RunResult> hit =
            options.cycle_cache->acquire(key, options.cache_outcome)) {
      // Timing replay: the memoized result is bit-identical to what
      // re-simulation would produce — the key covers every input the
      // simulation depends on — so the whole run collapses to this copy.
      return std::move(*hit);
    }
  }
  try {
    RunResult result = simulate(stories, options);
    if (options.cycle_cache != nullptr) {
      options.cycle_cache->publish(key, result);
    }
    return result;
  } catch (...) {
    if (options.cycle_cache != nullptr) {
      options.cycle_cache->abandon(key);
    }
    throw;
  }
}

RunResult Accelerator::simulate(std::span<const data::EncodedStory> stories,
                                const RunOptions& options) const {
  DeviceGraph graph(config_, program_, stories, options.model_resident);
  (void)graph.simulator().run_events([&] { return graph.done(); },
                                     config_.watchdog_cycles);
  return graph.result();
}

DeviceGraph::DeviceGraph(const AccelConfig& config,
                         const DeviceProgram& program,
                         std::span<const data::EncodedStory> stories,
                         bool model_resident)
    : config_(config),
      expected_(stories.size()),
      state_(program),
      fifo_in_("FIFO_IN", config.fifo_depth),
      fifo_out_("FIFO_OUT", config.fifo_depth),
      cmd_fifo_("CMD_FIFO", config.fifo_depth),
      host_(config, model_resident ? 0 : program.model_words(),
            encode_workload(0, stories), fifo_in_, fifo_out_),
      control_(state_, fifo_in_, cmd_fifo_),
      input_write_(state_, config, cmd_fifo_),
      read_(state_, config),
      mem_(state_, config),
      output_(state_, config, fifo_out_) {
  if (model_resident) {
    // Warm device: BRAM already holds this program; the stream carries no
    // model words and CONTROL must accept stories immediately.
    state_.model_words_seen = program.model_words();
    state_.model_loaded = true;
  }
  // Producer-to-consumer order along the write path, then the read path.
  simulator_.add_module(host_);
  simulator_.add_module(control_);
  simulator_.add_module(input_write_);
  simulator_.add_module(read_);
  simulator_.add_module(mem_);
  simulator_.add_module(output_);
}

RunResult DeviceGraph::result() const {
  RunResult result;
  result.total_cycles = simulator_.now();
  result.seconds =
      static_cast<double>(result.total_cycles) / config_.clock_hz;
  result.stream_words = host_.words_total();
  result.link_active_cycles = host_.link_active_cycles();

  const auto& records = output_.records();
  if (records.size() != expected_ || host_.answers().size() != expected_) {
    throw std::logic_error("Accelerator: record/answer count mismatch");
  }
  result.stories.reserve(expected_);
  for (std::size_t i = 0; i < expected_; ++i) {
    StoryOutcome outcome;
    outcome.prediction = records[i].prediction;
    outcome.output_probes = records[i].probes;
    outcome.early_exit = records[i].early_exit;
    outcome.finish_cycle = host_.answers()[i].cycle;
    result.stories.push_back(outcome);
  }

  const std::array<const sim::Module*, 6> all_modules = {
      &host_, &control_, &input_write_, &read_, &mem_, &output_};
  for (const sim::Module* m : all_modules) {
    result.modules.push_back({m->name(), m->stats()});
    result.total_ops += m->stats().ops;
  }
  result.fifo_in_stats = fifo_in_.stats();
  result.fifo_out_stats = fifo_out_.stats();
  return result;
}

RunResult simulate_ticked(const AccelConfig& config,
                          const DeviceProgram& program,
                          std::span<const data::EncodedStory> stories,
                          bool model_resident) {
  DeviceGraph graph(config, program, stories, model_resident);
  (void)graph.simulator().run_until([&] { return graph.done(); },
                                    config.watchdog_cycles);
  return graph.result();
}

}  // namespace mann::accel
