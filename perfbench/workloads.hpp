// The benchmark's workloads. Each one is set up once (compile the
// programs, build the arrival schedule from the seed), then runs timed
// passes over identical inputs; every pass reports its host times, the
// simulated metrics users read, per-layer figures and a digest of every
// simulated field.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "runtime/measurement.hpp"

namespace perfbench {

using Suite = std::vector<mann::runtime::TaskArtifacts>;

/// Workload sizes. The defaults define the benchmark; the self-test
/// shrinks them.
struct Sizes {
  std::size_t arrivals = 20'000;         ///< serve_*: generated arrivals
  std::size_t fleet_scale = 10;          ///< fleet_diurnal: trace amplification
  std::string trace_path = "bench/traces/sample_diurnal.csv";
  std::string scratch_dir = ".bench_build/perfbench";
};

/// What one timed pass measured.
struct PassResult {
  std::int64_t start_ns = 0;  ///< the pass's timed phase (steady clock)
  std::int64_t end_ns = 0;
  Ledger ledger;            ///< offered / completed / shed / unresolved
  std::vector<double> op_us;  ///< host time per arrival (per story on table1)
  std::map<std::string, double> sim;    ///< simulated end-to-end metrics
  std::map<std::string, double> layer;  ///< per-layer figures of this pass
  std::uint64_t digest = 0;  ///< every simulated field of the pass
  std::vector<std::string> errors;  ///< failed output checks

  [[nodiscard]] double wall_s() const noexcept {
    return seconds_between(start_ns, end_ns);
  }
};

/// Host threads a workload's passes run on. The end-to-end run keeps every
/// pass on the driving thread, which keeps its host times steady; the
/// traced run uses the host-parallel configuration, so its per-layer
/// figures cover the worker pool and the fleet pool. The simulated output
/// is the same either way.
enum class HostThreads { kSequential, kParallel };

class Workload {
 public:
  virtual ~Workload() = default;
  /// The host-thread knobs its passes set, for the provenance line.
  [[nodiscard]] virtual std::string host_threads() const { return "1"; }
  /// Compiles the programs and builds the input schedule (timed as set-up).
  virtual void setup(const Suite& suite, const Probe& probe) = 0;
  /// One-off untimed work between set-up and the first pass.
  virtual void prepare() {}
  /// One timed pass. `registry`, when set, is attached to the library's
  /// ServerConfig::metrics sink for this pass only.
  virtual PassResult pass(const Probe& probe,
                          mann::obs::MetricsRegistry* registry) = 0;
  /// Output checks that need the whole run (e.g. against the reference
  /// model); run once, untimed, after the passes.
  virtual std::vector<std::string> final_checks() { return {}; }
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, const Sizes& sizes,
    HostThreads threads = HostThreads::kSequential);

}  // namespace perfbench
