// Differential oracle for the event-driven device simulation on the real
// workload: every suite task's trained program, warm and cold, with and
// without ITH, at the four Table I clocks. Accelerator::run must report
// every RunResult field bit-identical to the same device graph ticked
// every cycle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "accel/compiler.hpp"
#include "accel/device_graph.hpp"
#include "data/tasks.hpp"
#include "runtime/measurement.hpp"

namespace mann {
namespace {

TEST(EventSimulationSuite, MatchesTickedSimulationOnEverySuiteTask) {
  runtime::PrepareConfig cfg = runtime::default_prepare_config();
  cfg.dataset.train_stories = 200;
  cfg.dataset.test_stories = 40;
  cfg.model.embedding_dim = 24;
  cfg.model.hops = 3;
  cfg.train.epochs = 8;
  const std::vector<runtime::TaskArtifacts> suite = runtime::prepare_suite(cfg);
  ASSERT_EQ(suite.size(), 20U);

  std::size_t runs = 0;
  for (const runtime::TaskArtifacts& art : suite) {
    const accel::DeviceProgram plain = accel::compile_model(art.model);
    const accel::DeviceProgram ith = accel::compile_model(art.model, &art.ith);
    for (const double mhz : {25.0, 50.0, 75.0, 100.0}) {
      for (const bool use_ith : {false, true}) {
        accel::AccelConfig config;
        config.clock_hz = mhz * 1.0e6;
        config.ith_enabled = use_ith;
        const accel::DeviceProgram& program = use_ith ? ith : plain;
        const accel::Accelerator device(config, program);
        for (const bool resident : {false, true}) {
          std::string label = data::task_name(art.dataset.id);
          label += " " + std::to_string(mhz) + " MHz";
          label += use_ith ? " ITH" : "";
          label += resident ? " warm" : " cold";
          SCOPED_TRACE(label);
          accel::RunOptions options;
          options.model_resident = resident;
          const accel::RunResult events = device.run(art.dataset.test, options);
          const accel::RunResult ticked = accel::simulate_ticked(
              config, program, art.dataset.test, resident);
          EXPECT_EQ(events.total_cycles, ticked.total_cycles);
          EXPECT_TRUE(accel::run_results_identical(events, ticked));
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, 20U * 4U * 2U * 2U);
}

}  // namespace
}  // namespace mann
