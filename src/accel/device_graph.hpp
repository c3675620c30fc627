// The device of Fig. 1 wired for one run: host link, FIFOs and the five
// modules on one simulator, in dataflow tick order. Internal to the accel
// library: Accelerator::simulate drives it on the event loop
// (Simulator::run_events), and the differential tests drive the same
// graph tick by tick (Simulator::run_until) as the reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "accel/accelerator.hpp"
#include "accel/control.hpp"
#include "accel/host_link.hpp"
#include "accel/input_write.hpp"
#include "accel/mem_module.hpp"
#include "accel/output_module.hpp"
#include "accel/read_module.hpp"
#include "accel/state.hpp"
#include "sim/simulator.hpp"

namespace mann::accel {

class DeviceGraph {
 public:
  /// `config` and `program` must outlive the graph. A resident model
  /// (RunOptions::model_resident) streams no upload words.
  DeviceGraph(const AccelConfig& config, const DeviceProgram& program,
              std::span<const data::EncodedStory> stories,
              bool model_resident);

  DeviceGraph(const DeviceGraph&) = delete;
  DeviceGraph& operator=(const DeviceGraph&) = delete;

  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }

  /// Every story's answer has reached the host.
  [[nodiscard]] bool done() const noexcept {
    return host_.answers().size() >= expected_;
  }

  /// The run report; valid once done() holds.
  [[nodiscard]] RunResult result() const;

 private:
  const AccelConfig& config_;
  std::size_t expected_;
  AcceleratorState state_;
  sim::Fifo<StreamWord> fifo_in_;
  sim::Fifo<std::int32_t> fifo_out_;
  sim::Fifo<InputCmd> cmd_fifo_;
  HostLinkModule host_;
  ControlModule control_;
  InputWriteModule input_write_;
  ReadModule read_;
  MemModule mem_;
  OutputModule output_;
  sim::Simulator simulator_;
};

/// Runs `stories` through a fresh graph ticking every module every cycle
/// — the reference the event-driven Accelerator::run is checked against.
[[nodiscard]] RunResult simulate_ticked(
    const AccelConfig& config, const DeviceProgram& program,
    std::span<const data::EncodedStory> stories, bool model_resident);

}  // namespace mann::accel
