// CONTROL module: decodes the input stream, gates story admission, and
// forwards word-level commands to the INPUT & WRITE module (Fig. 1's
// "inference control" + "FIFO control" roles).
#pragma once

#include <cstdint>

#include "accel/state.hpp"
#include "accel/stream.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class ControlModule final : public sim::Module {
 public:
  ControlModule(AcceleratorState& state, sim::Fifo<StreamWord>& fifo_in,
                sim::Fifo<InputCmd>& cmd_fifo);

  void tick() override;

  /// Now whenever a stream word waits (pop or stall), except that model
  /// words retire one per cycle unconditionally, so a queue holding only
  /// upload words is replayed by skip().
  [[nodiscard]] std::optional<sim::Cycle> next_activity(
      sim::Cycle now) const override;
  void skip(sim::Cycle cycles) override;

 private:
  void retire_model_words(std::uint64_t words);

  AcceleratorState& state_;
  const std::uint64_t model_words_;  ///< upload length of the program
  sim::Fifo<StreamWord>& fifo_in_;
  sim::Fifo<InputCmd>& cmd_fifo_;
};

}  // namespace mann::accel
