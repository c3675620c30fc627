// Host-side PCIe link model.
//
// Streams the workload words into FIFO_IN at a wall-clock-constant rate
// (converted to words-per-cycle at the configured fabric clock — this is
// what makes high clock frequencies interface-bound, the paper's §V
// observation) and drains answers from FIFO_OUT.
#pragma once

#include <cstdint>
#include <vector>

#include "accel/config.hpp"
#include "accel/stream.hpp"
#include "sim/fifo.hpp"
#include "sim/module.hpp"

namespace mann::accel {

class HostLinkModule final : public sim::Module {
 public:
  struct Answer {
    std::int32_t prediction = -1;
    sim::Cycle cycle = 0;  ///< when the host observed the result
  };

  /// Streams `model_words` upload words (the trained parameters; all
  /// identical on the wire, so none is materialized) followed by
  /// `story_words`.
  HostLinkModule(const AccelConfig& config, std::size_t model_words,
                 std::vector<StreamWord> story_words,
                 sim::Fifo<StreamWord>& fifo_in,
                 sim::Fifo<std::int32_t>& fifo_out);

  void tick() override;

  /// The next push attempt (found by replaying the credit additions
  /// exactly), kNever while a synchronous host waits for an answer, or
  /// the end of an upload steady state (see steady_cycles()).
  [[nodiscard]] std::optional<sim::Cycle> next_activity(
      sim::Cycle now) const override;
  void skip(sim::Cycle cycles) override;

  [[nodiscard]] bool all_words_sent() const noexcept {
    return position_ >= words_total();
  }
  [[nodiscard]] const std::vector<Answer>& answers() const noexcept {
    return answers_;
  }
  [[nodiscard]] std::size_t words_total() const noexcept {
    return model_words_ + story_words_.size();
  }
  /// Cycles during which the link was actively transferring or in DMA
  /// setup — the I/O-bound share of the run.
  [[nodiscard]] sim::Cycle link_active_cycles() const noexcept {
    return link_active_cycles_;
  }

 private:
  /// The stream word at `position`.
  [[nodiscard]] const StreamWord& word_at(std::size_t position) const noexcept {
    static constexpr StreamWord kModelWord{StreamOp::kModelWord, 0};
    return position < model_words_ ? kModelWord
                                   : story_words_[position - model_words_];
  }
  /// Credit added per cycle while `word` is next on the wire.
  [[nodiscard]] double rate_for(const StreamWord& word) const noexcept {
    return word.op == StreamOp::kModelWord ? model_words_per_cycle_
                                           : words_per_cycle_;
  }
  /// A synchronous host holding the next story until the previous
  /// answer arrives.
  [[nodiscard]] bool awaiting_answer() const noexcept;
  /// Upload steady state: FIFO_IN holds capacity-1 model words at the
  /// cycle boundary, so each cycle the link pushes one model word, is
  /// refused a second, and CONTROL retires one. Whether the next cycle
  /// follows that exact pattern.
  [[nodiscard]] bool in_steady_state() const noexcept;
  /// How many cycles from now keep the steady-state pattern (0 when not
  /// in it).
  [[nodiscard]] sim::Cycle steady_cycles() const;
  /// Whether `cycles` steady-state steps from the current credit are all
  /// exact integer arithmetic (integral model rate, e.g. 2 words/cycle at
  /// 100 MHz), which gives them a closed form.
  [[nodiscard]] bool integral_steady(sim::Cycle cycles) const noexcept;

  std::size_t model_words_;
  std::vector<StreamWord> story_words_;
  sim::Fifo<StreamWord>& fifo_in_;
  sim::Fifo<std::int32_t>& fifo_out_;
  double words_per_cycle_;
  double model_words_per_cycle_;
  sim::Cycle story_latency_cycles_;
  sim::Cycle result_latency_cycles_;

  std::size_t position_ = 0;
  double credit_ = 0.0;
  sim::Cycle delay_ = 0;
  bool latency_charged_ = false;
  bool synchronous_;
  std::size_t stories_sent_ = 0;  ///< kEndOfStory words pushed
  sim::Cycle cycle_ = 0;
  sim::Cycle link_active_cycles_ = 0;
  std::vector<Answer> answers_;
};

}  // namespace mann::accel
