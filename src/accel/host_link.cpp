#include "accel/host_link.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mann::accel {
namespace {

sim::Cycle seconds_to_cycles(double seconds, double clock_hz) {
  return static_cast<sim::Cycle>(std::llround(seconds * clock_hz));
}

bool is_integral(double x) noexcept { return x == std::floor(x); }

}  // namespace

HostLinkModule::HostLinkModule(const AccelConfig& config,
                               std::size_t model_words,
                               std::vector<StreamWord> story_words,
                               sim::Fifo<StreamWord>& fifo_in,
                               sim::Fifo<std::int32_t>& fifo_out)
    : Module("HOST_LINK"),
      model_words_(model_words),
      story_words_(std::move(story_words)),
      fifo_in_(fifo_in),
      fifo_out_(fifo_out),
      words_per_cycle_(config.link.words_per_second / config.clock_hz),
      model_words_per_cycle_(config.link.model_words_per_second /
                             config.clock_hz),
      story_latency_cycles_(
          seconds_to_cycles(config.link.per_story_latency, config.clock_hz)),
      result_latency_cycles_(
          seconds_to_cycles(config.link.result_latency, config.clock_hz)),
      synchronous_(config.link.synchronous_stories) {
  if (words_per_cycle_ <= 0.0) {
    throw std::invalid_argument("HostLinkModule: non-positive link rate");
  }
}

void HostLinkModule::tick() {
  ++cycle_;
  // Drain one answer per cycle from FIFO_OUT; the host observes it after
  // the readback latency.
  if (const auto answer = fifo_out_.try_pop()) {
    answers_.push_back({*answer, cycle_ + result_latency_cycles_});
  }

  if (position_ >= words_total()) {
    return;  // everything sent; only draining answers now
  }
  if (delay_ > 0) {
    // DMA/doorbell setup: the link is occupied but no words flow.
    --delay_;
    credit_ = 0.0;
    ++link_active_cycles_;
    mark_busy();
    return;
  }

  // Model upload is bulk DMA; the inference stream is word-granular.
  credit_ += rate_for(word_at(position_));
  bool pushed = false;
  while (credit_ >= 1.0 && position_ < words_total()) {
    const StreamWord& word = word_at(position_);
    if (word.op == StreamOp::kStoryStart) {
      // Request/response host: wait for the previous story's answer
      // before streaming the next request.
      if (synchronous_ && answers_.size() < stories_sent_) {
        credit_ = 0.0;
        break;
      }
      if (!latency_charged_ && story_latency_cycles_ > 0) {
        delay_ = story_latency_cycles_;
        latency_charged_ = true;
        break;
      }
    }
    if (!fifo_in_.try_push(word)) {
      mark_stalled();
      break;
    }
    if (word.op == StreamOp::kStoryStart) {
      latency_charged_ = false;
    }
    if (word.op == StreamOp::kEndOfStory) {
      ++stories_sent_;
    }
    credit_ -= 1.0;
    ++position_;
    pushed = true;
  }
  if (pushed) {
    ++link_active_cycles_;
    mark_busy();
  }
}

bool HostLinkModule::integral_steady(sim::Cycle cycles) const noexcept {
  const double rate = model_words_per_cycle_;
  return rate >= 1.0 && is_integral(rate) && is_integral(credit_) &&
         credit_ + static_cast<double>(cycles) * rate < 0x1p52;
}

bool HostLinkModule::awaiting_answer() const noexcept {
  return synchronous_ && answers_.size() < stories_sent_ &&
         word_at(position_).op == StreamOp::kStoryStart;
}

bool HostLinkModule::in_steady_state() const noexcept {
  // The pattern needs a model word to push and another to be refused, a
  // queue one short of full holding only upload words (the stream puts
  // the model first, so a model word at the back means all are), and
  // CONTROL, which retires a model word every cycle, at its head.
  if (delay_ > 0 || position_ + 1 >= model_words_ ||
      fifo_in_.size() + 1 != fifo_in_.capacity()) {
    return false;
  }
  const StreamWord* back = fifo_in_.peek_back();
  if (back != nullptr && back->op != StreamOp::kModelWord) {
    return false;
  }
  const double pushed = credit_ + model_words_per_cycle_;
  return pushed >= 1.0 && pushed - 1.0 >= 1.0;
}

sim::Cycle HostLinkModule::steady_cycles() const {
  if (!in_steady_state()) {
    return 0;
  }
  const double rate = model_words_per_cycle_;
  const sim::Cycle limit = model_words_ - position_ - 1;
  if (integral_steady(limit)) {
    return limit;  // the credit never falls: the pattern lasts the upload
  }
  // Replay the tick's additions: push while credit >= 1, then be refused
  // while the remainder is still >= 1.
  double credit = credit_;
  sim::Cycle cycles = 0;
  while (cycles < limit) {
    const double remainder = (credit + rate) - 1.0;
    if (!(credit + rate >= 1.0) || !(remainder >= 1.0)) {
      break;
    }
    credit = remainder;
    ++cycles;
  }
  return cycles;
}

std::optional<sim::Cycle> HostLinkModule::next_activity(sim::Cycle now) const {
  if (!fifo_out_.empty()) {
    return now;  // an answer to drain
  }
  if (position_ >= words_total() || awaiting_answer()) {
    return sim::kNever;  // only an answer can wake the link
  }
  if (const sim::Cycle steady = steady_cycles(); steady > 0) {
    return now + steady;
  }
  const StreamWord& word = word_at(position_);
  const double rate = rate_for(word);
  if (!(rate > 0.0)) {
    return sim::kNever;
  }
  // Replay the credit additions until the first cycle that reaches a
  // push attempt.
  sim::Cycle cycle = now;
  double credit = credit_;
  bool charged = latency_charged_;
  if (delay_ > 0) {
    cycle += delay_;
    credit = 0.0;
  }
  while (true) {
    credit += rate;
    if (credit >= 1.0) {
      if (word.op != StreamOp::kStoryStart || charged ||
          story_latency_cycles_ == 0) {
        return cycle;
      }
      // DMA setup for this story: a quiet charge cycle, then a delay
      // that zeroes the credit.
      charged = true;
      cycle += 1 + story_latency_cycles_;
      credit = 0.0;
      continue;
    }
    ++cycle;
  }
}

void HostLinkModule::skip(sim::Cycle cycles) {
  cycle_ += cycles;
  if (position_ >= words_total()) {
    return;
  }
  if (in_steady_state()) {
    // cycles <= steady_cycles() by the next_activity contract.
    const double rate = model_words_per_cycle_;
    if (integral_steady(cycles)) {
      credit_ += static_cast<double>(cycles) * (rate - 1.0);
    } else {
      for (sim::Cycle i = 0; i < cycles; ++i) {
        credit_ = (credit_ + rate) - 1.0;
      }
    }
    position_ += cycles;
    link_active_cycles_ += cycles;
    mark_busy(cycles);
    mark_stalled(cycles);
    fifo_in_.stream_through(cycles);
    return;
  }
  // Quiet cycles: DMA setup, credit accumulating short of a word, a
  // synchronous host discarding credit while it waits, or the cycle that
  // charges the setup latency. None of them touches a FIFO.
  const StreamWord& word = word_at(position_);
  const double rate = rate_for(word);
  const bool waiting = awaiting_answer();
  while (cycles > 0) {
    if (delay_ > 0) {
      const sim::Cycle setup = std::min(cycles, delay_);
      delay_ -= setup;
      credit_ = 0.0;
      link_active_cycles_ += setup;
      mark_busy(setup);
      cycles -= setup;
      continue;
    }
    --cycles;
    credit_ += rate;
    if (!(credit_ >= 1.0)) {
      continue;
    }
    if (waiting) {
      credit_ = 0.0;
    } else if (word.op == StreamOp::kStoryStart && !latency_charged_ &&
               story_latency_cycles_ > 0) {
      delay_ = story_latency_cycles_;
      latency_charged_ = true;
    } else {
      throw std::logic_error("HostLinkModule: skipped past a push");
    }
  }
}

}  // namespace mann::accel
