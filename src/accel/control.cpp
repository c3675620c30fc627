#include "accel/control.hpp"

#include <stdexcept>

namespace mann::accel {

ControlModule::ControlModule(AcceleratorState& state,
                             sim::Fifo<StreamWord>& fifo_in,
                             sim::Fifo<InputCmd>& cmd_fifo)
    : Module("CONTROL"),
      state_(state),
      model_words_(state.program.model_words()),
      fifo_in_(fifo_in),
      cmd_fifo_(cmd_fifo) {}

void ControlModule::retire_model_words(std::uint64_t words) {
  state_.model_words_seen += words;
  ops().mem_write += words;  // one BRAM weight-word write each
  if (state_.model_words_seen >= model_words_) {
    state_.model_loaded = true;
  }
  mark_busy(words);
}

std::optional<sim::Cycle> ControlModule::next_activity(sim::Cycle now) const {
  const StreamWord* head = fifo_in_.peek();
  if (head == nullptr) {
    return sim::kNever;
  }
  const StreamWord* back = fifo_in_.peek_back();
  if (head->op == StreamOp::kModelWord && back->op == StreamOp::kModelWord) {
    return sim::kNever;  // upload words only: skip() retires them
  }
  return now;
}

void ControlModule::skip(sim::Cycle cycles) {
  // Words the link streamed through a full FIFO_IN retire one per cycle
  // without disturbing the queue; otherwise retire what is queued.
  if (const std::uint64_t streamed = fifo_in_.take_streamed(); streamed > 0) {
    retire_model_words(streamed);
    return;
  }
  std::uint64_t popped = 0;
  while (popped < cycles && fifo_in_.try_pop().has_value()) {
    ++popped;
  }
  retire_model_words(popped);
}

void ControlModule::tick() {
  const StreamWord* word = fifo_in_.peek();
  if (word == nullptr) {
    return;  // idle: nothing on the stream
  }

  switch (word->op) {
    case StreamOp::kModelWord: {
      (void)fifo_in_.try_pop();
      retire_model_words(1);
      return;
    }
    case StreamOp::kStoryStart: {
      if (!state_.model_loaded) {
        throw std::logic_error("CONTROL: story before model load completed");
      }
      if (state_.story_active) {
        mark_stalled();  // previous inference still owns the datapath
        return;
      }
      (void)fifo_in_.try_pop();
      state_.begin_story();
      mark_busy();
      return;
    }
    case StreamOp::kSentenceStart:
    case StreamOp::kContextWord:
    case StreamOp::kQuestionStart:
    case StreamOp::kQuestionWord:
    case StreamOp::kEndOfStory: {
      if (!state_.story_active) {
        throw std::logic_error("CONTROL: data word outside a story");
      }
      if (cmd_fifo_.full()) {
        mark_stalled();
        return;
      }
      const StreamWord w = *fifo_in_.try_pop();
      InputCmd cmd;
      cmd.word = w.payload;
      switch (w.op) {
        case StreamOp::kSentenceStart:
          cmd.kind = InputCmdKind::kSentenceStart;
          break;
        case StreamOp::kContextWord:
          cmd.kind = InputCmdKind::kContextWord;
          break;
        case StreamOp::kQuestionStart:
          cmd.kind = InputCmdKind::kQuestionStart;
          break;
        case StreamOp::kQuestionWord:
          cmd.kind = InputCmdKind::kQuestionWord;
          break;
        default:
          cmd.kind = InputCmdKind::kEndOfStory;
          break;
      }
      cmd_fifo_.push(cmd);
      mark_busy();
      return;
    }
  }
}

}  // namespace mann::accel
