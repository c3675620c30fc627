#include "accel/stream.hpp"

namespace mann::accel {
namespace {

void append_story(const data::EncodedStory& story,
                  std::vector<StreamWord>& words) {
  words.push_back({StreamOp::kStoryStart, 0});
  for (const auto& sentence : story.context) {
    words.push_back({StreamOp::kSentenceStart, 0});
    for (const std::int32_t w : sentence) {
      words.push_back({StreamOp::kContextWord, w});
    }
  }
  words.push_back({StreamOp::kQuestionStart, 0});
  for (const std::int32_t w : story.question) {
    words.push_back({StreamOp::kQuestionWord, w});
  }
  words.push_back({StreamOp::kEndOfStory, 0});
}

}  // namespace

std::vector<StreamWord> encode_story(const data::EncodedStory& story) {
  std::vector<StreamWord> words;
  append_story(story, words);
  return words;
}

std::vector<StreamWord> encode_workload(
    std::size_t model_words, std::span<const data::EncodedStory> stories) {
  std::vector<StreamWord> words;
  words.reserve(model_words + stories.size() * 48);
  words.assign(model_words, {StreamOp::kModelWord, 0});
  for (const data::EncodedStory& s : stories) {
    append_story(s, words);
  }
  return words;
}

}  // namespace mann::accel
