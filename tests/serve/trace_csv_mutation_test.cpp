// Seeded mutation test for serve::load_trace_csv: every mutated trace
// either loads into a valid arrival schedule or throws
// std::runtime_error — never another exception, never a crash (the
// sanitizer CI leg runs it under ASan/UBSan).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/trace.hpp"

namespace mann::serve {
namespace {

/// A v2 trace with the loader's tolerated extras: a comment, a blank
/// line, a v1 row and an equal-cycle pair.
const std::string kClean =
    "# recorded sample\n"
    "arrival_cycle,task_id,tenant_id\n"
    "0,3,1\n"
    "120,0,0\n"
    "\n"
    "120,1,2\n"
    "4500,2\n"
    "99000,19,4294967295\n"
    "18446744073709551615,7,0\n";

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = text.find('\n', begin);
    const std::size_t stop = end == std::string::npos ? text.size() : end;
    lines.push_back(text.substr(begin, stop - begin));
    begin = stop + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines,
                       const std::string& eol = "\n") {
  std::string text;
  for (const std::string& line : lines) {
    text += line + eol;
  }
  return text;
}

class TraceCsvMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("mann_trace_mutation_" +
              std::to_string(std::random_device{}()) + ".csv"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// Loads `text` through a file: true with `out` filled, or false when
  /// the loader threw std::runtime_error.
  bool load(const std::string& text, std::vector<TraceEntry>& out) {
    {
      std::ofstream file(path_, std::ios::binary | std::ios::trunc);
      file << text;
    }
    try {
      out = load_trace_csv(path_);
      return true;
    } catch (const std::runtime_error&) {
      out.clear();
      return false;
    }
  }

  std::string path_;
};

TEST_F(TraceCsvMutation, TargetedEditsLoadOrRejectAsSpecified) {
  std::vector<TraceEntry> clean;
  ASSERT_TRUE(load(kClean, clean));
  ASSERT_EQ(clean.size(), 6U);
  EXPECT_EQ(clean[3], (TraceEntry{4500, 2, 0}));
  EXPECT_EQ(clean[5].arrival_cycle, ~std::uint64_t{0});

  std::vector<TraceEntry> got;
  // CRLF line endings and a header repeated mid-file are tolerated.
  ASSERT_TRUE(load(join_lines(split_lines(kClean), "\r\n"), got));
  EXPECT_EQ(got, clean);
  std::vector<std::string> lines = split_lines(kClean);
  lines.insert(lines.begin() + 4, "arrival_cycle,task_id");
  ASSERT_TRUE(load(join_lines(lines), got));
  EXPECT_EQ(got, clean);

  // Rows appended after the 99000 row (the last, u64-max row dropped so
  // only the row itself can be at fault): a well-formed one loads, the
  // rest are refused.
  std::vector<std::string> head = split_lines(kClean);
  head.pop_back();
  lines = head;
  lines.push_back("100000,0,0");
  ASSERT_TRUE(load(join_lines(lines), got));
  EXPECT_EQ(got.back(), (TraceEntry{100000, 0, 0}));
  for (const char* row :
       {"18446744073709551616,0,0",     // 2^64 cycles
        "100000,18446744073709551616",  // 2^64 task
        "100000,0,4294967296",          // tenant past uint32
        "-1,0,0", "100000,-1", "100000,0,-1",  // negatives
        "100000,0,0,0",                        // fourth column
        "100000,,0", ",5", "100000,", "100000 0", "0x186a0,0",
        "+100000,0", "100000,0,", "98999,0,0"}) {
    lines = head;
    lines.push_back(row);
    EXPECT_FALSE(load(join_lines(lines), got)) << row;
  }
  // Decreasing cycles: 4500 before 0.
  lines = split_lines(kClean);
  std::swap(lines[2], lines[6]);
  EXPECT_FALSE(load(join_lines(lines), got));
}

TEST_F(TraceCsvMutation, SeededMutationsLoadOrThrowRuntimeError) {
  std::mt19937_64 rng(2026);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::vector<std::string> base = split_lines(kClean);
  constexpr const char* kFields[] = {
      "18446744073709551616", "18446744073709551615", "-1", "0", "",
      "4294967296", "99999999999999999999999", "7", " 3 ", "1e3"};
  constexpr int kMutations = 2400;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::vector<std::string> lines = base;
    std::string eol = "\n";
    // One to three stacked edits per input.
    const std::size_t edits = 1 + below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      std::string& line = lines[below(lines.size())];
      switch (below(8)) {
        case 0:  // stray byte, any value (NUL, ',', '\r', high bit, ...)
          line.insert(below(line.size() + 1), 1,
                      static_cast<char>(below(256)));
          break;
        case 1:  // third column on a v1 row, or a fourth on a v2 row
          line += "," + std::string(kFields[below(std::size(kFields))]);
          break;
        case 2: {  // the cycle or the task field replaced by an edge value
          const std::string field = kFields[below(std::size(kFields))];
          const std::size_t comma = line.find(',');
          if (comma == std::string::npos) {
            line = field;
          } else if (below(2) == 0) {
            line = field + line.substr(comma);
          } else {
            line = line.substr(0, comma + 1) + field;
          }
          break;
        }
        case 3:  // CRLF endings
          eol = "\r\n";
          break;
        case 4:  // a header row mid-file
          lines.insert(lines.begin() +
                           static_cast<std::ptrdiff_t>(below(lines.size())),
                       below(2) == 0 ? "arrival_cycle,task_id"
                                     : "arrival_cycle,task_id,tenant_id");
          break;
        case 5:  // two rows swapped: cycles may now decrease
          std::swap(lines[below(lines.size())], lines[below(lines.size())]);
          break;
        case 6:  // a byte removed
          if (!line.empty()) {
            line.erase(below(line.size()), 1);
          }
          break;
        default: {  // a row duplicated
          const std::string copy = line;
          lines.insert(lines.begin() +
                           static_cast<std::ptrdiff_t>(below(lines.size())),
                       copy);
          break;
        }
      }
    }
    std::string text = join_lines(lines, eol);
    if (below(4) == 0) {  // truncation at any byte
      text.resize(below(text.size() + 1));
    }
    std::vector<TraceEntry> got;
    bool loaded = false;
    ASSERT_NO_THROW(loaded = load(text, got)) << "mutation " << i;
    if (!loaded) {
      ++rejected;
      continue;
    }
    ++accepted;
    // An accepted trace is a valid schedule that survives a round trip.
    for (std::size_t k = 1; k < got.size(); ++k) {
      ASSERT_LE(got[k - 1].arrival_cycle, got[k].arrival_cycle)
          << "mutation " << i;
    }
    save_trace_csv(path_, got);
    ASSERT_EQ(load_trace_csv(path_), got) << "mutation " << i;
  }
  // The mutator must reach both outcomes, or it tests only one path.
  EXPECT_GT(accepted, 100U);
  EXPECT_GT(rejected, 100U);
}

}  // namespace
}  // namespace mann::serve
