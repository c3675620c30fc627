// mann_served, driven over a pipe: the daemon's line protocol is part of
// the public surface, so these tests exercise the real binary (path
// injected as MANN_SERVED_PATH by CMake) end to end — command parsing,
// err handling that keeps the daemon alive, live reconfiguration with
// requests in flight, byte-stable output at a fixed schedule, and
// replay equivalence against the daemon's own --closed-loop mode.
//
// All runs use --tiny models: protocol and scheduling behaviour only
// depend on cycle costs (shapes), so nothing here needs trained models.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#ifndef MANN_SERVED_PATH
#error "MANN_SERVED_PATH must point at the mann_served binary"
#endif

namespace {

std::filesystem::path temp_file(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("mann_served_test_" + name);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs the daemon with `flags`, feeding `commands` on stdin; returns
/// the full stdout transcript. popen is unidirectional, so the command
/// script goes through a file — which also mirrors how the CI replay
/// leg drives the daemon.
std::string run_daemon(const std::string& flags,
                       const std::string& commands,
                       const std::string& tag) {
  const std::filesystem::path script = temp_file(tag + ".cmds");
  {
    std::ofstream out(script);
    out << commands;
  }
  const std::string cmd = std::string(MANN_SERVED_PATH) + " " + flags +
                          " < " + script.string() + " 2>/dev/null";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string transcript;
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) {
    transcript += buffer;
  }
  const int rc = ::pclose(pipe);
  EXPECT_EQ(rc, 0) << "daemon exited non-zero for: " << cmd;
  std::filesystem::remove(script);
  return transcript;
}

std::size_t count_lines_with(const std::string& transcript,
                             const std::string& needle) {
  std::size_t count = 0;
  std::istringstream in(transcript);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(needle) == 0) {
      ++count;
    }
  }
  return count;
}

TEST(ServedDaemon, SubmitInfoDrainQuitRoundTrip) {
  const std::string transcript = run_daemon(
      "--tiny 2",
      "submit 0\n"
      "submit 1\n"
      "info\n"
      "drain\n"
      "quit\n",
      "roundtrip");
  EXPECT_EQ(count_lines_with(transcript, "ready "), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok id="), 2U);
  EXPECT_EQ(count_lines_with(transcript, "done id="), 2U);
  EXPECT_EQ(count_lines_with(transcript, "info cycle="), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok quit"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "bye "), 1U);
  EXPECT_NE(transcript.find("completed=2"), std::string::npos);
}

TEST(ServedDaemon, MalformedCommandsGetErrAndTheDaemonSurvives) {
  const std::string transcript = run_daemon(
      "--tiny 2",
      "bogus\n"
      "submit\n"
      "submit notanumber\n"
      "submit 99\n"
      "config policy sjf\n"
      "config tenant 0\n"
      "trace on\n"
      "submit 0\n"
      "quit\n",
      "malformed");
  EXPECT_EQ(count_lines_with(transcript, "err "), 7U);
  // The daemon kept serving after every rejection.
  EXPECT_EQ(count_lines_with(transcript, "ok id="), 1U);
  EXPECT_EQ(count_lines_with(transcript, "bye "), 1U);
  EXPECT_NE(transcript.find("offered=1"), std::string::npos);
}

TEST(ServedDaemon, NonFiniteTenantContractGetsErr) {
  // NaN fails every `<= 0` check, so it must be rejected explicitly or it
  // would reach the WFQ virtual-time comparisons.
  const std::string transcript = run_daemon(
      "--tiny 2 --tenants 3",
      "config tenant 0 0 nan nan 1 0\n"
      "config tenant 0 0 1 nan 1 0\n"
      "config tenant 0 0 inf 0 8 0\n"
      "config tenant 0 0 2 0 8 0\n"
      "submit 0\n"
      "quit\n",
      "nonfinite");
  EXPECT_EQ(count_lines_with(transcript, "err "), 3U);
  EXPECT_EQ(count_lines_with(transcript, "ok config tenant 0"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok id="), 1U);
  EXPECT_EQ(count_lines_with(transcript, "bye "), 1U);
  EXPECT_NE(transcript.find("completed=1"), std::string::npos);
}

TEST(ServedDaemon, NegativeCountsGetErrAndTheDaemonSurvives) {
  // strtoull would read "-1" as 2^64 - 1 cycles.
  for (const char* flags : {"--tiny 2", "--tiny 2 --cluster 2"}) {
    const std::string transcript = run_daemon(
        flags,
        "submit 0 0 -1\n"
        "submit -1\n"
        "step -1\n"
        "submit 0 0 0 -5\n"
        "submit 0\n"
        "step 10\n"
        "quit\n",
        "negative");
    EXPECT_EQ(count_lines_with(transcript, "err "), 4U) << flags;
    EXPECT_EQ(count_lines_with(transcript, "ok id="), 1U) << flags;
    EXPECT_EQ(count_lines_with(transcript, "ok step"), 1U) << flags;
    EXPECT_EQ(count_lines_with(transcript, "bye "), 1U) << flags;
    EXPECT_NE(transcript.find("offered=1"), std::string::npos) << flags;
  }
}

TEST(ServedDaemon, LiveReconfigurationLandsWithRequestsInFlight) {
  // Lockstep holds the clock at the last arrival, so the config
  // commands land while earlier submissions are still queued/in
  // flight; nothing may be dropped.
  const std::string transcript = run_daemon(
      "--tiny 2 --tenants 3 --lockstep",
      "submit 0 0 0 1000\n"
      "submit 1 1 0 1100\n"
      "submit 0 2 0 1200\n"
      "config tenant 1 1 5.0 0 8 2000000\n"
      "config slo 2000000\n"
      "config policy edf\n"
      "config policy wfq\n"
      "submit 1 1 0 5000\n"
      "drain\n"
      "quit\n",
      "reconfig");
  EXPECT_EQ(count_lines_with(transcript, "ok config tenant 1"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok config slo"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok config policy edf"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok config policy wfq"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "done id="), 4U);
  EXPECT_EQ(count_lines_with(transcript, "shed id="), 0U);
  EXPECT_NE(transcript.find("completed=4 rejected=0"), std::string::npos);
}

TEST(ServedDaemon, WfqSwitchNeedsWfqConstruction) {
  // --tenants 1 defaults to EDF construction: no tenant lanes, so the
  // live switch to WFQ must refuse (err) without killing the daemon.
  const std::string transcript = run_daemon(
      "--tiny 2 --tenants 1",
      "config policy wfq\n"
      "config policy fifo\n"
      "quit\n",
      "wfq_refusal");
  EXPECT_EQ(count_lines_with(transcript, "err policy wfq"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "ok config policy fifo"), 1U);
  EXPECT_EQ(count_lines_with(transcript, "bye "), 1U);
}

TEST(ServedDaemon, TranscriptIsByteStableAtAFixedSchedule) {
  const std::string commands =
      "submit 0 0 0 500\n"
      "submit 1 1 0 500\n"
      "submit 0 2 0 900\n"
      "submit 1 0 0 40000\n"
      "submit 0 1 0 40100\n"
      "info\n"
      "drain\n"
      "quit\n";
  const std::string first =
      run_daemon("--tiny 2 --tenants 3 --lockstep", commands, "stable_a");
  const std::string second =
      run_daemon("--tiny 2 --tenants 3 --lockstep", commands, "stable_b");
  EXPECT_EQ(first, second);
  EXPECT_EQ(count_lines_with(first, "done id="), 5U);
}

struct Arrival {
  unsigned long long at;
  int task;
  int tenant;
};

/// The acceptance gate in miniature: one arrival schedule served twice
/// — open loop through the protocol under --lockstep, closed loop via
/// --closed-loop — must produce byte-identical report JSON, with every
/// replayed request streamed back as resolved (`expected_done` of them
/// completed, the rest shed).
void expect_replay_matches_closed_loop(const std::vector<Arrival>& rows,
                                       const std::string& flags,
                                       std::size_t expected_done,
                                       const std::string& tag) {
  const std::filesystem::path trace = temp_file(tag + ".csv");
  std::string commands;
  {
    std::ofstream out(trace);  // closed before the daemon reads it
    out << "arrival_cycle,task_id,tenant_id\n";
    for (const Arrival& row : rows) {
      out << row.at << "," << row.task << "," << row.tenant << "\n";
      commands += "submit " + std::to_string(row.task) + " " +
                  std::to_string(row.tenant) + " 0 " +
                  std::to_string(row.at) + "\n";
    }
    commands += "drain\nquit\n";
  }
  const std::filesystem::path open_json = temp_file(tag + "_open.json");
  const std::string transcript = run_daemon(
      flags + " --lockstep --report-json " + open_json.string(), commands,
      tag + "_open");
  EXPECT_EQ(count_lines_with(transcript, "ok id="), rows.size()) << flags;
  EXPECT_EQ(count_lines_with(transcript, "done id="), expected_done) << flags;
  EXPECT_EQ(count_lines_with(transcript, "done id=") +
                count_lines_with(transcript, "shed id="),
            rows.size())
      << flags;

  const std::filesystem::path closed_json = temp_file(tag + "_closed.json");
  const std::string closed_cmd =
      std::string(MANN_SERVED_PATH) + " " + flags + " --closed-loop " +
      trace.string() + " --report-json " + closed_json.string() +
      " > /dev/null 2>&1";
  ASSERT_EQ(std::system(closed_cmd.c_str()), 0);

  const std::string open_report = read_file(open_json);
  const std::string closed_report = read_file(closed_json);
  ASSERT_FALSE(open_report.empty());
  EXPECT_EQ(open_report, closed_report) << flags;
  std::filesystem::remove(open_json);
  std::filesystem::remove(closed_json);
  std::filesystem::remove(trace);
}

TEST(ServedDaemon, LockstepReplayMatchesClosedLoop) {
  const std::vector<Arrival> sparse = {
      {1'000, 0, 0}, {1'000, 1, 1}, {1'500, 0, 2},  {60'000, 1, 0},
      {60'200, 0, 1}, {61'000, 1, 2}, {300'000, 0, 0},
  };
  expect_replay_matches_closed_loop(sparse, "--tiny 2 --tenants 3", 7,
                                    "equiv");
  // Load-aware routing reads every instance's backlog, so the replay
  // must step the fleet to each arrival before routing it, as the
  // closed loop does: on this dense schedule a router that sees the
  // fleet as of the previous arrival picks differently.
  std::vector<Arrival> dense;
  for (int i = 0; i < 40; ++i) {
    dense.push_back({1'000ULL + 700ULL * static_cast<unsigned>(i), i % 2,
                     i % 3});
  }
  expect_replay_matches_closed_loop(
      dense, "--tiny 2 --tenants 3 --cluster 2 --router p2c", 40,
      "equiv_p2c");
}

TEST(ServedDaemon, RefusedSubmitChangesNoFleetCounter) {
  // A submit the instances would refuse must be refused before the
  // fleet counts, observes or routes it. 2^32 must not truncate into
  // tenant 0.
  for (const char* flags :
       {"--tiny 2 --cluster 2", "--tiny 2 --tenants 3 --cluster 3"}) {
    const std::string transcript = run_daemon(
        flags, "submit 99\nsubmit 0 7\nsubmit 0 4294967296\nsubmit 0\nquit\n",
        "refused");
    EXPECT_EQ(count_lines_with(transcript, "err "), 3U) << flags;
    EXPECT_NE(transcript.find("bye offered=1 "), std::string::npos)
        << flags;
  }
}

TEST(ServedDaemon, FarFutureArrivalGetsErrAndTheDaemonSurvives) {
  // An arrival at or past the serving watchdog could only trip it while
  // stepping, outside any command's reply.
  const std::string transcript = run_daemon(
      "--tiny 2",
      "submit 0 0 0 21000000000\n"
      "submit 0 0 0 20000000000\n"
      "submit 0 0 0 18446744073709551615\n"
      "submit 0\n"
      "quit\n",
      "far_future");
  EXPECT_EQ(count_lines_with(transcript, "err "), 3U);
  EXPECT_EQ(count_lines_with(transcript, "ok id="), 1U);
  EXPECT_NE(transcript.find("bye offered=1 completed=1"), std::string::npos);
}

TEST(ServedDaemon, StepPastTheWatchdogGetsErrAndTheDaemonSurvives) {
  // The fleet clock moves to a finite step horizon even when nothing is
  // queued; parked at the watchdog, it would refuse every later submit.
  for (const char* flags : {"--tiny 2", "--tiny 2 --cluster 2"}) {
    const std::string transcript = run_daemon(
        flags, "step 20000000000\nstep 25000000000\nsubmit 0\nquit\n",
        "step_watchdog");
    EXPECT_EQ(count_lines_with(transcript, "err "), 2U) << flags;
    EXPECT_EQ(count_lines_with(transcript, "ok id="), 1U) << flags;
    EXPECT_NE(transcript.find("bye offered=1 completed=1"), std::string::npos)
        << flags;
  }
}

TEST(ServedDaemon, HugeCountsSaturateInsteadOfWrapping) {
  // now + 2^64-1 must not wrap into a step that advances nothing, and
  // arrival + (2^64-2) must not wrap into a deadline already missed.
  const std::string transcript = run_daemon(
      "--tiny 2 --lockstep --cluster 2",
      "submit 0 0 18446744073709551614 5000\n"
      "step 18446744073709551615\n"
      "quit\n",
      "huge_counts");
  EXPECT_EQ(count_lines_with(transcript, "ok step "), 1U);
  EXPECT_NE(transcript.find(" idle=1\n"), std::string::npos);
  EXPECT_EQ(count_lines_with(transcript, "done id="), 1U);
  EXPECT_NE(transcript.find("outcome=ok"), std::string::npos);
}

/// Seeded mutations of a valid command corpus (0-3 per line): token
/// swaps, drops and duplicates, truncations, stray bytes and edge
/// numbers. A fixed seed and the raw mt19937_64 stream (whose output the
/// standard pins) keep the corpus identical on every platform.
std::vector<std::string> mutated_commands(std::size_t count) {
  const std::vector<std::string> corpus = {
      "submit 0",
      "submit 1 2",
      "submit 0 1 50000",
      "submit 1 0 0 120000",
      "submit 0 2 0 0",
      "info",
      "config tenant 1 1 2.5 0 8 2000000",
      "config tenant 2 0 1 3000 4 0",
      "config slo 3000000 1000000 2000000",
      "config policy edf",
      "config policy wfq",
      "config policy fifo",
      "trace on",
      "step",
      "step 5000",
      "drain",
  };
  const std::vector<std::string> edges = {
      "-1", "0", "18446744073709551615", "18446744073709551616",
      "4294967296", "nan", "inf", "-inf", "1e308", "21000000000",
      "20000000000", "0x10", "+7", "-0", "99999999999999999999999"};
  const std::string stray = "\t\r\v\f#,;.-+=\x01\x7f\xff\xc3";
  std::mt19937_64 rng(20190325);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::vector<std::string> lines;
  for (std::size_t n = 0; n < count; ++n) {
    std::vector<std::string> tokens;
    {
      std::istringstream in(corpus[pick(corpus.size())]);
      std::string token;
      while (in >> token) {
        tokens.push_back(token);
      }
    }
    std::string line;
    const std::size_t mutations = pick(4);  // a quarter stay valid
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t i = pick(tokens.size());
      switch (pick(6)) {
        case 0:  // swap two tokens
          std::swap(tokens[i], tokens[pick(tokens.size())]);
          break;
        case 1:  // an edge number in place of a token
          tokens[i] = edges[pick(edges.size())];
          break;
        case 2:  // an edge number appended
          tokens.push_back(edges[pick(edges.size())]);
          break;
        case 3:  // drop or duplicate a token
          if (tokens.size() > 1 && pick(2) == 0) {
            tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(i));
          } else {
            tokens.push_back(tokens[i]);
          }
          break;
        case 4: {  // a stray byte inside a token
          std::string& token = tokens[i];
          token.insert(token.begin() + static_cast<std::ptrdiff_t>(
                                           pick(token.size() + 1)),
                       stray[pick(stray.size())]);
          break;
        }
        default:  // truncate a token
          tokens[i].resize(pick(tokens[i].size() + 1));
          break;
      }
    }
    for (const std::string& token : tokens) {
      line += (line.empty() ? "" : " ") + token;
    }
    if (pick(16) == 0) {
      line.resize(pick(line.size() + 1));  // truncate the whole line
    }
    lines.push_back(line);
  }
  return lines;
}

bool blank(const std::string& line) {
  for (const char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) {
      return false;
    }
  }
  return true;
}

TEST(ServedDaemon, MutatedCommandsGetOneReplyEachAtAnyFleetThreadCount) {
  const std::vector<std::string> lines = mutated_commands(2000);
  std::string commands;
  std::size_t expected_replies = 0;
  for (const std::string& line : lines) {
    commands += line + "\n";
    expected_replies += blank(line) ? 0 : 1;
  }
  std::string first;
  for (const char* threads : {"0", "2"}) {
    const std::string transcript = run_daemon(
        std::string("--tiny 2 --tenants 3 --cluster 2 --fleet-threads ") +
            threads,
        commands, std::string("mutated_") + threads);
    // `info` answers with its fleet line; every other command answers
    // ok or err.
    EXPECT_EQ(count_lines_with(transcript, "ok ") +
                  count_lines_with(transcript, "err ") +
                  count_lines_with(transcript, "info cycle="),
              expected_replies)
        << "fleet threads " << threads;
    EXPECT_EQ(count_lines_with(transcript, "bye "), 1U);
    EXPECT_GT(count_lines_with(transcript, "err "), 0U);
    EXPECT_GT(count_lines_with(transcript, "done id="), 0U);
    if (first.empty()) {
      first = transcript;
    } else {
      EXPECT_EQ(transcript, first) << "transcript moved with fleet threads";
    }
  }
}

}  // namespace
