#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace mann::sim {
namespace {

/// Counts its own ticks; optionally marks itself busy every other cycle.
class CountingModule final : public Module {
 public:
  explicit CountingModule(std::string name) : Module(std::move(name)) {}

  void tick() override {
    ++ticks;
    if (ticks % 2 == 0) {
      mark_busy();
    } else {
      mark_stalled();
    }
    ops().add += 3;
  }

  Cycle ticks = 0;
};

TEST(Simulator, RunsUntilPredicate) {
  CountingModule m("m");
  Simulator sim;
  sim.add_module(m);
  const Cycle elapsed = sim.run_until([&] { return m.ticks >= 10; }, 1000);
  EXPECT_EQ(elapsed, 10U);
  EXPECT_EQ(sim.now(), 10U);
}

TEST(Simulator, TicksModulesInRegistrationOrder) {
  std::vector<int> order;
  class Probe final : public Module {
   public:
    Probe(std::string name, std::vector<int>& log, int id)
        : Module(std::move(name)), log_(log), id_(id) {}
    void tick() override { log_.push_back(id_); }

   private:
    std::vector<int>& log_;
    int id_;
  };
  Probe a("a", order, 1);
  Probe b("b", order, 2);
  Simulator sim;
  sim.add_module(a);
  sim.add_module(b);
  (void)sim.run_until([&] { return order.size() >= 4; }, 100);
  ASSERT_EQ(order.size(), 4U);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
  EXPECT_EQ(order[3], 2);
}

TEST(Simulator, WatchdogThrows) {
  CountingModule m("m");
  Simulator sim;
  sim.add_module(m);
  EXPECT_THROW((void)sim.run_until([] { return false; }, 50),
               std::runtime_error);
}

TEST(Simulator, StatsAccumulate) {
  CountingModule m("m");
  Simulator sim;
  sim.add_module(m);
  (void)sim.run_until([&] { return m.ticks >= 8; }, 100);
  EXPECT_EQ(m.stats().busy_cycles, 4U);
  EXPECT_EQ(m.stats().stall_cycles, 4U);
  EXPECT_EQ(m.stats().ops.add, 24U);
}

TEST(Simulator, SequentialRunsAccumulateTime) {
  CountingModule m("m");
  Simulator sim;
  sim.add_module(m);
  (void)sim.run_until([&] { return m.ticks >= 3; }, 100);
  (void)sim.run_until([&] { return m.ticks >= 7; }, 100);
  EXPECT_EQ(sim.now(), 7U);
}

TEST(Simulator, ImmediateDonePredicateRunsZeroCycles) {
  CountingModule m("m");
  Simulator sim;
  sim.add_module(m);
  EXPECT_EQ(sim.run_until([] { return true; }, 10), 0U);
  EXPECT_EQ(m.ticks, 0U);
}

/// Acts only at scheduled cycles; between them it reports the next one,
/// letting run_events jump the gap.
class EventModule final : public Module {
 public:
  EventModule(std::string name, const Simulator& clock,
              std::vector<Cycle> events)
      : Module(std::move(name)), clock_(clock), events_(std::move(events)) {}

  void tick() override {
    ++ticks;
    if (next_ < events_.size() && events_[next_] <= clock_.now()) {
      fired.push_back(clock_.now());
      ++next_;
    }
  }

  [[nodiscard]] std::optional<Cycle> next_activity(
      Cycle /*now*/) const override {
    return next_ < events_.size() ? events_[next_] : kNever;
  }

  Cycle ticks = 0;
  std::vector<Cycle> fired;

 private:
  const Simulator& clock_;
  std::vector<Cycle> events_;
  std::size_t next_ = 0;
};

TEST(Simulator, RunEventsSkipsQuiescentGaps) {
  Simulator sim;
  EventModule m("m", sim, {5, 1000, 100'000});
  sim.add_module(m);
  (void)sim.run_events([&] { return m.fired.size() >= 3; }, 1'000'000);
  // Every event observed at its exact cycle…
  ASSERT_EQ(m.fired.size(), 3U);
  EXPECT_EQ(m.fired[0], 5U);
  EXPECT_EQ(m.fired[1], 1000U);
  EXPECT_EQ(m.fired[2], 100'000U);
  // …but the clock jumped the dead stretches instead of ticking them.
  EXPECT_LT(m.ticks, 10U);
  EXPECT_EQ(sim.now(), 100'001U);
}

TEST(Simulator, RunEventsFallsBackWhenAnyModuleIsUnskippable) {
  Simulator sim;
  EventModule events("e", sim, {50});
  CountingModule dense("d");  // next_activity() = nullopt: tick every cycle
  sim.add_module(events);
  sim.add_module(dense);
  (void)sim.run_events([&] { return !events.fired.empty(); }, 1000);
  EXPECT_EQ(dense.ticks, 51U);  // cycles 0..50, no skipping
  EXPECT_EQ(sim.now(), 51U);
}

TEST(Simulator, RunEventsWatchdogStillFires) {
  Simulator sim;
  EventModule m("m", sim, {});  // permanently idle, done never true
  sim.add_module(m);
  EXPECT_THROW((void)sim.run_events([] { return false; }, 100),
               std::runtime_error);
}

TEST(Simulator, AdvanceReplaysTimeWithoutTicking) {
  Simulator sim;
  CountingModule counting("count");
  sim.add_module(counting);

  // The cheap timing-replay path: the clock lands exactly where a full
  // simulation of the recorded stretch would, but no module runs.
  sim.advance(1'000);
  EXPECT_EQ(sim.now(), 1'000U);
  EXPECT_EQ(counting.ticks, 0U);

  // Replayed and simulated time compose on one clock.
  (void)sim.run_until([&] { return counting.ticks >= 5; }, 100);
  EXPECT_EQ(sim.now(), 1'005U);
}

TEST(OpCounts, AccumulateAndTotal) {
  OpCounts a;
  a.mac = 5;
  a.exp = 2;
  OpCounts b;
  b.mac = 1;
  b.div = 7;
  a += b;
  EXPECT_EQ(a.mac, 6U);
  EXPECT_EQ(a.div, 7U);
  EXPECT_EQ(a.total(), 6U + 2U + 7U);
}

}  // namespace
}  // namespace mann::sim
