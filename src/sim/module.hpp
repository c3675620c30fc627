// Module base class for the cycle-level dataflow simulation.
//
// Modules are ticked once per clock cycle in a fixed order by the
// Simulator. A module models its internal pipelines with cycle counters:
// when it starts a multi-cycle operation it performs the arithmetic
// immediately (transaction semantics) and then stays busy for the
// operation's latency, which preserves cycle-accurate timing at the module
// boundary without simulating every register.
#pragma once

#include <optional>
#include <string>

#include "sim/types.hpp"

namespace mann::sim {

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Advances one clock cycle.
  virtual void tick() = 0;

  /// Earliest cycle >= `now` whose tick() could do something skip() does
  /// not replay, given no new input from other modules.
  /// Simulator::run_events uses it to jump quiescent stretches: when every
  /// module reports a cycle past `now`, the clock moves straight to the
  /// earliest one and each module's skip() replays the cycles in between.
  /// A busy module reports the tick that completes its operation, a
  /// stalled one `now`; kNever means idle until some other module acts.
  /// Returning nullopt means "unknown — tick me every cycle", the default
  /// for modules that keep no such schedule.
  [[nodiscard]] virtual std::optional<Cycle> next_activity(Cycle now) const {
    (void)now;
    return std::nullopt;
  }

  /// Replays `cycles` ticks the clock jumped over, in registration order
  /// across modules. The simulator calls it only with `cycles` <=
  /// next_activity(now) - now; an implementation credits the busy and
  /// stall cycles and advances the internal counters those ticks would
  /// have. A replayed tick must not change what another module's
  /// next_activity() assumed, except through traffic both ends account
  /// for (Fifo::stream_through). The default suits modules that do
  /// nothing while idle.
  virtual void skip(Cycle cycles) { (void)cycles; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const ModuleStats& stats() const noexcept { return stats_; }

 protected:
  /// Accounting helpers for subclasses.
  void mark_busy(Cycle cycles = 1) noexcept { stats_.busy_cycles += cycles; }
  void mark_stalled(Cycle cycles = 1) noexcept {
    stats_.stall_cycles += cycles;
  }
  OpCounts& ops() noexcept { return stats_.ops; }

 private:
  std::string name_;
  ModuleStats stats_;
};

}  // namespace mann::sim
