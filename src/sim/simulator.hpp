// The clock: ticks registered modules in order until a completion
// predicate fires (or a watchdog limit trips, which is always a bug).
#pragma once

#include <functional>
#include <vector>

#include "sim/module.hpp"
#include "sim/types.hpp"

namespace mann::sim {

class Simulator {
 public:
  /// Registers a module. Tick order == registration order; pick an order
  /// consistent with the dataflow direction (producers before consumers
  /// gives same-cycle forwarding through FIFOs, like combinational
  /// FIFO bypass).
  void add_module(Module& module);

  /// Runs until `done()` returns true, ticking every module every cycle.
  /// Returns cycles elapsed in this call. Throws std::runtime_error when
  /// `max_cycles` elapses first. The reference the event loop is tested
  /// against.
  Cycle run_until(const std::function<bool()>& done, Cycle max_cycles);

  /// Like run_until, but when every registered module reports a future
  /// next_activity() the clock jumps straight to the earliest one instead
  /// of ticking through the quiescent gap, and each module's skip()
  /// replays the jumped cycles. Exact for modules that honour the
  /// next_activity/skip contract; identical to run_until when any module
  /// returns nullopt.
  Cycle run_events(const std::function<bool()>& done, Cycle max_cycles);

  /// The event loop behind run_events, resumable under an exclusive
  /// horizon: runs until `done()` (returns true) or until the next tick
  /// would fall at or past `limit` (returns false with the clock held, so
  /// a driver can add input before `limit` and call again; kNever = no
  /// horizon). The watchdog counts from `watchdog_start`, which a
  /// resuming driver keeps fixed across calls. The serving session steps
  /// on it, so pausing at any horizon replays the same tick sequence as
  /// one uninterrupted run.
  bool run_events_until(const std::function<bool()>& done, Cycle limit,
                        Cycle watchdog_start, Cycle max_cycles);

  /// The watchdog rule: true once `at` lies `max_cycles` or more past
  /// `start`. A clock that has reached such a cycle can only throw.
  [[nodiscard]] static constexpr bool past_watchdog(Cycle at, Cycle start,
                                                    Cycle max_cycles) noexcept {
    return at >= start && at - start >= max_cycles;
  }

  /// Cheap timing fast-forward: advances the clock by `cycles` without
  /// ticking any module. It is the replay hook for consumers that already
  /// know a stretch's exact cycle count from a previous simulation (the
  /// service-cycle cache replays memoized device runs this way: the clock
  /// lands exactly where a full re-simulation would, at zero cost).
  void advance(Cycle cycles) noexcept { now_ += cycles; }

  /// Total cycles ticked since construction.
  [[nodiscard]] Cycle now() const noexcept { return now_; }

  [[nodiscard]] const std::vector<Module*>& modules() const noexcept {
    return modules_;
  }

 private:
  std::vector<Module*> modules_;
  Cycle now_ = 0;
};

}  // namespace mann::sim
