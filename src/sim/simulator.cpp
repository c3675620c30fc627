#include "sim/simulator.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace mann::sim {

void Simulator::add_module(Module& module) { modules_.push_back(&module); }

Cycle Simulator::run_until(const std::function<bool()>& done,
                           Cycle max_cycles) {
  const Cycle start = now_;
  while (!done()) {
    if (past_watchdog(now_, start, max_cycles)) {
      throw std::runtime_error(
          "Simulator: watchdog expired — dataflow deadlock or runaway");
    }
    for (Module* m : modules_) {
      m->tick();
    }
    ++now_;
  }
  return now_ - start;
}

Cycle Simulator::run_events(const std::function<bool()>& done,
                            Cycle max_cycles) {
  const Cycle start = now_;
  (void)run_events_until(done, kNever, start, max_cycles);
  return now_ - start;
}

bool Simulator::run_events_until(const std::function<bool()>& done,
                                 Cycle limit, Cycle watchdog_start,
                                 Cycle max_cycles) {
  const Cycle start = watchdog_start;
  while (!done()) {
    if (past_watchdog(now_, start, max_cycles)) {
      throw std::runtime_error(
          "Simulator: watchdog expired — dataflow deadlock or runaway");
    }

    // Quiescence check: if every module agrees nothing can happen before
    // some future cycle, jump straight there. A nullopt vetoes the jump.
    Cycle horizon = kNever;
    bool skippable = !modules_.empty();
    for (const Module* m : modules_) {
      const std::optional<Cycle> next = m->next_activity(now_);
      if (!next.has_value()) {
        skippable = false;
        break;
      }
      horizon = std::min(horizon, *next);
      if (horizon <= now_) {
        break;  // something is due now: no module can widen the jump
      }
    }
    if (skippable && horizon > now_) {
      if (limit != kNever && horizon >= limit) {
        // Exclusive-limit hold: the next event sits at or past the
        // horizon the driver vouched for, so stop *without* moving the
        // clock — a later input may land before `horizon`.
        return false;
      }
      // Clamp so the watchdog still fires instead of wrapping past it.
      const Cycle jump = std::min(horizon, start + max_cycles) - now_;
      for (Module* m : modules_) {
        m->skip(jump);
      }
      now_ += jump;
      if (past_watchdog(now_, start, max_cycles)) {
        throw std::runtime_error(
            "Simulator: watchdog expired — all modules idle forever");
      }
    } else if (limit != kNever && now_ >= limit) {
      // Exclusive-limit hold: work is due *now*, but now is past the
      // driver's horizon — the tick belongs to a later call.
      return false;
    }

    for (Module* m : modules_) {
      m->tick();
    }
    ++now_;
  }
  return true;
}

}  // namespace mann::sim
