// Measurement plumbing of the repo benchmark: host clocks, the in-memory
// span recorder, percentiles, digests of simulated output, the
// completion-ledger check and knob setters that survive a deleted knob.
// Everything here is timed or computed from outside the library: the
// benchmark adds no instrumentation under src/.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

/// Host time in nanoseconds on the steady clock.
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t a,
                                            std::int64_t b) noexcept {
  return static_cast<double>(b - a) * 1e-9;
}

/// One recorded interval. `parent` indexes the enclosing span (-1 = root);
/// `pass` is the timed pass it belongs to (-1 = set-up).
struct Span {
  const char* name = "";  ///< always a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int pass = -1;
};

/// Spans kept in memory for the whole run and written out at the end.
class Tracer {
 public:
  int add(const char* name, std::int64_t start, std::int64_t end, int parent,
          int pass) {
    spans_.push_back({name, start, end, parent, pass});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Sets the interval of a span added before its children were known.
  void set_bounds(int span, std::int64_t start, std::int64_t end) {
    Span& s = spans_[static_cast<std::size_t>(span)];
    s.start_ns = start;
    s.end_ns = end;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time (duration minus the time covered by direct children) of
  /// every span, indexed like spans(). Children of one parent never
  /// overlap: the benchmark calls the library from one thread.
  [[nodiscard]] std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = seconds_between(spans_[i].start_ns, spans_[i].end_ns);
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -=
            seconds_between(s.start_ns, s.end_ns);
      }
    }
    return self;
  }

 private:
  std::vector<Span> spans_;
};

/// The recording context handed to a workload for one pass (or the
/// set-up): a null tracer means "untraced", and every record is a no-op.
struct Probe {
  Tracer* tracer = nullptr;
  int parent = -1;
  int pass = -1;

  void record(const char* name, std::int64_t start, std::int64_t end) const {
    if (tracer != nullptr) {
      tracer->add(name, start, end, parent, pass);
    }
  }

  /// Runs `fn`, recording it as span `name` when traced.
  template <class Fn>
  decltype(auto) call(const char* name, Fn&& fn) const {
    if (tracer == nullptr) {
      return fn();
    }
    const std::int64_t start = now_ns();
    struct Close {
      const Probe* probe;
      const char* name;
      std::int64_t start;
      ~Close() { probe->record(name, start, now_ns()); }
    } close{this, name, start};
    return fn();
  }
};

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(rank), 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// The highest percentile of {50, 90, 99, 99.9, 99.99} that leaves at
/// least ten of `samples` beyond it; nullopt when not even the median
/// does. A tail percentile resting on fewer samples is noise.
[[nodiscard]] inline std::optional<double> supported_percentile(
    std::size_t samples) {
  std::optional<double> best;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(samples) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) {
      best = p;
    }
  }
  return best;
}

/// FNV-1a over 64-bit words: the digest of every simulated field a
/// workload produces. Doubles enter by their bits, so a digest matches
/// only when the simulation is bit-identical.
class Digest {
 public:
  Digest& add(std::uint64_t word) noexcept {
    h_ = (h_ ^ word) * 0x100000001b3ULL;
    return *this;
  }
  Digest& add(double v) noexcept {
    return add(std::bit_cast<std::uint64_t>(v));
  }
  Digest& add(bool v) noexcept { return add(std::uint64_t{v ? 1U : 0U}); }
  template <class T>
    requires std::is_integral_v<T> && (!std::is_same_v<T, bool>)
  Digest& add(T v) noexcept {
    return add(static_cast<std::uint64_t>(v));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Operations offered vs resolved: every offered arrival must resolve
/// exactly once, as a completion or a shed.
struct Ledger {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t unresolved = 0;
  std::vector<std::string> errors;

  /// Shed and unresolved arrivals both count as failed operations.
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return shed + unresolved;
  }
};

/// One resolved request as the ledger sees it.
struct Resolution {
  std::uint64_t id = 0;
  std::uint64_t cycle = 0;
  bool shed = false;
};

/// Checks a poll_completions() stream against the ids submit() returned:
/// ids unique and offered, the stream sorted by (cycle, id), and
/// completed + shed = offered. `refused` are arrivals turned away before
/// reaching any session (a router shed); they resolve as sheds.
[[nodiscard]] inline Ledger audit_ledger(
    const std::vector<std::uint64_t>& offered_ids,
    const std::vector<Resolution>& stream, std::uint64_t refused = 0) {
  Ledger ledger;
  ledger.offered = offered_ids.size() + refused;
  ledger.shed = refused;
  const std::unordered_set<std::uint64_t> offered(offered_ids.begin(),
                                                  offered_ids.end());
  if (offered.size() != offered_ids.size()) {
    ledger.errors.emplace_back("submit() returned a duplicate request id");
  }
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Resolution& r = stream[i];
    if (!offered.contains(r.id)) {
      ledger.errors.push_back("completion for never-offered id " +
                              std::to_string(r.id));
    } else if (!seen.insert(r.id).second) {
      ledger.errors.push_back("id " + std::to_string(r.id) +
                              " resolved twice");
    }
    const Resolution* prev = i > 0 ? &stream[i - 1] : nullptr;
    if (prev != nullptr && (prev->cycle > r.cycle ||
                            (prev->cycle == r.cycle && prev->id >= r.id))) {
      ledger.errors.push_back(
          "completion stream not sorted by (cycle, id) at " +
          std::to_string(i));
    }
    (r.shed ? ledger.shed : ledger.completed) += 1;
  }
  const std::uint64_t resolved = ledger.completed + ledger.shed;
  ledger.unresolved = ledger.offered > resolved ? ledger.offered - resolved : 0;
  if (ledger.unresolved > 0) {
    ledger.errors.push_back(std::to_string(ledger.unresolved) +
                            " offered arrivals never resolved");
  }
  return ledger;
}

// Knobs a later change may delete (ROADMAP: fleet threading, speculation
// and cache knobs). Each setter assigns the field only when the config
// still has it, so the benchmark builds and runs unedited either way.
template <class Config>
void set_workers(Config& c, std::size_t n) {
  if constexpr (requires { c.workers = n; }) {
    c.workers = n;
  }
}
template <class Config>
void set_fleet_threads(Config& c, std::size_t n) {
  if constexpr (requires { c.fleet_threads = n; }) {
    c.fleet_threads = n;
  }
}
template <class Config>
void set_cache_segments(Config& c, std::size_t n) {
  if constexpr (requires { c.cache_segments = n; }) {
    c.cache_segments = n;
  }
}

/// Speculation useful / speculated from a serving report, when the report
/// still carries speculation stats and anything was speculated.
template <class Report>
[[nodiscard]] std::optional<double> speculation_useful_frac(const Report& r) {
  if constexpr (requires { r.speculation.useful; r.speculation.speculated; }) {
    if (r.speculation.speculated > 0) {
      return static_cast<double>(r.speculation.useful) /
             static_cast<double>(r.speculation.speculated);
    }
  }
  return std::nullopt;
}

/// Registry counters read by name; a name the registry never registered
/// (or a build with mann::obs compiled out) reads as absent.
class Counters {
 public:
  Counters() = default;
  explicit Counters(const mann::obs::MetricsRegistry& registry) {
    for (const mann::obs::MetricSample& s : registry.snapshot()) {
      if (s.kind == mann::obs::MetricSample::Kind::kCounter) {
        values_[s.name] = s.value;
      }
    }
  }
  [[nodiscard]] std::optional<std::uint64_t> get(std::string_view name) const {
    const auto it = values_.find(std::string(name));
    if (it == values_.end()) {
      return std::nullopt;
    }
    return it->second;
  }
  /// Sum of every counter whose name starts with `prefix`.
  [[nodiscard]] std::optional<std::uint64_t> sum_prefix(
      std::string_view prefix) const {
    std::optional<std::uint64_t> total;
    for (const auto& [name, value] : values_) {
      if (name.starts_with(prefix)) {
        total = total.value_or(0) + value;
      }
    }
    return total;
  }

 private:
  std::map<std::string, std::uint64_t> values_;
};

}  // namespace perfbench
