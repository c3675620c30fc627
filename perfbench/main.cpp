// mann_perfbench: the repo benchmark. Runs one workload for a fixed host
// time, checks its outputs and prints every metric by name with its unit;
// the last stdout line is one JSON object
//   {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, taken from spans recorded around every call the
// benchmark makes into the library (alternate passes run untraced, which
// gives the tracing overhead). The traced run's passes use the
// host-parallel configuration (serve_cold on 3 WorkerPool workers,
// fleet_diurnal on 4 fleet threads); the end-to-end run's stay on the
// driving thread.
//
//   mann_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--reference FILE]
//   mann_perfbench --self-test
#include <sys/resource.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "harness.hpp"
#include "runtime/measurement.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace mann;

/// The trained-model cache every bench harness shares (untracked).
constexpr const char* kSuiteCache = "mann_bench_cache";
/// Default seed; on it every workload's digest must equal the reference.
constexpr std::uint64_t kDefaultSeed = 1;
/// Complete set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Traced passes per traced run; later passes run untraced, which bounds
/// the spans kept in memory on workloads with short passes.
constexpr std::size_t kMaxTracedPasses = 8;

/// The knobs prepare_suite_cached keys its model files on.
std::string suite_key(const runtime::PrepareConfig& c) {
  return "g" + std::to_string(data::kGeneratorVersion) + "_s" +
         std::to_string(c.dataset.seed) + "_n" +
         std::to_string(c.dataset.train_stories) + "_e" +
         std::to_string(c.model.embedding_dim) + "_h" +
         std::to_string(c.model.hops) + "_ep" +
         std::to_string(c.train.epochs) + "_i" + std::to_string(c.init_seed);
}

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"stories_per_host_s", "1/s"},
    {"arrival_p50_us", "us"},
    {"arrival_p99_us", "us"},
    {"peak_rss_mb", "MB"},
    {"sim_stories_per_s", "1/sim_s"},
    {"sim_p99_ms", "sim_ms"},
    {"sim_mj_per_inference", "mJ"},
    {"sim_deadline_hit_rate", "fraction"},
    {"accuracy", "fraction"},
};

constexpr Metric kPerLayer[] = {
    {"runtime.prepare_suite_s", "s"},
    {"accel.compile_s", "s"},
    {"accel.run_calls", "count"},
    {"accel.run_busy_s", "s"},
    {"accel.sim_cycles_per_host_s", "1/s"},
    {"accel.ops_per_story", "count"},
    {"accel.output_probes_per_story", "count"},
    {"accel.link_active_frac", "fraction"},
    {"accel.cycle_cache.hits", "count"},
    {"accel.cycle_cache.misses", "count"},
    {"accel.cycle_cache.waits", "count"},
    {"accel.cycle_cache.evictions", "count"},
    {"accel.cycle_cache.hit_rate", "fraction"},
    {"accel.cycle_cache.load_s", "s"},
    {"serve.submit_busy_s", "s"},
    {"serve.step_busy_s", "s"},
    {"serve.poll_busy_s", "s"},
    {"serve.finalize_s", "s"},
    {"serve.decisions_per_host_s", "1/s"},
    {"serve.admission.admitted", "count"},
    {"serve.admission.shed", "count"},
    {"serve.batcher.batches_out", "count"},
    {"serve.scheduler.dispatches", "count"},
    {"serve.scheduler.stolen_batches", "count"},
    {"serve.scheduler.model_uploads", "count"},
    {"serve.worker_pool.jobs_submitted", "count"},
    {"serve.speculation.useful_frac", "fraction"},
    {"serve.cpu_per_wall", "ratio"},
    {"cluster.submit_p50_us", "us"},
    {"cluster.step_p50_us", "us"},
    {"cluster.step_busy_s", "s"},
    {"cluster.fleet_pool.rounds", "count"},
    {"cluster.fleet_pool.tasks", "count"},
    {"cluster.cpu_per_wall", "ratio"},
    {"cluster.warm_dispatch_rate", "fraction"},
    {"cluster.instance_fairness", "fraction"},
    {"bench.unattributed_frac", "fraction"},
    {"bench.trace_overhead", "ratio"},
    {"bench.arrival_samples", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string reference = "perfbench/reference_digests.txt";
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "mann_perfbench: %s\nusage: mann_perfbench --workload "
               "table1_cold|serve_cold|serve_warm|fleet_diurnal [--seed N] "
               "[--seconds S] [--trace 0|1] [--reference FILE]\n"
               "       mann_perfbench --self-test\n",
               error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage(arg + " needs a value");
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        args.workload = next();
      } else if (arg == "--seed") {
        args.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        args.seconds = std::stod(next());
      } else if (arg == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") {
          usage("--trace takes 0 or 1");
        }
        args.trace = v == "1";
      } else if (arg == "--reference") {
        args.reference = next();
      } else if (arg == "--self-test") {
        args.self_test = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!args.self_test && make_workload(args.workload, 0, {}) == nullptr) {
    usage("unknown or missing --workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return args;
}

/// CPUs this process may run on (what a parallel layer can actually use).
std::size_t usable_cores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

/// Host CPU time stolen by the hypervisor and total CPU time, in ticks
/// summed over all CPUs (/proc/stat); zeros where unavailable.
std::pair<double, double> cpu_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double total = 0.0;
  double steal = 0.0;
  if (in >> cpu && cpu == "cpu") {
    double v = 0.0;
    for (int field = 0; field < 8 && in >> v; ++field) {
      total += v;
      steal = field == 7 ? v : steal;
    }
  }
  return {steal, total};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Reference digests recorded on the default seed: "<workload> <hex>".
std::optional<std::uint64_t> reference_digest(const std::string& path,
                                              const std::string& workload) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::string hex;
    if (fields >> name >> hex && name == workload) {
      return std::stoull(hex, nullptr, 16);
    }
  }
  return std::nullopt;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<std::pair<Metric, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].first.name, metrics[i].second,
                metrics[i].first.unit);
  }
  std::printf("}}\n");
}

/// Per-pass figure: the median over `passes` of `layer[name]`, or
/// nullopt when no pass reported it.
std::optional<double> layer_median(const std::vector<PassResult>& passes,
                                   const std::string& name) {
  std::vector<double> values;
  for (const PassResult& p : passes) {
    if (const auto it = p.layer.find(name); it != p.layer.end()) {
      values.push_back(it->second);
    }
  }
  if (values.empty()) {
    return std::nullopt;
  }
  return median(values);
}

int run_benchmark(const Args& args) {
  // The suite every table and serving sweep trains, so the trained-model
  // cache is shared with those harnesses.
  const runtime::PrepareConfig suite_cfg = bench::suite_config();
  const HostThreads threads =
      args.trace ? HostThreads::kParallel : HostThreads::kSequential;
  Sizes sizes;
  const std::string host_threads =
      make_workload(args.workload, args.seed, sizes, threads)->host_threads();
  std::printf("# provenance: workload=%s seed=%llu nproc=%zu build=%s "
              "MANN_OBS=%d compiler=\"%s\" suite_cache_key=%s trace=%d "
              "host_threads=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              usable_cores(), PERFBENCH_BUILD_TYPE, MANN_OBS, __VERSION__,
              suite_key(suite_cfg).c_str(), args.trace ? 1 : 0,
              host_threads.c_str());

  // One-off model training (untimed): the suite cache is a generated,
  // untracked directory, so a fresh checkout fills it here.
  if (!runtime::suite_cache_complete(suite_cfg, kSuiteCache)) {
    std::printf("# training the 20-task suite into %s/ (one-off, untimed)\n",
                kSuiteCache);
    std::fflush(stdout);
    (void)runtime::prepare_suite_cached(suite_cfg, kSuiteCache);
  }

  Tracer tracer;
  Tracer* const span_sink = args.trace ? &tracer : nullptr;

  // Set-up: load the cached models (ITH calibration included), compile the
  // programs, build the schedule. Repeated; the median is setup_s.
  std::vector<double> setup_s;
  std::vector<double> prepare_s;
  std::vector<double> compile_s;
  Suite suite;
  std::unique_ptr<Workload> workload;
  for (int r = 0; r < kSetupRepeats; ++r) {
    workload.reset();
    const std::size_t first_span = tracer.spans().size();
    const std::int64_t t0 = now_ns();
    const int root = tracer.add("bench.setup", t0, t0, -1, -1);
    const Probe probe{span_sink, root, -1};
    const std::int64_t p0 = now_ns();
    suite = runtime::prepare_suite_cached(suite_cfg, kSuiteCache);
    const std::int64_t p1 = now_ns();
    probe.record("runtime.prepare_suite", p0, p1);
    workload = make_workload(args.workload, args.seed, sizes, threads);
    workload->setup(suite, probe);
    const std::int64_t t1 = now_ns();
    setup_s.push_back(seconds_between(t0, t1));
    prepare_s.push_back(seconds_between(p0, p1));
    double compile = 0.0;
    for (std::size_t i = first_span; i < tracer.spans().size(); ++i) {
      const Span& s = tracer.spans()[i];
      if (std::string_view(s.name) == "accel.compile") {
        compile += seconds_between(s.start_ns, s.end_ns);
      }
    }
    compile_s.push_back(compile);
    tracer.set_bounds(root, t0, t1);
  }
  workload->prepare();

  // Timed passes until --seconds have elapsed. A traced run alternates
  // untraced and traced passes (at least one of each).
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::vector<int> traced_roots;
  // Per-pass arrival percentiles; the samples themselves are dropped
  // after each pass so the run's memory does not grow with its length.
  std::vector<double> pass_p50;
  std::vector<double> pass_p99;
  std::size_t samples = 0;
  std::size_t samples_per_pass = 0;
  // Peak RSS through set-up and the first pass: later passes repeat the
  // same work, so the run's length (host speed) does not move it.
  double rss_mb = 0.0;
  const auto summarize = [&](PassResult& r) {
    if (rss_mb == 0.0) {
      rss_mb = peak_rss_mb();
    }
    pass_p50.push_back(percentile(r.op_us, 50.0));
    pass_p99.push_back(percentile(r.op_us, 99.0));
    samples += r.op_us.size();
    samples_per_pass = r.op_us.size();
    r.op_us = {};
  };
  const std::size_t min_passes = args.trace ? 2 : 1;
  const auto [steal0, total0] = cpu_steal_ticks();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  for (int pass = 0; static_cast<std::size_t>(pass) < min_passes ||
                     now_ns() < deadline;
       ++pass) {
    const bool trace_pass =
        args.trace && pass % 2 == 1 && traced.size() < kMaxTracedPasses;
    std::unique_ptr<obs::MetricsRegistry> registry;
    if (trace_pass) {
      registry = std::make_unique<obs::MetricsRegistry>();
      // The root span is the pass's timed phase: the output checks the
      // workload runs after it are not host time a layer spent.
      const int root = tracer.add("bench.pass", 0, 0, -1, pass);
      PassResult r = workload->pass(Probe{&tracer, root, pass}, registry.get());
      tracer.set_bounds(root, r.start_ns, r.end_ns);
      traced_roots.push_back(root);
      summarize(r);
      traced.push_back(std::move(r));
    } else {
      PassResult r = workload->pass(Probe{}, nullptr);
      summarize(r);
      untraced.push_back(std::move(r));
    }
  }
  const auto [steal1, total1] = cpu_steal_ticks();
  std::printf("# host CPU stolen by the hypervisor during the passes: %.2f%%\n",
              total1 > total0 ? 100.0 * (steal1 - steal0) / (total1 - total0)
                              : 0.0);
  std::vector<std::string> errors = workload->final_checks();

  // Output checks common to every workload.
  std::vector<PassResult*> all;
  for (auto* list : {&untraced, &traced}) {
    for (PassResult& p : *list) {
      all.push_back(&p);
    }
  }
  const std::uint64_t digest = all.front()->digest;
  for (const PassResult* p : all) {
    errors.insert(errors.end(), p->errors.begin(), p->errors.end());
    if (p->digest != digest) {
      errors.emplace_back(
          std::string("simulated output differs between passes") +
          (args.trace ? " (traced vs untraced)" : ""));
    }
  }
  std::printf("digest %s %s\n", args.workload.c_str(), hex(digest).c_str());
  if (args.seed == kDefaultSeed) {
    const auto expected = reference_digest(args.reference, args.workload);
    if (!expected) {
      errors.push_back("no reference digest for " + args.workload + " in " +
                       args.reference);
    } else if (*expected != digest) {
      errors.push_back("digest " + hex(digest) +
                       " differs from the reference " + hex(*expected) +
                       " recorded for seed 1");
    }
  }

  std::vector<double> walls;
  Ledger totals;
  for (const PassResult* p : all) {
    walls.push_back(p->wall_s());
    totals.offered += p->ledger.offered;
    totals.completed += p->ledger.completed;
    totals.shed += p->ledger.shed;
    totals.unresolved += p->ledger.unresolved;
  }
  std::printf("%zu passes: wall min %.4f / median %.4f / max %.4f s; offered "
              "%llu, completed %llu, shed %llu, unresolved %llu\n",
              all.size(), *std::min_element(walls.begin(), walls.end()),
              median(walls), *std::max_element(walls.begin(), walls.end()),
              static_cast<unsigned long long>(totals.offered),
              static_cast<unsigned long long>(totals.completed),
              static_cast<unsigned long long>(totals.shed),
              static_cast<unsigned long long>(totals.unresolved));
  if (const auto supported = supported_percentile(samples_per_pass)) {
    std::printf("arrival samples %zu per pass, %zu in all; highest "
                "percentile with >= 10 samples beyond it in a pass: p%g\n",
                samples_per_pass, samples, *supported);
  } else {
    std::printf("arrival samples %zu per pass; no percentile has >= 10 "
                "samples beyond it\n",
                samples_per_pass);
  }

  std::vector<std::pair<Metric, double>> out;
  if (!args.trace) {
    // Per-pass figures, then the median over passes: one pass slowed by
    // a noisy neighbour moves none of them.
    std::vector<double> throughput;
    for (const PassResult* p : all) {
      throughput.push_back(static_cast<double>(p->ledger.completed) /
                           p->wall_s());
    }
    const PassResult& first = *all.front();
    const std::map<std::string, double> values = {
        {"setup_s", median(setup_s)},
        {"stories_per_host_s", median(throughput)},
        {"arrival_p50_us", median(pass_p50)},
        {"arrival_p99_us", median(pass_p99)},
        {"peak_rss_mb", rss_mb},
    };
    for (const Metric& m : kEndToEnd) {
      const auto it = values.find(m.name);
      out.emplace_back(
          m, it != values.end() ? it->second : first.sim.at(m.name));
    }
  } else {
    // Where host time went: layer self-times over the traced passes.
    const std::vector<double> self = tracer.self_seconds();
    std::map<std::string, double> by_layer;
    double traced_wall = 0.0;
    std::vector<double> unattributed;
    for (const int root : traced_roots) {
      const Span& s = tracer.spans()[static_cast<std::size_t>(root)];
      const double wall = seconds_between(s.start_ns, s.end_ns);
      traced_wall += wall;
      unattributed.push_back(self[static_cast<std::size_t>(root)] / wall);
    }
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      const Span& s = tracer.spans()[i];
      if (s.pass >= 0) {
        by_layer[std::string_view(s.name) == "bench.pass" ? "(unattributed)"
                                                          : s.name] += self[i];
      }
    }
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [name, seconds] : by_layer) {
      rows.emplace_back(seconds, name);
    }
    std::sort(rows.rbegin(), rows.rend());
    std::printf("where host time went (%s, %zu traced passes, %.3f s):\n",
                args.workload.c_str(), traced.size(), traced_wall);
    for (const auto& [seconds, name] : rows) {
      std::printf("  %-28s %10.4f s %6.2f%%\n", name.c_str(), seconds,
                  100.0 * seconds / traced_wall);
    }

    std::vector<double> traced_wall_s;
    std::vector<double> untraced_wall_s;
    for (const PassResult& p : traced) {
      traced_wall_s.push_back(p.wall_s());
    }
    for (const PassResult& p : untraced) {
      untraced_wall_s.push_back(p.wall_s());
    }
    std::map<std::string, double> values = {
        {"runtime.prepare_suite_s", median(prepare_s)},
        {"accel.compile_s", median(compile_s)},
        {"bench.unattributed_frac", median(unattributed)},
        {"bench.trace_overhead",
         median(traced_wall_s) / median(untraced_wall_s)},
        {"bench.arrival_samples", static_cast<double>(samples)},
    };
    std::vector<std::string> absent;
    for (const Metric& m : kPerLayer) {
      if (!values.contains(m.name)) {
        if (const auto v = layer_median(traced, m.name)) {
          values[m.name] = *v;
        } else {
          absent.emplace_back(m.name);
        }
      }
      out.emplace_back(m, values.contains(m.name) ? values[m.name] : 0.0);
    }
    std::string list;
    for (const std::string& name : absent) {
      list += " " + name;
    }
    std::printf("layers this workload does not exercise (reported as 0):%s\n",
                list.c_str());

    // Spans are kept in memory and written out once, here.
    std::filesystem::create_directories(sizes.scratch_dir);
    const std::string path = sizes.scratch_dir + "/spans_" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".tsv";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f,
                   "# workload=%s seed=%llu nproc=%zu build=%s MANN_OBS=%d "
                   "host_threads=%s\n",
                   args.workload.c_str(),
                   static_cast<unsigned long long>(args.seed), usable_cores(),
                   PERFBENCH_BUILD_TYPE, MANN_OBS, host_threads.c_str());
      std::fprintf(f, "name\tstart_ns\tend_ns\tparent\tpass\n");
      for (const Span& s : tracer.spans()) {
        std::fprintf(f, "%s\t%lld\t%lld\t%d\t%d\n", s.name,
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.parent, s.pass);
      }
      std::fclose(f);
      std::printf("spans written to %s (%zu spans)\n", path.c_str(),
                  tracer.spans().size());
    }
  }

  for (const auto& [metric, value] : out) {
    std::printf("metric %-32s %16.6g %s\n", metric.name, value, metric.unit);
  }
  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("checks: %s\n", errors.empty() ? "all passed" : "FAILED");
  print_json(errors.empty(), totals.offered, totals.failed(), out);
  return 0;
}

}  // namespace

int self_test();

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    if (args.self_test) {
      return perfbench::self_test();
    }
    return perfbench::run_benchmark(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mann_perfbench: %s\n", e.what());
    return 1;
  }
}
