// mann_perfbench --self-test: the benchmark's own logic on tiny sizes —
// tail-percentile selection, failure accounting, and digest stability of
// every workload across two in-process runs.
#include <cstdio>
#include <string>
#include <vector>

#include "data/tasks.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

void test_percentiles() {
  expect(!supported_percentile(9), "9 samples support no percentile");
  expect(supported_percentile(20) == 50.0, "20 samples support p50");
  expect(supported_percentile(99) == 50.0, "99 samples support p50, not p90");
  expect(supported_percentile(100) == 90.0, "100 samples support p90");
  expect(supported_percentile(1'000) == 99.0, "1000 samples support p99");
  expect(supported_percentile(9'999) == 99.0, "9999 samples stop at p99");
  expect(supported_percentile(10'000) == 99.9, "10000 samples support p99.9");
  expect(supported_percentile(100'000) == 99.99, "1e5 samples support p99.99");
  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) {
    ramp.push_back(static_cast<double>(101 - i));
  }
  expect(percentile(ramp, 50.0) == 50.0 && percentile(ramp, 99.0) == 99.0 &&
             percentile(ramp, 100.0) == 100.0 && percentile({}, 50.0) == 0.0,
         "nearest-rank percentiles of 1..100");
}

void test_ledger() {
  const std::vector<std::uint64_t> ids = {1, 2, 3, 4};
  const Ledger clean = audit_ledger(ids, {{2, 5, false}, {1, 7, false},
                                          {3, 7, true}, {4, 9, false}});
  expect(clean.errors.empty() && clean.completed == 3 && clean.shed == 1 &&
             clean.failed() == 1,
         "a shed counts as one failure of four offered");
  const Ledger missing = audit_ledger(ids, {{1, 1, false}, {2, 2, false}});
  expect(missing.unresolved == 2 && missing.failed() == 2 &&
             missing.errors.size() == 1,
         "unresolved arrivals fail and are reported");
  const Ledger twice = audit_ledger(ids, {{1, 1, false}, {1, 2, false},
                                          {2, 3, false}, {3, 4, false}});
  expect(!twice.errors.empty(), "a request resolved twice is an error");
  const Ledger unsorted = audit_ledger(ids, {{2, 5, false}, {1, 5, false},
                                             {3, 6, false}, {4, 7, false}});
  expect(!unsorted.errors.empty(),
         "a stream out of (cycle, id) order is an error");
  const Ledger stranger = audit_ledger({1}, {{9, 1, false}});
  expect(!stranger.errors.empty(),
         "a completion for an unknown id is an error");
  const Ledger refused = audit_ledger({1}, {{1, 1, false}}, 2);
  expect(refused.offered == 3 && refused.failed() == 2 &&
             refused.errors.empty(),
         "router refusals count as offered and failed");
}

/// Two tiny, barely trained tasks: enough to drive every workload's code.
Suite tiny_suite() {
  mann::runtime::PrepareConfig cfg = mann::runtime::default_prepare_config();
  cfg.dataset.train_stories = 40;
  cfg.dataset.test_stories = 16;
  cfg.model.embedding_dim = 8;
  cfg.model.hops = 1;
  cfg.train.epochs = 1;
  Suite suite;
  for (std::size_t t = 0; t < 2; ++t) {
    suite.push_back(
        mann::runtime::prepare_task(mann::data::all_tasks()[t], cfg));
  }
  return suite;
}

/// Set-up, preparation and one pass of a fresh workload: one "run".
PassResult one_run(const std::string& name, const Suite& suite,
                   const Sizes& sizes) {
  std::unique_ptr<Workload> w = make_workload(name, 7, sizes);
  w->setup(suite, Probe{});
  w->prepare();
  return w->pass(Probe{}, nullptr);
}

void test_digests() {
  const Suite suite = tiny_suite();
  Sizes sizes;
  sizes.arrivals = 300;
  sizes.fleet_scale = 1;
  sizes.scratch_dir = ".bench_build/perfbench/selftest";
  for (const std::string& name : workload_names()) {
    const PassResult a = one_run(name, suite, sizes);
    const PassResult b = one_run(name, suite, sizes);
    expect(a.errors.empty() && b.errors.empty(),
           name + ": output checks pass on the tiny suite");
    expect(a.ledger.offered > 0 && a.digest == b.digest,
           name + ": digest stable across two in-process runs");
    // A traced pass (registry attached, spans recorded, the traced run's
    // host-parallel configuration) simulates the same.
    Tracer tracer;
    mann::obs::MetricsRegistry registry;
    std::unique_ptr<Workload> w =
        make_workload(name, 7, sizes, HostThreads::kParallel);
    w->setup(suite, Probe{});
    w->prepare();
    const PassResult traced = w->pass(Probe{&tracer, -1, 0}, &registry);
    expect(traced.digest == a.digest && !tracer.spans().empty(),
           name + ": traced pass matches the untraced digest");
    // ...and its host-parallel layers actually ran.
    const char* parallel_layer =
        name == "serve_cold"      ? "serve.worker_pool.jobs_submitted"
        : name == "fleet_diurnal" ? "cluster.fleet_pool.rounds"
                                  : nullptr;
    if (MANN_OBS && parallel_layer != nullptr) {
      const auto it = traced.layer.find(parallel_layer);
      expect(it != traced.layer.end() && it->second > 0.0,
             name + ": traced pass reports " + parallel_layer + " > 0");
    }
  }
}

}  // namespace

int self_test() {
  test_percentiles();
  test_ledger();
  test_digests();
  std::printf("self-test: %s (%d failed)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
