#include "workloads.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "accel/compiler.hpp"
#include "accel/service_cycle_cache.hpp"
#include "cluster/cluster.hpp"
#include "power/power_model.hpp"
#include "serve/options.hpp"
#include "serve/session.hpp"
#include "serve/trace.hpp"

namespace perfbench {

namespace {

using namespace mann;

constexpr double kClockHz = 100.0e6;
constexpr std::size_t kPollEvery = 256;

/// Host CPU seconds (user + sys, every thread) of this process so far.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// The serving sweeps' mixed SLOs: even tasks 3 ms, odd tasks 30 ms at
/// 100 MHz.
std::vector<sim::Cycle> mixed_slos(std::size_t tasks) {
  std::vector<sim::Cycle> slo(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    slo[t] = t % 2 == 0 ? 300'000 : 3'000'000;
  }
  return slo;
}

std::vector<serve::ServedModel> compile_models(const Suite& suite,
                                               const Probe& probe) {
  std::vector<serve::ServedModel> models;
  models.reserve(suite.size());
  for (const runtime::TaskArtifacts& art : suite) {
    serve::ServedModel model;
    model.program = probe.call("accel.compile",
                               [&] { return accel::compile_model(art.model); });
    model.stories = art.dataset.test;
    models.push_back(std::move(model));
  }
  return models;
}

void add_latency(Digest& d, const serve::LatencySummary& l) {
  d.add(l.mean_cycles).add(l.p50_cycles).add(l.p95_cycles).add(l.p99_cycles);
  d.add(l.max_cycles).add(l.mean_seconds).add(l.p50_seconds);
  d.add(l.p95_seconds).add(l.p99_seconds).add(l.max_seconds);
}

void add_energy(Digest& d, const serve::ServingEnergy& e) {
  d.add(e.dynamic_joules).add(e.static_joules).add(e.link_joules);
  d.add(e.total_joules).add(e.mean_watts).add(e.per_inference_joules);
}

void add_shed(Digest& d, const serve::ShedCounters& s) {
  for (const std::uint64_t c : s.by_reason) {
    d.add(c);
  }
}

/// Every simulated field of a serving report. Host-execution fields
/// (wall, workers, cache and speculation stats) are left out: they
/// depend on the host, not on the simulated timeline.
void add_report(Digest& d, const serve::ServingReport& r) {
  d.add(r.offered).add(r.completed).add(r.rejected).add(r.makespan_cycles);
  d.add(r.seconds).add(r.throughput_stories_per_second);
  d.add(r.offered_stories_per_second).add(r.accuracy).add(r.early_exit_rate);
  add_latency(d, r.latency);
  add_latency(d, r.queue_wait);
  d.add(r.deadline_total).add(r.deadline_missed).add(r.deadline_hit_rate);
  for (const serve::TaskSloReport& t : r.task_slo) {
    d.add(t.task).add(t.completed).add(t.with_deadline).add(t.violations);
  }
  add_shed(d, r.shed);
  for (const serve::TenantReport& t : r.tenants) {
    d.add(t.tenant).add(t.tier).add(t.weight).add(t.admitted);
    d.add(t.completed).add(t.with_deadline).add(t.violations);
    add_shed(d, t.shed);
  }
  d.add(r.fairness_index).add(r.mean_batch_size).add(r.batching_efficiency);
  d.add(r.mean_device_utilization).add(r.model_uploads);
  d.add(r.model_evictions).add(r.stolen_batches);
  add_energy(d, r.energy);
  const serve::BatcherCounters& b = r.batching;
  d.add(b.requests_in).add(b.requests_rejected).add(b.batches_out);
  d.add(b.stories_out).add(b.flush_full).add(b.flush_timeout);
  d.add(b.flush_drain);
  for (const serve::DeviceReport& dev : r.devices) {
    d.add(dev.id).add(dev.resident_task.value_or(~std::size_t{0}));
    d.add(dev.busy_cycles).add(dev.batches).add(dev.stories);
    d.add(dev.model_uploads).add(dev.model_evictions).add(dev.stolen_batches);
  }
  const sim::FifoStats& q = r.queue_stats;
  d.add(q.pushes).add(q.pops).add(q.full_rejects).add(q.max_occupancy);
}

/// Every simulated field of one resolved request (the host-dependent
/// cache outcome is left out).
void add_completion(Digest& d, const serve::Completion& c) {
  const serve::InferenceResponse& r = c.response;
  d.add(static_cast<std::uint64_t>(c.outcome)).add(c.cycle);
  d.add(r.id).add(r.task).add(r.tenant).add(r.device).add(r.batch_size);
  d.add(r.prediction).add(r.answer).add(r.early_exit).add(r.enqueue_cycle);
  d.add(r.dispatch_cycle).add(r.complete_cycle).add(r.deadline_cycle);
}

/// The simulated end-to-end metrics of a serving report.
std::map<std::string, double> serving_sim_metrics(
    double stories_per_s, const serve::LatencySummary& latency,
    const serve::ServingEnergy& energy, double deadline_hit_rate,
    double accuracy) {
  return {{"sim_stories_per_s", stories_per_s},
          {"sim_p99_ms", latency.p99_seconds * 1e3},
          {"sim_mj_per_inference", energy.per_inference_joules * 1e3},
          {"sim_deadline_hit_rate", deadline_hit_rate},
          {"accuracy", accuracy}};
}

serve::SubmitRequest to_submit(const serve::InferenceRequest& r) {
  serve::SubmitRequest s;
  s.task = r.task;
  s.tenant = r.tenant;
  s.at_cycle = r.enqueue_cycle;
  s.deadline_cycles = r.deadline_cycle == sim::kNever
                          ? sim::kNever
                          : r.deadline_cycle - r.enqueue_cycle;
  return s;
}

void put_counter(std::map<std::string, double>& layer, const Counters& c,
                 const char* name) {
  if (const auto v = c.get(name)) {
    layer[name] = static_cast<double>(*v);
  }
}

void put_cache_stats(std::map<std::string, double>& layer, double hits,
                     double misses, double waits, double evictions) {
  layer["accel.cycle_cache.hits"] = hits;
  layer["accel.cycle_cache.misses"] = misses;
  layer["accel.cycle_cache.waits"] = waits;
  layer["accel.cycle_cache.evictions"] = evictions;
  const double lookups = hits + misses + waits;
  layer["accel.cycle_cache.hit_rate"] = lookups > 0 ? hits / lookups : 0.0;
}

/// Control-plane counters the registry keeps, plus the device-simulation
/// call count they imply (one Accelerator::run per dispatch and per
/// worker job).
void put_serve_counters(std::map<std::string, double>& layer,
                        const Counters& c) {
  for (const char* name :
       {"serve.admission.admitted", "serve.batcher.batches_out",
        "serve.scheduler.dispatches", "serve.scheduler.stolen_batches",
        "serve.scheduler.model_uploads", "serve.worker_pool.jobs_submitted"}) {
    put_counter(layer, c, name);
  }
  if (const auto shed = c.sum_prefix("serve.admission.shed.")) {
    layer["serve.admission.shed"] = static_cast<double>(*shed);
  }
  const auto dispatches = c.get("serve.scheduler.dispatches");
  if (dispatches) {
    layer["accel.run_calls"] = static_cast<double>(
        *dispatches + c.get("serve.worker_pool.jobs_submitted").value_or(0));
  }
}

// ------------------------------------------------------------ table1_cold

/// Table I FPGA protocol: every suite task's test split streamed through
/// a powered-on device (model upload included) at 25/50/75/100 MHz,
/// plain and with ITH, on one host thread with no cycle cache.
class Table1Cold final : public Workload {
 public:
  void setup(const Suite& suite, const Probe& probe) override {
    suite_ = &suite;
    devices_.clear();
    for (const bool ith : {false, true}) {
      for (const runtime::TaskArtifacts& art : suite) {
        const accel::DeviceProgram program = probe.call("accel.compile", [&] {
          return accel::compile_model(art.model, ith ? &art.ith : nullptr);
        });
        for (std::size_t c = 0; c < kClocks; ++c) {
          accel::AccelConfig cfg;
          cfg.clock_hz = clock_hz(c);
          cfg.ith_enabled = ith;
          devices_.emplace_back(cfg, program);
        }
      }
    }
  }

  PassResult pass(const Probe& probe, obs::MetricsRegistry*) override {
    PassResult out;
    const power::FpgaPowerModel power;
    const std::size_t tasks = suite_->size();
    const std::vector<sim::Cycle> slo = mixed_slos(tasks);
    const bool keep_predictions = predictions_.empty();
    double busy_s = 0.0;
    double cycles = 0.0;
    double ops = 0.0;
    double probes = 0.0;
    double link_cycles = 0.0;
    double stories = 0.0;
    // The paper's 100 MHz + ITH row: the simulated figures users read.
    double row_stories = 0.0;
    double row_seconds = 0.0;
    double row_joules = 0.0;
    double row_correct = 0.0;
    double row_hits = 0.0;
    std::vector<double> row_service_ms;
    Digest digest;

    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      const accel::Accelerator& device = devices_[i];
      const std::size_t task = (i / kClocks) % tasks;
      const runtime::TaskArtifacts& art = (*suite_)[task];
      const std::int64_t t0 = now_ns();
      const accel::RunResult run = device.run(art.dataset.test);
      const std::int64_t t1 = now_ns();
      probe.record("accel.run", t0, t1);
      const power::FpgaPowerReport energy = probe.call("power.estimate", [&] {
        return power.estimate(run, device.config().clock_hz);
      });

      const double n = static_cast<double>(art.dataset.test.size());
      busy_s += seconds_between(t0, t1);
      out.op_us.push_back(static_cast<double>(t1 - t0) * 1e-3 / n);
      cycles += static_cast<double>(run.total_cycles);
      ops += static_cast<double>(run.total_ops.total());
      link_cycles += static_cast<double>(run.link_active_cycles);
      stories += n;
      out.ledger.offered += art.dataset.test.size();

      digest.add(run.total_cycles).add(run.seconds).add(run.stream_words);
      digest.add(run.link_active_cycles);
      digest.add(run.total_ops.mac).add(run.total_ops.add);
      digest.add(run.total_ops.exp).add(run.total_ops.div);
      digest.add(run.total_ops.mem_read).add(run.total_ops.mem_write);
      digest.add(run.total_ops.compare);
      for (const sim::FifoStats& f : {run.fifo_in_stats, run.fifo_out_stats}) {
        digest.add(f.pushes).add(f.pops).add(f.full_rejects);
        digest.add(f.max_occupancy);
      }
      for (const accel::ModuleReport& m : run.modules) {
        digest.add(m.stats.busy_cycles).add(m.stats.stall_cycles);
        digest.add(m.stats.ops.total());
      }
      digest.add(energy.seconds).add(energy.dynamic_joules);
      digest.add(energy.clock_joules).add(energy.static_joules);
      digest.add(energy.link_joules).add(energy.total_joules);
      digest.add(energy.mean_watts);

      const bool paper_row = device.config().ith_enabled &&
                             device.config().clock_hz == clock_hz(kClocks - 1);
      if (keep_predictions) {
        predictions_.emplace_back();
      }
      sim::Cycle previous = 0;
      for (std::size_t s = 0; s < run.stories.size(); ++s) {
        const accel::StoryOutcome& o = run.stories[s];
        digest.add(o.prediction).add(o.output_probes).add(o.early_exit);
        digest.add(o.finish_cycle);
        probes += static_cast<double>(o.output_probes);
        if (o.prediction >= 0) {
          ++out.ledger.completed;
        }
        if (keep_predictions) {
          predictions_.back().push_back(o.prediction);
        }
        if (paper_row) {
          // Streamed protocol: a story's device service time is the gap
          // between consecutive answers (the first includes the upload).
          const sim::Cycle service = o.finish_cycle - previous;
          previous = o.finish_cycle;
          row_service_ms.push_back(static_cast<double>(service) /
                                   device.config().clock_hz * 1e3);
          row_hits += service <= slo[task] ? 1.0 : 0.0;
          row_correct += o.prediction == art.dataset.test[s].answer ? 1.0 : 0.0;
        }
      }
      if (paper_row) {
        row_stories += n;
        row_seconds += run.seconds;
        row_joules += energy.total_joules;
      }
    }
    out.start_ns = start;
    out.end_ns = now_ns();
    out.ledger.unresolved = out.ledger.offered - out.ledger.completed;
    out.digest = digest.value();

    out.sim["sim_stories_per_s"] = row_stories / row_seconds;
    out.sim["sim_p99_ms"] = percentile(row_service_ms, 99.0);
    out.sim["sim_mj_per_inference"] = row_joules / row_stories * 1e3;
    out.sim["sim_deadline_hit_rate"] = row_hits / row_stories;
    out.sim["accuracy"] = row_correct / row_stories;

    out.layer["accel.run_calls"] = static_cast<double>(devices_.size());
    out.layer["accel.run_busy_s"] = busy_s;
    out.layer["accel.sim_cycles_per_host_s"] = cycles / busy_s;
    out.layer["accel.ops_per_story"] = ops / stories;
    out.layer["accel.output_probes_per_story"] = probes / stories;
    out.layer["accel.link_active_frac"] = link_cycles / cycles;
    return out;
  }

  /// Device predictions must agree with the software reference on at
  /// least 95% of stories in every (clock, ITH) row — the tolerance the
  /// accelerator tests use. The reference is MemN2N::predict for the plain
  /// rows and the software ITH path for the ITH rows (thresholding may
  /// stop before the float argmax by design).
  std::vector<std::string> final_checks() override {
    std::vector<std::string> errors;
    const std::size_t tasks = suite_->size();
    // reference[ith][task][story]
    std::vector<std::vector<std::int32_t>> reference[2];
    for (const bool ith : {false, true}) {
      for (const runtime::TaskArtifacts& art : *suite_) {
        std::vector<std::int32_t>& answers = reference[ith].emplace_back();
        for (const data::EncodedStory& story : art.dataset.test) {
          answers.push_back(static_cast<std::int32_t>(
              ith ? art.ith.predict(art.model, story).prediction
                  : art.model.predict(story)));
        }
      }
    }
    std::vector<double> agree(2 * kClocks, 0.0);
    std::vector<double> total(2 * kClocks, 0.0);
    for (std::size_t i = 0; i < predictions_.size(); ++i) {
      const std::size_t task = (i / kClocks) % tasks;
      const std::size_t ith = i / (kClocks * tasks);
      const std::size_t row = ith * kClocks + i % kClocks;
      const std::vector<std::int32_t>& device = predictions_[i];
      const std::vector<std::int32_t>& expected = reference[ith][task];
      if (device.size() != expected.size()) {
        errors.push_back("table1: device answered " +
                         std::to_string(device.size()) + " of " +
                         std::to_string(expected.size()) + " stories");
        continue;
      }
      for (std::size_t s = 0; s < device.size(); ++s) {
        agree[row] += device[s] == expected[s] ? 1.0 : 0.0;
        total[row] += 1.0;
      }
    }
    for (std::size_t row = 0; row < agree.size(); ++row) {
      const double share = total[row] > 0 ? agree[row] / total[row] : 0.0;
      if (share < 0.95) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "table1: %g MHz%s agrees with the software reference "
                      "on %.2f%% of stories (< 95%%)",
                      clock_hz(row % kClocks) / 1e6,
                      row >= kClocks ? " + ITH" : "", share * 100.0);
        errors.emplace_back(buf);
      }
    }
    return errors;
  }

 private:
  static constexpr std::size_t kClocks = 4;
  static double clock_hz(std::size_t c) {
    return 25.0e6 * static_cast<double>(c + 1);
  }

  const Suite* suite_ = nullptr;
  /// Index = (ith * tasks + task) * kClocks + clock.
  std::vector<accel::Accelerator> devices_;
  std::vector<std::vector<std::int32_t>> predictions_;  ///< first pass
};

// --------------------------------------------------- serve_cold / warm

/// One ServerSession over the suite: 4 dedicated devices, B=8, mixed
/// 3/30 ms SLOs, the 3-tenant QoS mix under admission and WFQ, fed a
/// seeded bursty schedule open-loop in lockstep over a benchmark-owned
/// cycle cache: serve_cold starts each pass from an empty cache (every
/// dispatch simulates and publishes), serve_warm from the cache a fill
/// pass saved (every dispatch replays, on the driving thread).
class Serve final : public Workload {
 public:
  Serve(bool warm, std::uint64_t seed, Sizes sizes, HostThreads threads)
      : warm_(warm),
        seed_(seed),
        sizes_(std::move(sizes)),
        workers_(!warm && threads == HostThreads::kParallel ? kWorkers : 0) {}

  [[nodiscard]] std::string host_threads() const override {
    return "workers=" + std::to_string(workers_);
  }

  ~Serve() override {
    if (!cache_path_.empty()) {
      std::error_code ec;
      std::filesystem::remove(cache_path_, ec);
    }
  }

  void setup(const Suite& suite, const Probe& probe) override {
    models_ = compile_models(suite, probe);
    probe.call("bench.schedule", [&] { build_schedule(); });
  }

  /// serve_warm: an untimed fill pass on the serve_cold configuration
  /// saves its cycle cache; its report is the reference every warm pass
  /// must reproduce from cache replay alone.
  void prepare() override {
    if (!warm_) {
      return;
    }
    std::filesystem::create_directories(sizes_.scratch_dir);
    cache_path_ = sizes_.scratch_dir + "/serve_warm_seed" +
                  std::to_string(seed_) + ".cycles";
    PassResult fill = run(Probe{}, nullptr, /*fill=*/true);
    fill_digest_ = fill.digest;
    fill_errors_ = std::move(fill.errors);
  }

  PassResult pass(const Probe& probe, obs::MetricsRegistry* registry) override {
    PassResult out = run(probe, registry, /*fill=*/false);
    if (warm_ && out.digest != fill_digest_) {
      out.errors.emplace_back(
          "serve_warm: cache-replayed report differs from the fresh "
          "simulation of the same schedule");
    }
    return out;
  }

  std::vector<std::string> final_checks() override { return fill_errors_; }

 private:
  /// WorkerPool threads of serve_cold's traced run and of serve_warm's
  /// untimed fill pass: 3 workers plus the driving thread fit 4 cores, and
  /// serve_warm then checks sequential cache replay against speculatively
  /// simulated results. The end-to-end passes run none: with 3 workers the
  /// pass wall tracked the host's CPU steal (0.4-19% across runs on a
  /// shared 4-vCPU host), and stories per host second had an IQR/median of
  /// 0.44 over 10 seeds.
  static constexpr std::size_t kWorkers = 3;
  /// Larger than the distinct simulations of a pass: never evicts.
  static constexpr std::size_t kCacheCapacity = 1U << 16;

  /// Interactive, standard and batch tenants. The batch tenant offers
  /// half the traffic under a token-bucket quota with 3x headroom over its
  /// share: admission checks every arrival, and a shed counts as a failed
  /// operation.
  static std::vector<serve::TenantConfig> qos_tenants() {
    std::vector<serve::TenantConfig> tenants(3);
    tenants[0].tier = 0;
    tenants[0].weight = 4.0;
    tenants[1].tier = 1;
    tenants[1].weight = 2.0;
    tenants[2].tier = 2;
    tenants[2].weight = 1.0;
    tenants[2].traffic_share = 2.0;
    tenants[2].quota_interarrival_cycles = 1'600.0;
    tenants[2].quota_burst = 256.0;
    return tenants;
  }

  void build_schedule() {
    serve::TrafficConfig traffic;
    traffic.process = serve::ArrivalProcess::kBursty;
    // Below the 4 devices' capacity. At a 1200-cycle gap the pool
    // saturates: deadline misses, p99 and sheds then swing with the
    // seed, and a run's simulated figures stop being comparable.
    traffic.mean_interarrival_cycles = 2'400.0;
    traffic.slo.per_task = mixed_slos(models_.size());
    traffic.tenants = qos_tenants();
    traffic.seed = seed_;
    std::vector<serve::TaskWorkload> workloads;
    for (std::size_t t = 0; t < models_.size(); ++t) {
      workloads.push_back({t, models_[t].stories});
    }
    serve::TrafficGenerator generator(traffic, std::move(workloads),
                                      sizes_.arrivals);
    schedule_.clear();
    while (generator.next_arrival() != sim::kNever) {
      const std::optional<serve::InferenceRequest> r =
          generator.poll(generator.next_arrival());
      if (!r) {
        break;
      }
      schedule_.push_back(to_submit(*r));
    }

    accel::AccelConfig accel;
    accel.clock_hz = kClockHz;
    serve::AdmissionConfig admission;
    admission.enforce_quotas = true;
    admission.shed_doomed = true;
    admission.overload_pending_requests = 1'024;
    admission.overload_watermark = 0.70;
    serve::BatcherConfig batcher;
    batcher.max_batch = 8;
    batcher.max_wait_cycles = 200'000;
    serve::SchedulerConfig scheduler;
    scheduler.devices = 4;
    scheduler.dedicated_devices = 4;
    serve::SloConfig slo;
    slo.per_task = mixed_slos(models_.size());
    config_ = serve::ServingOptions()
                  .accel(accel)
                  .admission(admission)
                  .batcher(batcher)
                  .scheduler(scheduler)
                  .tenants(qos_tenants())
                  .slo(std::move(slo))
                  .policy(serve::SchedulerPolicy::kWfq)
                  .build();
  }

  PassResult run(const Probe& probe, obs::MetricsRegistry* registry,
                 bool fill) {
    const bool replay = warm_ && !fill;
    PassResult out;
    std::vector<std::uint64_t> ids;
    ids.reserve(schedule_.size());
    std::vector<serve::Completion> stream;
    stream.reserve(schedule_.size());
    out.op_us.reserve(schedule_.size());
    double submit_s = 0.0;
    double step_s = 0.0;
    double poll_s = 0.0;
    const auto poll = [&](serve::ServerSession& session) {
      const std::int64_t t0 = now_ns();
      std::vector<serve::Completion> window = session.poll_completions();
      const std::int64_t t1 = now_ns();
      probe.record("serve.poll_completions", t0, t1);
      poll_s += seconds_between(t0, t1);
      for (serve::Completion& c : window) {
        stream.push_back(std::move(c));
      }
    };

    const double cpu0 = cpu_seconds();
    const std::int64_t start = now_ns();
    auto cache = std::make_unique<accel::ServiceCycleCache>(kCacheCapacity,
                                                            registry);
    double load_s = 0.0;
    if (replay) {
      const std::int64_t t0 = now_ns();
      const std::size_t loaded = cache->load(cache_path_);
      const std::int64_t t1 = now_ns();
      probe.record("accel.cycle_cache.load", t0, t1);
      load_s = seconds_between(t0, t1);
      if (loaded == 0) {
        out.errors.emplace_back(
            "serve_warm: the saved cycle cache loaded no entries");
      }
    }
    serve::ServerConfig config = config_;
    config.metrics = registry;
    config.scheduler.cycle_cache = cache.get();
    set_workers(config.scheduler, fill ? kWorkers : workers_);
    auto session = probe.call("serve.construct", [&] {
      return std::make_unique<serve::ServerSession>(config, models_);
    });
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      const std::int64_t t0 = now_ns();
      (void)session->step_until(schedule_[i].at_cycle);
      const std::int64_t t1 = now_ns();
      ids.push_back(session->submit(schedule_[i]));
      const std::int64_t t2 = now_ns();
      probe.record("serve.step_until", t0, t1);
      probe.record("serve.submit", t1, t2);
      step_s += seconds_between(t0, t1);
      submit_s += seconds_between(t1, t2);
      out.op_us.push_back(static_cast<double>(t2 - t0) * 1e-3);
      if ((i + 1) % kPollEvery == 0) {
        poll(*session);
      }
    }
    session->drain();
    const std::int64_t d0 = now_ns();
    (void)session->step_until(sim::kNever);
    const std::int64_t d1 = now_ns();
    probe.record("serve.step_until", d0, d1);
    step_s += seconds_between(d0, d1);
    poll(*session);
    const std::int64_t f0 = now_ns();
    const serve::ServingReport report = session->finalize();
    const std::int64_t f1 = now_ns();
    probe.record("serve.finalize", f0, f1);
    poll(*session);
    const accel::ServiceCycleCacheStats stats =
        probe.call("accel.cycle_cache.stats", [&] { return cache->stats(); });
    out.start_ns = start;
    out.end_ns = now_ns();
    const double cpu_s = cpu_seconds() - cpu0;

    std::vector<Resolution> resolved;
    resolved.reserve(stream.size());
    Digest digest;
    for (const serve::Completion& c : stream) {
      resolved.push_back(
          {c.response.id, c.cycle, serve::outcome_is_shed(c.outcome)});
      add_completion(digest, c);
    }
    add_report(digest, report);
    out.digest = digest.value();
    out.ledger = audit_ledger(ids, resolved);
    out.errors = out.ledger.errors;
    if (report.offered != schedule_.size() ||
        report.completed != out.ledger.completed ||
        report.rejected != out.ledger.shed) {
      out.errors.emplace_back(
          "serve: report totals disagree with the completion stream");
    }
    if (replay && (stats.misses != 0 || stats.waits != 0)) {
      out.errors.push_back("serve_warm: " +
                           std::to_string(stats.misses + stats.waits) +
                           " dispatches missed the loaded cycle cache");
    }
    if (fill) {
      const std::size_t saved = cache->save(cache_path_);
      if (saved == 0) {
        out.errors.emplace_back(
            "serve_warm: the fill pass saved no cache entries");
      }
    }

    out.sim = serving_sim_metrics(report.throughput_stories_per_second,
                                  report.latency, report.energy,
                                  report.deadline_hit_rate, report.accuracy);
    put_cache_stats(out.layer, static_cast<double>(stats.hits),
                    static_cast<double>(stats.misses),
                    static_cast<double>(stats.waits),
                    static_cast<double>(stats.evictions));
    out.layer["accel.cycle_cache.load_s"] = load_s;
    out.layer["serve.submit_busy_s"] = submit_s;
    out.layer["serve.step_busy_s"] = step_s;
    out.layer["serve.poll_busy_s"] = poll_s;
    out.layer["serve.finalize_s"] = seconds_between(f0, f1);
    out.layer["serve.cpu_per_wall"] = cpu_s / out.wall_s();
    if (const auto useful = speculation_useful_frac(report)) {
      out.layer["serve.speculation.useful_frac"] = *useful;
    }
    if (registry != nullptr) {
      const Counters counters(*registry);
      put_serve_counters(out.layer, counters);
      if (const auto dispatches = counters.get("serve.scheduler.dispatches")) {
        out.layer["serve.decisions_per_host_s"] =
            static_cast<double>(schedule_.size() + *dispatches) /
            (submit_s + step_s);
      }
    }
    return out;
  }

  bool warm_;
  std::uint64_t seed_;
  Sizes sizes_;
  std::size_t workers_;  ///< of the timed passes
  std::vector<serve::ServedModel> models_;
  std::vector<serve::SubmitRequest> schedule_;
  serve::ServerConfig config_;
  std::string cache_path_;
  std::uint64_t fill_digest_ = 0;
  std::vector<std::string> fill_errors_;
};

// ----------------------------------------------------------- fleet_diurnal

/// The committed diurnal trace amplified x10 with the bench seed, routed
/// power-of-two-choices over 4 instances x 8 devices that share a fresh
/// cycle cache of 8 segments.
class FleetDiurnal final : public Workload {
 public:
  FleetDiurnal(std::uint64_t seed, Sizes sizes, HostThreads threads)
      : seed_(seed),
        sizes_(std::move(sizes)),
        fleet_threads_(threads == HostThreads::kParallel ? kParallelThreads
                                                         : 1) {}

  [[nodiscard]] std::string host_threads() const override {
    return "fleet_threads=" + std::to_string(fleet_threads_);
  }

  void setup(const Suite& suite, const Probe& probe) override {
    models_ = compile_models(suite, probe);
    probe.call("bench.schedule", [&] { build_schedule(); });
  }

  PassResult pass(const Probe& probe, obs::MetricsRegistry* registry) override {
    PassResult out;
    std::vector<std::uint64_t> ids;
    ids.reserve(schedule_.size());
    std::vector<cluster::ClusterCompletion> stream;
    stream.reserve(schedule_.size());
    out.op_us.reserve(schedule_.size());
    std::vector<double> step_us;
    std::vector<double> submit_us;
    step_us.reserve(schedule_.size());
    submit_us.reserve(schedule_.size());
    std::uint64_t refused = 0;
    double step_s = 0.0;
    const auto poll = [&](cluster::Cluster& fleet) {
      std::vector<cluster::ClusterCompletion> window = probe.call(
          "cluster.poll_completions", [&] { return fleet.poll_completions(); });
      for (cluster::ClusterCompletion& c : window) {
        stream.push_back(std::move(c));
      }
    };

    cluster::ClusterConfig config = config_;
    config.server.metrics = registry;
    const double cpu0 = cpu_seconds();
    const std::int64_t start = now_ns();
    auto fleet = probe.call("cluster.construct", [&] {
      return std::make_unique<cluster::Cluster>(config, models_);
    });
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      const std::int64_t t0 = now_ns();
      (void)fleet->step_until(schedule_[i].at_cycle);
      const std::int64_t t1 = now_ns();
      const cluster::Cluster::Submission sub = fleet->submit(schedule_[i]);
      const std::int64_t t2 = now_ns();
      probe.record("cluster.step_until", t0, t1);
      probe.record("cluster.submit", t1, t2);
      step_s += seconds_between(t0, t1);
      step_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      submit_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
      out.op_us.push_back(static_cast<double>(t2 - t0) * 1e-3);
      if (sub.instance) {
        ids.push_back(sub.id);
      } else {
        ++refused;
      }
      if ((i + 1) % kPollEvery == 0) {
        poll(*fleet);
      }
    }
    fleet->drain();
    const std::int64_t d0 = now_ns();
    (void)fleet->step_until(sim::kNever);
    const std::int64_t d1 = now_ns();
    probe.record("cluster.step_until", d0, d1);
    step_s += seconds_between(d0, d1);
    poll(*fleet);
    const cluster::ClusterReport report =
        probe.call("cluster.finalize", [&] { return fleet->finalize(); });
    out.start_ns = start;
    out.end_ns = now_ns();
    const double cpu_s = cpu_seconds() - cpu0;

    std::vector<Resolution> resolved;
    resolved.reserve(stream.size());
    Digest digest;
    for (const cluster::ClusterCompletion& c : stream) {
      resolved.push_back({c.completion.response.id, c.completion.cycle,
                          serve::outcome_is_shed(c.completion.outcome)});
      digest.add(c.instance);
      add_completion(digest, c.completion);
    }
    digest.add(report.instances).add(report.offered).add(report.completed);
    digest.add(report.rejected).add(report.router_shed);
    digest.add(report.makespan_cycles).add(report.seconds);
    digest.add(report.throughput_stories_per_second);
    add_latency(digest, report.latency);
    add_latency(digest, report.queue_wait);
    digest.add(report.deadline_total).add(report.deadline_missed);
    digest.add(report.deadline_hit_rate).add(report.instance_fairness);
    digest.add(report.model_uploads).add(report.warm_dispatch_rate);
    add_energy(digest, report.energy);
    digest.add(report.mean_active_instances).add(report.scale_ups);
    digest.add(report.scale_downs);
    double correct = 0.0;
    double completed = 0.0;
    for (const cluster::InstanceReport& ir : report.instance_reports) {
      digest.add(ir.id).add(ir.routed).add(ir.active_cycles);
      add_report(digest, ir.report);
      correct += ir.report.accuracy * static_cast<double>(ir.report.completed);
      completed += static_cast<double>(ir.report.completed);
    }
    out.digest = digest.value();
    out.ledger = audit_ledger(ids, resolved, refused);
    out.errors = out.ledger.errors;
    if (report.offered != schedule_.size() ||
        report.completed != out.ledger.completed) {
      out.errors.emplace_back(
          "fleet: report totals disagree with the completion stream");
    }

    out.sim = serving_sim_metrics(report.throughput_stories_per_second,
                                  report.latency, report.energy,
                                  report.deadline_hit_rate,
                                  completed > 0 ? correct / completed : 0.0);
    out.layer["cluster.submit_p50_us"] = median(std::move(submit_us));
    out.layer["cluster.step_p50_us"] = median(std::move(step_us));
    out.layer["cluster.step_busy_s"] = step_s;
    out.layer["cluster.cpu_per_wall"] = cpu_s / out.wall_s();
    out.layer["cluster.warm_dispatch_rate"] = report.warm_dispatch_rate;
    out.layer["cluster.instance_fairness"] = report.instance_fairness;
    if (registry != nullptr) {
      const Counters counters(*registry);
      put_serve_counters(out.layer, counters);
      put_counter(out.layer, counters, "cluster.fleet_pool.rounds");
      put_counter(out.layer, counters, "cluster.fleet_pool.tasks");
      const auto count = [&](const char* name) {
        return static_cast<double>(counters.get(name).value_or(0));
      };
      if (counters.get("accel.cycle_cache.hits")) {
        put_cache_stats(out.layer, count("accel.cycle_cache.hits"),
                        count("accel.cycle_cache.misses"),
                        count("accel.cycle_cache.waits"),
                        count("accel.cycle_cache.evictions"));
      }
    }
    return out;
  }

 private:
  static constexpr std::size_t kInstances = 4;
  /// Fleet threads of the traced run, one per instance: its per-layer
  /// figures then cover the FleetPool's ~20k barrier rounds per pass. The
  /// end-to-end passes step the instances on the driving thread: at 4
  /// fleet threads the pass wall swung 2-3x between runs on a shared
  /// 4-vCPU host (stories per host second: IQR/median 0.33 over 10 seeds;
  /// 0.76 at 2 threads), too wide for any regression bound.
  static constexpr std::size_t kParallelThreads = 4;
  static constexpr std::size_t kCacheSegments = 8;

  void build_schedule() {
    std::vector<serve::TraceEntry> trace =
        serve::scale_trace(serve::load_trace_csv(sizes_.trace_path),
                           sizes_.fleet_scale, seed_);
    serve::TenantId max_tenant = 0;
    for (serve::TraceEntry& e : trace) {
      e.task %= models_.size();
      max_tenant = std::max(max_tenant, e.tenant);
    }
    schedule_.clear();
    for (const serve::TraceEntry& e : trace) {
      serve::SubmitRequest s;
      s.task = e.task;
      s.tenant = e.tenant;
      s.at_cycle = e.arrival_cycle;
      schedule_.push_back(s);  // deadline from the SLO table
    }

    accel::AccelConfig accel;
    accel.clock_hz = kClockHz;
    serve::BatcherConfig batcher;
    batcher.max_batch = 8;
    batcher.max_wait_cycles = 200'000;
    serve::SchedulerConfig scheduler;
    scheduler.devices = 8;
    serve::SloConfig slo;
    slo.per_task = mixed_slos(models_.size());
    config_ = cluster::ClusterConfig{};
    config_.instances = kInstances;
    std::vector<serve::TenantConfig> tenants(max_tenant + 1);
    config_.server = serve::ServingOptions()
                         .accel(accel)
                         .batcher(batcher)
                         .scheduler(scheduler)
                         .tenants(std::move(tenants))
                         .slo(std::move(slo))
                         .build();
    config_.router.kind = cluster::RouterPolicyKind::kPowerOfTwo;
    set_fleet_threads(config_, fleet_threads_);
    set_cache_segments(config_, kCacheSegments);
  }

  std::uint64_t seed_;
  Sizes sizes_;
  std::size_t fleet_threads_;
  std::vector<serve::ServedModel> models_;
  std::vector<serve::SubmitRequest> schedule_;
  cluster::ClusterConfig config_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"table1_cold", "serve_cold",
                                                 "serve_warm", "fleet_diurnal"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, const Sizes& sizes,
                                        HostThreads threads) {
  if (name == "table1_cold") {
    return std::make_unique<Table1Cold>();
  }
  if (name == "serve_cold" || name == "serve_warm") {
    return std::make_unique<Serve>(name == "serve_warm", seed, sizes, threads);
  }
  if (name == "fleet_diurnal") {
    return std::make_unique<FleetDiurnal>(seed, sizes, threads);
  }
  return nullptr;
}

}  // namespace perfbench
