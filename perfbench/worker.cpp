// Benchmark worker: runs ONE repetition of one benchmark workload in this
// process and prints one JSON object of raw measurements on stdout. The
// orchestrator (run.py) starts one worker process per repetition, so the
// CPU time and peak RSS a repetition reports describe that workload alone,
// and aggregates the repetitions into the reported metrics.
//
//   perfbench_worker --workload NAME --seed N [--trace]
//   perfbench_worker --smoke GOLDEN_CSV
//
// Workloads (see README.md for why each exists):
//   paper_table1         Table 1 at full scale: 75,000 one-shot CT
//                        executions + 30,000 SAN replications, fanned out
//                        over a ReplicationRunner after make_context.
//   stream_racks_faults  one open-loop Chandra-Toueg stream, n = 7, two
//                        racks, heartbeat FD, durable log, batching, and a
//                        seeded Weibull crash/recover plan + kill_rack +
//                        loss window.
//
// --trace runs the untraced timed phase first (the digest and event-count
// baseline and the denominator of trace.overhead_share), then times calls
// into each layer's public functions from outside. The one-shot campaign
// is rebuilt here from public classes, with a timing subclass of the
// consensus layer and every simulator step timed and classified, so its
// cells must reproduce the untraced run exactly; stream_racks_faults is
// covered by whole-call timings and separate drives of its layers.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "consensus/ct_consensus.hpp"
#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "core/measurement.hpp"
#include "core/replication.hpp"
#include "core/simulation.hpp"
#include "core/workload.hpp"
#include "des/simulator.hpp"
#include "faults/lowering.hpp"
#include "faults/plan.hpp"
#include "faults/synth.hpp"
#include "fd/failure_detector.hpp"
#include "fd/heartbeat_fd.hpp"
#include "runtime/cluster.hpp"
#include "stats/ecdf.hpp"
#include "topo/topology.hpp"

namespace {

using namespace sanperf;
using Clock = std::chrono::steady_clock;

std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
}
double to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Peak resident set of this process image in MiB. VmHWM, unlike
/// getrusage's ru_maxrss, starts afresh at exec, so the parent's footprint
/// at fork time does not leak into a repetition's figure.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return std::nan("");
}

std::string fmt17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// The worker's output object: keys in insertion order, values as raw JSON.
class JsonObject {
 public:
  void num(const std::string& key, double v) {
    fields_.emplace_back(key, std::isfinite(v) ? fmt17(v) : "null");
  }
  void count(const std::string& key, std::uint64_t v) {
    fields_.emplace_back(key, std::to_string(v));
  }
  void boolean(const std::string& key, bool v) { fields_.emplace_back(key, v ? "true" : "false"); }
  void str(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, json_string(v));
  }
  void raw(const std::string& key, std::string json) { fields_.emplace_back(key, std::move(json)); }
  [[nodiscard]] std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += json_string(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_int_array(const std::vector<std::int64_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  return out + "]";
}

// --- Per-layer timing hooks ----------------------------------------------------

/// Consensus handler time on the current thread. Nested handler calls (a
/// layer re-entering itself) count as calls but add no time twice.
struct HandlerClock {
  std::uint64_t calls = 0;
  std::uint64_t messages = 0;  ///< on_message calls
  std::int64_t ns = 0;
  int depth = 0;
};
thread_local HandlerClock tl_handler;

class HandlerSpan {
 public:
  HandlerSpan() {
    ++tl_handler.calls;
    if (tl_handler.depth++ == 0) start_ = Clock::now();
  }
  ~HandlerSpan() {
    if (--tl_handler.depth == 0) tl_handler.ns += ns_since(start_);
  }
  HandlerSpan(const HandlerSpan&) = delete;
  HandlerSpan& operator=(const HandlerSpan&) = delete;

 private:
  Clock::time_point start_{};
};

/// The Chandra-Toueg layer with its message handler and propose entry
/// point timed. propose is not virtual: the harness below calls it through
/// the derived type, so the hiding overload is the one that runs.
class TimedCt : public consensus::CtConsensus {
 public:
  using consensus::CtConsensus::CtConsensus;
  void on_message(const runtime::Message& m) override {
    ++tl_handler.messages;
    HandlerSpan span;
    consensus::CtConsensus::on_message(m);
  }
  void propose(std::int32_t cid, std::int64_t value) {
    HandlerSpan span;
    consensus::CtConsensus::propose(cid, value);
  }
};

/// What the simulator step being executed on this thread turned out to be,
/// set by the hooks it runs through.
enum class StepKind : std::uint8_t { kNetwork, kDelivery, kEngine };
thread_local StepKind g_step_kind = StepKind::kNetwork;

/// The class-1 static detector, marking the step that delivers a message.
/// It is the bottom layer, so every delivery passes through it first.
class MarkingStaticFd : public fd::StaticFd {
 public:
  using fd::StaticFd::StaticFd;
  void on_message(const runtime::Message& m) override {
    g_step_kind = StepKind::kDelivery;
    fd::StaticFd::on_message(m);
  }
};

/// Step-level figures of the simulators a traced run drove.
struct StepTally {
  std::vector<std::uint64_t> pending_counts;  ///< index = pending-set size before a step
  std::uint64_t events = 0;
  std::uint64_t net_events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t frames = 0;
  std::int64_t step_ns = 0;
  std::int64_t net_ns = 0;
  std::int64_t delivery_ns = 0;
  double medium_busy_ms = 0;
  double sim_ms = 0;

  void merge(const StepTally& o) {
    if (o.pending_counts.size() > pending_counts.size()) {
      pending_counts.resize(o.pending_counts.size());
    }
    for (std::size_t i = 0; i < o.pending_counts.size(); ++i) {
      pending_counts[i] += o.pending_counts[i];
    }
    events += o.events;
    net_events += o.net_events;
    deliveries += o.deliveries;
    frames += o.frames;
    step_ns += o.step_ns;
    net_ns += o.net_ns;
    delivery_ns += o.delivery_ns;
    medium_busy_ms += o.medium_busy_ms;
    sim_ms += o.sim_ms;
  }
};

/// core::detail::run_one_consensus_execution<TimedCt> for the Table 1
/// case (no fault plan, hub network), rebuilt from public runtime / fd /
/// consensus classes: the same cluster, layers, RNG draws and scheduling
/// calls in the same order, and runtime::Cluster::run_until's loop, so the
/// outcome is the library's. Each simulator step is timed and classified.
core::ExecOutcome stepped_one_shot(std::size_t n, const net::NetworkParams& params,
                                   const net::TimerModel& timers, int initially_crashed,
                                   std::size_t k, std::uint64_t exec_seed, StepTally& tally) {
  runtime::ClusterConfig cfg;
  cfg.n = n;
  cfg.network = params;
  cfg.timers = timers;
  cfg.seed = exec_seed;
  runtime::Cluster cluster{cfg};
  des::Simulator& sim = cluster.sim();

  std::set<runtime::HostId> suspected;
  if (initially_crashed >= 0) suspected.insert(static_cast<runtime::HostId>(initially_crashed));

  std::optional<des::TimePoint> first_decide;
  std::int32_t first_rounds = 0;
  for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(n); ++pid) {
    auto& proc = cluster.process(pid);
    auto& fd_layer = proc.add_layer<MarkingStaticFd>(suspected);
    auto& cons = proc.add_layer<TimedCt>(fd_layer);
    cons.set_decide_callback([&](const consensus::DecisionEvent& ev) {
      if (!first_decide || ev.at < *first_decide) {
        first_decide = ev.at;
        first_rounds = ev.round;
      }
    });
  }
  if (initially_crashed >= 0) {
    cluster.crash_initially(static_cast<runtime::HostId>(initially_crashed));
  }

  const des::TimePoint t0 = des::TimePoint::origin() + des::Duration::from_ms(1.0);
  auto skew_rng = cluster.rng_stream("ntp-skew");
  for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(n); ++pid) {
    auto& proc = cluster.process(pid);
    if (proc.crashed()) continue;
    const des::TimePoint start = t0 + des::Duration::from_ms(skew_rng.uniform(0.0, 0.05));
    sim.schedule_at(start, [&proc, k] {
      g_step_kind = StepKind::kEngine;
      proc.layer<TimedCt>().propose(static_cast<std::int32_t>(k), 1 + proc.id());
    });
  }

  const des::TimePoint deadline = t0 + des::Duration::from_ms(1000.0);
  // Starts the processes without executing an event.
  cluster.run_until([] { return true; }, deadline);
  while (!first_decide && !sim.queue_empty() && sim.now() <= deadline) {
    const std::size_t size = sim.queue_size();
    if (size >= tally.pending_counts.size()) tally.pending_counts.resize(2 * size + 1);
    ++tally.pending_counts[size];
    g_step_kind = StepKind::kNetwork;
    const std::int64_t handler0 = tl_handler.ns;
    const auto start = Clock::now();
    sim.step();
    const std::int64_t d = ns_since(start);
    tally.step_ns += d;
    switch (g_step_kind) {
      case StepKind::kNetwork:
        tally.net_ns += d;
        ++tally.net_events;
        break;
      case StepKind::kDelivery:
        tally.delivery_ns += d - (tl_handler.ns - handler0);
        ++tally.deliveries;
        break;
      case StepKind::kEngine: break;
    }
  }
  tally.events += sim.events_processed();
  tally.frames += cluster.network().frames_sent();
  tally.medium_busy_ms += cluster.network().medium_busy_time().to_ms();
  tally.sim_ms += sim.now().to_ms();

  core::ExecOutcome out;
  if (first_decide) {
    out.latency_ms = (*first_decide - t0).to_ms();
    out.rounds = first_rounds;
  }
  return out;
}

/// The classic hold model: a pending set of `size` events where each
/// executed event schedules one successor an exponential delay ahead.
double hold_ns_per_op(std::size_t size, std::uint64_t seed) {
  des::Simulator sim{des::QueueBackend::kHeap};
  des::RandomEngine rng{seed};
  struct Hold {
    des::Simulator* sim;
    des::RandomEngine* rng;
    void operator()() const {
      sim->schedule(des::Duration::from_ms(rng->exponential_mean(1.0)), *this);
    }
  };
  const Hold hold{&sim, &rng};
  for (std::size_t i = 0; i < std::max<std::size_t>(size, 1); ++i) {
    sim.schedule(des::Duration::from_ms(rng.exponential_mean(1.0)), hold);
  }
  constexpr std::uint64_t kOps = 2'000'000;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kOps; ++i) sim.step();
  return static_cast<double>(ns_since(t0)) / static_cast<double>(kOps);
}

/// Nearest-rank q-quantile of a histogram whose index is the value.
std::size_t histogram_quantile(const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t value = 0; value < counts.size(); ++value) {
    seen += counts[value];
    if (seen >= rank) return value;
  }
  return 0;
}

// --- Output pieces shared by the workloads -------------------------------------

struct Result {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t instances = 0;  ///< consensus instances simulated in the timed phase
  std::uint64_t attempted = 0;  ///< user-visible operations attempted
  std::uint64_t failed = 0;     ///< of which never decided / dropped
  std::string digest;
  std::vector<std::string> violations;
  JsonObject info;  ///< workload-specific figures printed beside the metrics
};

/// Per-layer figures of a traced run: a value, or n/a with the reason.
class Layers {
 public:
  void set(const std::string& name, double v) { values_[name] = v; }
  void na(const std::string& name, const std::string& reason) { reasons_[name] = reason; }
  void samples(const std::string& name, std::vector<std::int64_t> ns) {
    samples_[name] = std::move(ns);
  }
  [[nodiscard]] std::string dump() const {
    JsonObject values;
    for (const auto& [k, v] : values_) values.num(k, v);
    JsonObject reasons;
    for (const auto& [k, v] : reasons_) reasons.str(k, v);
    JsonObject samples;
    for (const auto& [k, v] : samples_) samples.raw(k, json_int_array(v));
    JsonObject out;
    out.raw("values", values.dump());
    out.raw("na", reasons.dump());
    out.raw("samples", samples.dump());
    return out.dump();
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> reasons_;
  std::map<std::string, std::vector<std::int64_t>> samples_;
};

std::size_t bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

// --- paper_table1 ----------------------------------------------------------------

const std::vector<int> kCrashScenarios = {-1, 0, 1};

std::string table1_digest(const std::vector<core::Table1Cell>& cells) {
  std::ostringstream os;
  for (const core::Table1Cell& c : cells) {
    os << "table1 n=" << c.n << " crashed=" << c.crashed << " meas_mean=" << fmt17(c.meas.mean)
       << " meas_count=" << c.meas.count
       << " sim_mean=" << (c.sim ? fmt17(*c.sim) : std::string{"none"}) << "\n";
  }
  return os.str();
}

/// Mean relative gap between SAN and emulated means over the calibrated
/// cells (the paper's Section 5.2/5.3 validation).
double san_vs_emul_err(const std::vector<core::Table1Cell>& cells) {
  double sum = 0;
  std::size_t k = 0;
  for (const core::Table1Cell& c : cells) {
    if (!c.sim) continue;
    sum += std::abs(*c.sim - c.meas.mean) / c.meas.mean;
    ++k;
  }
  return k > 0 ? sum / static_cast<double>(k) : std::nan("");
}

void check_table1(const std::vector<core::Table1Cell>& cells, const core::Scale& scale,
                  Result& r) {
  std::size_t sim_cells = 0;
  for (const core::Table1Cell& c : cells) {
    r.failed += scale.class1_executions - c.meas.count;
    if (!(c.meas.mean > 0) || !std::isfinite(c.meas.mean)) {
      r.violations.push_back("table1 n=" + std::to_string(c.n) + ": bad measured mean");
    }
    if (c.sim) {
      ++sim_cells;
      if (!(*c.sim > 0) || !std::isfinite(*c.sim)) {
        r.violations.push_back("table1 n=" + std::to_string(c.n) + ": bad simulated mean");
      }
    }
  }
  if (cells.size() != scale.ns.size() * kCrashScenarios.size() || sim_cells != 6) {
    r.violations.push_back("table1: unexpected cell layout");
  }
  const double err = san_vs_emul_err(cells);
  // The repository's own golden check holds simulation within 25% of
  // measurement for the calibrated sizes.
  if (!(err < 0.25)) r.violations.push_back("table1: SAN vs emulation gap " + fmt17(err));
  r.info.num("san_vs_emul_err", err);
  r.attempted = cells.size() * scale.class1_executions + sim_cells * scale.sim_replications;
  r.instances = r.attempted;
  r.info.num("undecided_share", static_cast<double>(r.failed) / static_cast<double>(r.attempted));
  r.digest = table1_digest(cells);
}

/// The run_table1_cells campaign rebuilt from public pieces, with every
/// task timed and the one-shot executions stepped on the timed CT layer.
/// Groups, seeds and folds are the library's, so the cells must match bit
/// for bit.
std::vector<core::Table1Cell> traced_table1(const core::PaperContext& ctx,
                                            const core::ReplicationRunner& runner,
                                            Layers& layers) {
  struct GroupDesc {
    std::size_t cell = 0;
    const san::TransientStudy* study = nullptr;
  };
  struct Cell {
    core::ExecOutcome exec;
    std::optional<double> reward;
    std::int64_t ns = 0;
    std::int64_t handler_ns = 0;
    std::uint64_t handler_calls = 0;
    std::uint64_t messages = 0;
  };
  const auto seed_base = [](int crash) -> std::uint64_t {
    return crash == -1 ? 200 : crash == 0 ? 300 : 400;
  };

  core::ConsensusStudyBank bank;
  core::ShardSpace space;
  std::vector<GroupDesc> descs;
  std::vector<core::Table1Cell> cells_out;
  std::int64_t build_ns = 0;
  for (const std::size_t n : ctx.scale.ns) {
    for (const int crash : kCrashScenarios) {
      cells_out.push_back(core::Table1Cell{n, crash, {}, std::nullopt});
      const std::size_t cell_index = cells_out.size() - 1;
      space.add_group(ctx.scale.class1_executions, ctx.seed + seed_base(crash) + n, "exec");
      descs.push_back(GroupDesc{cell_index, nullptr});
      if (ctx.broadcast_fits.contains(n)) {
        sanmodels::ConsensusSanConfig cfg;
        cfg.n = n;
        cfg.transport = ctx.transport(n);
        cfg.initially_crashed = crash;
        space.add_group(ctx.scale.sim_replications, ctx.seed + seed_base(crash) + 300 + n,
                        "rep");
        const auto t0 = Clock::now();
        const san::TransientStudy* study = bank.add(cfg);
        build_ns += ns_since(t0);
        descs.push_back(GroupDesc{cell_index, study});
      }
    }
  }
  layers.set("sanmodels.build.busy_s", to_s(build_ns));

  std::mutex tally_mutex;
  StepTally steps;
  const auto t_campaign = Clock::now();
  const auto raw = runner.run_flat(space, [&](const core::ShardSpace::Task& t) {
    const GroupDesc& gd = descs[t.group];
    Cell cell;
    const HandlerClock before = tl_handler;
    const auto t0 = Clock::now();
    if (gd.study != nullptr) {
      cell.reward = gd.study->run_one(des::RandomEngine{t.seed});
    } else {
      const core::Table1Cell& out = cells_out[gd.cell];
      StepTally tally;
      cell.exec = stepped_one_shot(out.n, ctx.network, ctx.timers, out.crashed, t.index, t.seed,
                                   tally);
      const std::lock_guard lock{tally_mutex};
      steps.merge(tally);
    }
    cell.ns = ns_since(t0);
    cell.handler_ns = tl_handler.ns - before.ns;
    cell.handler_calls = tl_handler.calls - before.calls;
    cell.messages = tl_handler.messages - before.messages;
    return cell;
  });
  const std::int64_t campaign_ns = ns_since(t_campaign);

  std::vector<std::int64_t> one_shot_ns;
  std::vector<std::int64_t> san_ns;
  std::int64_t handler_ns = 0;
  std::uint64_t handler_calls = 0;
  std::uint64_t messages = 0;
  std::int64_t fold_ns = 0;
  std::uint64_t dropped = 0;
  for (std::size_t g = 0; g < descs.size(); ++g) {
    core::Table1Cell& out = cells_out[descs[g].cell];
    if (descs[g].study != nullptr) {
      std::vector<std::optional<double>> rewards;
      rewards.reserve(raw[g].size());
      for (const Cell& c : raw[g]) {
        rewards.push_back(c.reward);
        san_ns.push_back(c.ns);
      }
      const auto t0 = Clock::now();
      const san::StudyResult study = core::fold_study_rewards(rewards);
      fold_ns += ns_since(t0);
      out.sim = study.summary.mean();
      dropped += study.dropped;
    } else {
      std::vector<core::ExecOutcome> outcomes;
      outcomes.reserve(raw[g].size());
      for (const Cell& c : raw[g]) {
        outcomes.push_back(c.exec);
        one_shot_ns.push_back(c.ns);
        handler_ns += c.handler_ns;
        handler_calls += c.handler_calls;
        messages += c.messages;
      }
      const auto t0 = Clock::now();
      out.meas = core::fold_latency_outcomes(outcomes).summary().mean_ci(0.90);
      fold_ns += ns_since(t0);
    }
  }

  std::int64_t one_shot_total = 0;
  for (const std::int64_t v : one_shot_ns) one_shot_total += v;
  std::int64_t san_total = 0;
  for (const std::int64_t v : san_ns) san_total += v;
  const double threads = static_cast<double>(runner.threads());
  const double capacity_s = to_s(campaign_ns) * threads;
  const double busy_s = to_s(one_shot_total + san_total);

  layers.set("core.one_shot.calls", static_cast<double>(one_shot_ns.size()));
  layers.set("core.one_shot.busy_s", to_s(one_shot_total));
  layers.set("core.one_shot.self_s", to_s(one_shot_total - handler_ns));
  layers.set("san.run_one.calls", static_cast<double>(san_ns.size()));
  layers.set("san.run_one.busy_s", to_s(san_total));
  layers.set("san.dropped_share",
             san_ns.empty() ? 0.0 : static_cast<double>(dropped) / static_cast<double>(san_ns.size()));
  layers.set("core.replication.busy_share", busy_s / capacity_s);
  layers.set("core.replication.idle_s", capacity_s - busy_s);
  layers.set("consensus.handler.calls", static_cast<double>(handler_calls));
  layers.set("consensus.handler.busy_s", to_s(handler_ns));
  layers.set("consensus.handler.ns_per_call",
             handler_calls > 0 ? static_cast<double>(handler_ns) / static_cast<double>(handler_calls)
                               : 0.0);
  layers.set("consensus.msgs_per_instance",
             one_shot_ns.empty() ? 0.0
                                 : static_cast<double>(messages) /
                                       static_cast<double>(one_shot_ns.size()));
  layers.set("stats.fold.busy_s", to_s(fold_ns));

  const auto executions = static_cast<double>(one_shot_ns.size());
  const std::size_t pending_p50 = histogram_quantile(steps.pending_counts, 0.5);
  layers.set("des.events", static_cast<double>(steps.events));
  layers.set("des.ns_per_event",
             static_cast<double>(steps.step_ns) / static_cast<double>(steps.events));
  layers.set("des.step.busy_s", to_s(steps.step_ns));
  layers.set("des.pending.p50", static_cast<double>(pending_p50));
  layers.set("des.pending.max",
             static_cast<double>(histogram_quantile(steps.pending_counts, 1.0)));
  layers.set("des.hold.ns_per_op", hold_ns_per_op(pending_p50, ctx.seed));
  layers.set("net.self_s", to_s(steps.net_ns));
  layers.set("net.internal_events", static_cast<double>(steps.net_events));
  layers.set("net.frames_per_instance", static_cast<double>(steps.frames) / executions);
  layers.set("net.medium_busy_share", steps.medium_busy_ms / steps.sim_ms);
  layers.set("runtime.deliveries", static_cast<double>(steps.deliveries));
  layers.set("runtime.delivery.busy_s", to_s(steps.delivery_ns));
  layers.samples("core.one_shot", std::move(one_shot_ns));
  layers.samples("san.run_one", std::move(san_ns));
  return cells_out;
}

Result run_paper_table1(std::uint64_t seed, bool trace, Layers& layers) {
  Result r;
  const core::ReplicationRunner runner{bench_threads()};
  const core::Scale scale = core::Scale::full();

  const auto t_setup = Clock::now();
  core::PaperContext ctx = core::make_context(scale, seed, runner);
  ctx.runner = &runner;
  r.setup_s = to_s(ns_since(t_setup));

  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const auto cells = core::run_table1_cells(ctx, scale.ns, kCrashScenarios);
  r.wall_s = to_s(ns_since(t0));
  r.cpu_s = cpu_seconds() - cpu0;
  check_table1(cells, scale, r);
  r.info.count("threads", runner.threads());

  if (trace) {
    layers.set("core.calibration.busy_s", r.setup_s);
    const auto t_traced = Clock::now();
    const auto traced_cells = traced_table1(ctx, runner, layers);
    const double traced_wall = to_s(ns_since(t_traced));
    if (table1_digest(traced_cells) != r.digest) {
      r.violations.push_back("trace: traced Table 1 cells differ from the untraced run");
    }
    layers.set("trace.overhead_share", traced_wall / r.wall_s - 1.0);
    layers.set("sanmodels.san_vs_emul_err", san_vs_emul_err(cells));
  }
  return r;
}

// --- Streams -----------------------------------------------------------------------

std::size_t undecided_instances(const core::WorkloadResult& w) {
  std::size_t k = 0;
  for (const core::InstanceRecord& rec : w.instances) k += rec.decided() ? 0 : 1;
  return k;
}

/// The stream digest: event count, decided and undecided values and
/// instances, value latency p50/p99 over the measured values, and the
/// simulated end time.
std::string stream_digest(const core::WorkloadResult& w) {
  std::vector<double> lats;
  std::size_t undecided_values = 0;
  for (std::size_t k = w.warmup_values; k < w.values.size(); ++k) {
    if (w.values[k].decided()) {
      lats.push_back(w.values[k].total_ms());
    } else {
      ++undecided_values;
    }
  }
  std::ostringstream os;
  os << "events=" << w.events_processed << "\n"
     << "values_decided=" << lats.size() << "\n"
     << "values_undecided=" << undecided_values << "\n"
     << "instances=" << w.instances.size() << "\n"
     << "instances_undecided=" << undecided_instances(w) << "\n";
  if (!lats.empty()) {
    const stats::Ecdf ecdf{lats};
    os << "value_p50_ms=" << fmt17(ecdf.quantile(0.50)) << "\n"
       << "value_p99_ms=" << fmt17(ecdf.quantile(0.99)) << "\n";
  }
  os << "sim_ms=" << fmt17(w.sim_duration_ms) << "\n";
  return os.str();
}

/// Times run_workload and fills the outcome fields of the stream.
/// Every submitted value, warm-up included, is one attempted operation.
core::WorkloadResult timed_stream(const core::WorkloadConfig& cfg, const core::WorkloadSpec& spec,
                                  Result& r) {
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  core::WorkloadResult w = core::run_workload(cfg, spec);
  r.wall_s = to_s(ns_since(t0));
  r.cpu_s = cpu_seconds() - cpu0;
  r.instances = w.instances.size();
  r.attempted = w.values.size();
  for (const core::ValueRecord& v : w.values) r.failed += v.decided() ? 0 : 1;
  r.digest = stream_digest(w);
  r.info.num("undecided_share", static_cast<double>(undecided_instances(w)) /
                                    static_cast<double>(w.instances.size()));
  // Values recorded undecided although the instance that carried them
  // decided. core::run_stream attributes a batch to the contiguous value
  // range [first vid, first vid + batch size), which a batch mixing
  // resubmitted and fresh values breaks; counted so the defect shows.
  std::uint64_t misattributed = 0;
  for (const core::ValueRecord& v : w.values) {
    if (!v.decided() && v.cid >= 0 && w.instances[static_cast<std::size_t>(v.cid)].decided()) {
      ++misattributed;
    }
  }
  r.info.count("undecided_values_of_decided_instances", misattributed);
  if (w.events_processed == 0) r.violations.push_back("stream: no events");
  return w;
}

constexpr std::size_t kRacksN = 7;
constexpr double kRacksRatePerS = 1000.0;
constexpr std::size_t kRacksWarmup = 1000;
constexpr std::size_t kRacksMeasured = 39'000;
constexpr double kRacksHeartbeatTimeoutMs = 10.0;

struct RacksInputs {
  std::shared_ptr<const topo::Topology> topology;
  faults::FaultPlan plan;
  std::int64_t topo_ns = 0;
  std::int64_t plan_ns = 0;
};

core::WorkloadSpec racks_spec(std::size_t warmup, std::size_t measured) {
  core::WorkloadSpec spec;
  spec.arrivals = core::ArrivalProcess::kOpenLoop;
  spec.offered_per_s = kRacksRatePerS;
  spec.warmup = warmup;
  spec.measured = measured;
  spec.batch_size = 4;
  spec.batch_linger_ms = 2.0;
  spec.pipeline_window = 8;
  spec.resubmit_undecided = true;
  spec.instance_timeout_ms = 200.0;
  return spec;
}

RacksInputs racks_inputs(std::uint64_t seed) {
  RacksInputs in;
  auto t0 = Clock::now();
  topo::LinkParams uplink;
  uplink.latency_ms = 0.05;
  in.topology = std::make_shared<const topo::Topology>(
      topo::Topology::uniform(kRacksN, 2, topo::LinkParams{}, uplink));
  // The network compiles its own route table; this one is built only to
  // time the compilation.
  const topo::RouteTable routes{*in.topology};
  in.topo_ns = ns_since(t0);

  // Fault windows sit inside the stream's arrival span.
  const double span_ms =
      1000.0 * static_cast<double>(kRacksWarmup + kRacksMeasured) / kRacksRatePerS;
  t0 = Clock::now();
  faults::WeibullPlanSpec weibull;
  weibull.shape = 1.5;
  weibull.scale_ms = 25'000.0;
  weibull.horizon_ms = span_ms;
  weibull.downtime_ms = 40.0;
  weibull.scope = "host";
  weibull.domains = kRacksN;
  weibull.seed = seed;
  in.plan = faults::synthesize_weibull_plan(weibull);
  in.plan.add(faults::FaultPlan::kill_rack(1, 0.45 * span_ms, 80.0));
  in.plan.add(faults::FaultPlan::loss(0.75 * span_ms, 300.0, 0.3));
  in.plan.validate(kRacksN);
  (void)faults::lower_plan(in.plan, *in.topology);
  in.plan_ns = ns_since(t0);
  return in;
}

core::WorkloadConfig racks_config(const RacksInputs& in, std::uint64_t seed) {
  core::WorkloadConfig cfg;
  cfg.n = kRacksN;
  cfg.topology = in.topology;
  cfg.heartbeat_timeout_ms = kRacksHeartbeatTimeoutMs;
  cfg.algorithm = core::Algorithm::kChandraToueg;
  cfg.durable_log = true;
  cfg.durable_append_ms = 0.02;
  cfg.fault_plan = &in.plan;
  cfg.seed = seed;
  return cfg;
}

Result run_stream_racks_faults(std::uint64_t seed, bool trace, Layers& layers) {
  Result r;
  const auto t_setup = Clock::now();
  const RacksInputs in = racks_inputs(seed);
  const core::WorkloadConfig cfg = racks_config(in, seed);
  // Warm-up: the first 400 values of the same stream, ahead of every fault.
  (void)core::run_workload(cfg, racks_spec(0, 400));
  r.setup_s = to_s(ns_since(t_setup));

  const core::WorkloadResult w = timed_stream(cfg, racks_spec(kRacksWarmup, kRacksMeasured), r);
  r.info.count("plan_events", in.plan.events().size());
  if (!trace) return r;

  layers.set("topo.compile.busy_s", to_s(in.topo_ns));
  layers.set("faults.plan.busy_s", to_s(in.plan_ns));
  layers.set("core.workload.busy_s", r.wall_s);
  layers.set("des.events", static_cast<double>(w.events_processed));
  layers.set("des.ns_per_event", r.wall_s * 1e9 / static_cast<double>(w.events_processed));
  layers.set("consensus.durable_appends", static_cast<double>(w.durable_appends));
  layers.set("consensus.instances_replayed", static_cast<double>(w.instances_replayed));
  layers.set("consensus.mean_batch_size", w.mean_batch_size);
  layers.set("consensus.peak_active_instances", static_cast<double>(w.peak_active_instances));
  layers.set("consensus.undecided_share", static_cast<double>(undecided_instances(w)) /
                                               static_cast<double>(w.instances.size()));

  auto t0 = Clock::now();
  const core::WorkloadSpec spec = racks_spec(kRacksWarmup, kRacksMeasured);
  (void)core::fold_workload_stats(w.instances, w.warmup, spec.batches);
  (void)core::fold_value_stats(w.values, w.warmup_values, spec.batches);
  layers.set("stats.fold.busy_s", to_s(ns_since(t0)));

  // Heartbeat-only drive: the stream's detectors alone, on the same
  // topology, timers and seed, up to the stream's simulated horizon.
  {
    runtime::ClusterConfig ccfg;
    ccfg.n = cfg.n;
    ccfg.network = cfg.network;
    ccfg.timers = cfg.timers;
    ccfg.topology = cfg.topology;
    ccfg.queue_backend = cfg.queue_backend;
    ccfg.seed = cfg.seed;
    runtime::Cluster cluster{ccfg};
    for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(cfg.n); ++pid) {
      cluster.process(pid).add_layer<fd::HeartbeatFd>(
          fd::HeartbeatFdParams::from_timeout_ms(kRacksHeartbeatTimeoutMs));
    }
    t0 = Clock::now();
    cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(w.sim_duration_ms));
    const std::int64_t hb_ns = ns_since(t0);
    const std::uint64_t events = cluster.sim().events_processed();
    layers.set("fd.hb.events", static_cast<double>(events));
    layers.set("fd.hb.busy_s", to_s(hb_ns));
    layers.set("fd.hb.ns_per_event", static_cast<double>(hb_ns) / static_cast<double>(events));
  }

  layers.na("trace.overhead_share",
            "no hook runs inside this stream: its per-layer figures time whole calls and "
            "separate drives");
  const std::string internal =
      "the des / net / runtime / consensus split inside run_workload needs in-program "
      "tracing; not estimated";
  for (const char* name :
       {"des.step.busy_s", "des.pending.p50", "des.pending.max", "des.hold.ns_per_op",
        "net.self_s", "net.internal_events", "net.frames_per_instance", "net.medium_busy_share",
        "runtime.deliveries", "runtime.delivery.busy_s", "consensus.handler.calls",
        "consensus.handler.busy_s", "consensus.handler.ns_per_call",
        "consensus.msgs_per_instance"}) {
    layers.na(name, internal);
  }
  return r;
}

// --- Quick-scale golden smoke ------------------------------------------------------

int run_smoke(const std::string& golden_path) {
  std::ifstream in{golden_path};
  if (!in) {
    std::cerr << "perfbench: cannot read " << golden_path << "\n";
    return 2;
  }
  std::stringstream golden;
  golden << in.rdbuf();
  core::RunOptions opts;
  opts.scale = core::Scale::quick();
  const core::ReplicationRunner runner{bench_threads()};
  opts.runner = &runner;
  const std::string ours = core::CampaignRegistry::builtin().run("table1", opts).to_csv();
  JsonObject out;
  out.boolean("match", ours == golden.str());
  std::cout << out.dump() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string smoke;
  std::uint64_t seed = core::kDefaultSeed;
  bool trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--workload" && i + 1 < argc) {
        workload = argv[++i];
      } else if (arg == "--seed" && i + 1 < argc) {
        seed = std::stoull(argv[++i]);
      } else if (arg == "--trace") {
        trace = true;
      } else if (arg == "--smoke" && i + 1 < argc) {
        smoke = argv[++i];
      } else {
        std::cerr << "usage: perfbench_worker --workload NAME --seed N [--trace] | --smoke CSV\n";
        return 2;
      }
    }
    if (!smoke.empty()) return run_smoke(smoke);
    Layers layers;
    Result r;
    if (workload == "paper_table1") {
      r = run_paper_table1(seed, trace, layers);
    } else if (workload == "stream_racks_faults") {
      r = run_stream_racks_faults(seed, trace, layers);
    } else {
      std::cerr << "perfbench: unknown workload '" << workload << "'\n";
      return 2;
    }
    JsonObject out;
    out.str("workload", workload);
    out.count("seed", seed);
    out.num("setup_s", r.setup_s);
    out.num("wall_s", r.wall_s);
    out.num("cpu_s", r.cpu_s);
    out.num("peak_rss_mb", peak_rss_mb());
    out.count("instances", r.instances);
    out.count("attempted", r.attempted);
    out.count("failed", r.failed);
    out.str("digest", r.digest);
    std::string violations = "[";
    for (std::size_t i = 0; i < r.violations.size(); ++i) {
      violations += (i > 0 ? "," : "") + json_string(r.violations[i]);
    }
    out.raw("violations", violations + "]");
    out.raw("info", r.info.dump());
    if (trace) out.raw("layers", layers.dump());
    std::cout << out.dump() << "\n";
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
