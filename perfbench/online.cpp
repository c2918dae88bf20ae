// pdwd-online: an in-process service::Daemon fed through handleLine by two
// closed-loop clients.
//
// Set-up (setup_s): synthesize the four instances (the resolve oracle's
// inputs), start the daemon and prime each benchmark with one cold `solve`
// (fills the plan cache) and one fixed priming `resolve` (cold-primes the
// resident incremental pipeline).
//
// The timed phase is one stream per client, its length fixed by --seconds
// before anything is timed: 30% `resolve` op/task delays on the client's own
// two benchmarks, 70% warm `solve` hits spread evenly over all four. Each
// benchmark's deltas are a fixed script (they compose, so a seed-dependent
// script would send every seed down a different schedule trajectory with
// different repair costs); the seed decides how resolves and hits
// interleave and which benchmark each hit asks for. A benchmark's deltas come
// from one client only, so the order in which they compose never depends on
// thread interleaving and the oracle can replay them afterwards.
//
// Checks (outside the timed phase): every hit is warm and returns the plan
// bytes of set-up; every resolve is `ok` and its n_wash equals necessity +
// clustering on the same perturbed schedule (core::applyDelta chain).
//
// Traced (--trace 1): the same run twice on two fresh daemons, the second
// with metrics scrapes and stage-histogram reads around its stream;
// parse/serialize are re-timed afterwards on its own lines and replies.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/schedule_delta.h"
#include "obs/json.h"
#include "obs/metric_names.h"
#include "perfbench.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "wash/contamination.h"
#include "wash/necessity.h"
#include "wash/wash_op.h"

namespace perfbench {

namespace names = pdw::obs::names;
using pdw::assay::BenchmarkId;

namespace {

constexpr int kClients = 2;
/// Runs (set-up + stream) per untraced invocation.
constexpr int kRuns = 3;
/// Scheduling-MILP node cap of the daemon: resolves repair in
/// fix-and-optimize mode, and a repair that finds no incumbent within the
/// cap falls back to greedy insertion, so this cap bounds the tail.
constexpr std::int64_t kDaemonScheduleNodes = 300;
/// Requests per client per --seconds second: an invocation streams kRuns
/// times, each stream lasting about 1/kRuns of --seconds on the reference
/// host.
constexpr double kRequestsPerClientSecond = 20.0;
constexpr double kResolveShare = 0.3;
/// Client c owns (perturbs) benchmarks 2c and 2c+1. The heavier repairs
/// (IVD) share a client with the lightest (Synthetic1) to even the load.
const std::vector<BenchmarkId> kBenchmarks = {
    BenchmarkId::Pcr, BenchmarkId::KinaseAct1, BenchmarkId::Synthetic1,
    BenchmarkId::Ivd};

struct Request {
  std::string line;
  int bench = 0;
  bool resolve = false;
  pdw::core::ScheduleDelta delta;  ///< resolve only
};

struct Sample {
  double ms = 0.0;
  std::string response;
};

std::string solveLine(const std::string& id, const std::string& bench) {
  return "{\"schema\":\"pdw-req-1\",\"type\":\"solve\",\"id\":\"" + id +
         "\",\"benchmark\":\"" + bench + "\"}";
}

std::string resolveLine(const std::string& id, const std::string& bench,
                        const pdw::core::ScheduleDelta& delta) {
  std::string line =
      "{\"schema\":\"pdw-req-1\",\"type\":\"resolve\",\"id\":\"" + id +
      "\",\"benchmark\":\"" + bench + "\"";
  double delay_s = 0.0;
  if (!delta.op_delays.empty()) {
    line += ",\"delay_op\":" + std::to_string(delta.op_delays[0].op);
    delay_s = delta.op_delays[0].delay_s;
  } else {
    line += ",\"delay_task\":" + std::to_string(delta.task_delays[0].task);
    delay_s = delta.task_delays[0].delay_s;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", delay_s);
  return line + ",\"delay_s\":" + buf + "}";
}

/// The priming delta of set-up.
pdw::core::ScheduleDelta primingDelta() {
  pdw::core::ScheduleDelta delta;
  delta.op_delays.push_back({0, 0.5});
  return delta;
}

/// The fixed delta script of benchmark `b`: alternating operation and task
/// delays of 0.5..2 s on ids drawn from a per-benchmark generator.
std::vector<pdw::core::ScheduleDelta> deltaScript(
    std::size_t b, const pdw::assay::AssaySchedule& s, int count) {
  Rng rng(0x5eed0000u + b);
  std::vector<pdw::core::ScheduleDelta> out(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double delay_s = 0.5 + 0.25 * static_cast<double>(rng.below(7));
    if (i % 2 == 0) {
      out[i].op_delays.push_back(
          {static_cast<pdw::assay::OpId>(rng.below(s.opSchedules().size())),
           delay_s});
    } else {
      out[i].task_delays.push_back(
          {static_cast<pdw::assay::TaskId>(rng.below(s.tasks().size())),
           delay_s});
    }
  }
  return out;
}

/// Client `client`'s stream of `requests` requests.
std::vector<Request> makeStream(
    int client, int requests, std::uint64_t seed,
    const std::vector<std::unique_ptr<Instance>>& inst) {
  Rng rng(seed * 0x100000001b3ull + static_cast<std::uint64_t>(client));
  const int per_bench =
      static_cast<int>(std::lround(requests * kResolveShare / 2.0));
  const int resolves = 2 * per_bench;
  std::vector<char> is_resolve(static_cast<std::size_t>(requests), 0);
  std::fill(is_resolve.begin(), is_resolve.begin() + resolves, 1);
  rng.shuffle(is_resolve);
  std::vector<int> hit_bench, resolve_bench;
  for (int i = 0; i < requests - resolves; ++i)
    hit_bench.push_back(i % static_cast<int>(kBenchmarks.size()));
  for (int i = 0; i < resolves; ++i)
    resolve_bench.push_back(2 * client + i % 2);
  rng.shuffle(hit_bench);
  rng.shuffle(resolve_bench);
  std::vector<std::vector<pdw::core::ScheduleDelta>> script;
  for (int k = 0; k < 2; ++k) {
    const std::size_t b = static_cast<std::size_t>(2 * client + k);
    script.push_back(deltaScript(b, inst[b]->synth.schedule, per_bench));
  }

  std::vector<Request> out;
  std::size_t h = 0, r = 0, next[2] = {0, 0};
  for (int i = 0; i < requests; ++i) {
    Request req;
    const std::string id =
        "c" + std::to_string(client) + "-" + std::to_string(i);
    req.resolve = is_resolve[static_cast<std::size_t>(i)] != 0;
    req.bench = req.resolve ? resolve_bench[r++] : hit_bench[h++];
    const std::string name = pdw::assay::toString(kBenchmarks[req.bench]);
    if (req.resolve) {
      const int k = req.bench - 2 * client;
      req.delta = script[k][next[k]++];
      req.line = resolveLine(id, name, req.delta);
    } else {
      req.line = solveLine(id, name);
    }
    out.push_back(std::move(req));
  }
  return out;
}

struct StreamResult {
  double wall_ms = 0.0;
  std::vector<double> client_ms;              ///< per client
  std::vector<std::vector<Sample>> samples;   ///< per client, per request
};

StreamResult runStream(pdw::service::Daemon& daemon,
                   const std::vector<std::vector<Request>>& streams) {
  StreamResult out;
  out.client_ms.assign(kClients, 0.0);
  out.samples.resize(kClients);
  std::barrier start(kClients + 1);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    out.samples[c].resize(streams[c].size());
    clients.emplace_back([&, c] {
      start.arrive_and_wait();
      const Clock::time_point c0 = Clock::now();
      for (std::size_t i = 0; i < streams[c].size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        std::string response = daemon.handleLine(streams[c][i].line);
        out.samples[c][i].ms = msBetween(t0, Clock::now());
        out.samples[c][i].response = std::move(response);
      }
      out.client_ms[c] = msBetween(c0, Clock::now());
    });
  }
  const Clock::time_point t0 = Clock::now();
  start.arrive_and_wait();
  for (std::thread& t : clients) t.join();
  out.wall_ms = msBetween(t0, Clock::now());
  return out;
}

/// The number of wash operations necessity + clustering yields on `s`.
int oracleWashCount(const pdw::assay::AssaySchedule& s) {
  const pdw::wash::ContaminationTracker tracker(s);
  pdw::wash::NecessityResult necessity =
      pdw::wash::analyzeWashNecessity(tracker);
  return static_cast<int>(
      pdw::wash::clusterTargets(std::move(necessity.targets)).size());
}

double numberField(const pdw::obs::json::Value& v, const char* key) {
  const pdw::obs::json::Value* f = v.find(key);
  return f != nullptr && f->isNumber() ? f->number : -1.0;
}

std::string stringField(const pdw::obs::json::Value& v, const char* key) {
  const pdw::obs::json::Value* f = v.find(key);
  return f != nullptr && f->isString() ? f->string : std::string();
}

bool boolField(const pdw::obs::json::Value& v, const char* key) {
  const pdw::obs::json::Value* f = v.find(key);
  return f != nullptr && f->kind == pdw::obs::json::Value::Kind::Bool &&
         f->boolean;
}

/// The reply fields a response line carries, rebuilt for re-serialization.
pdw::service::SolveReply replyOf(const pdw::obs::json::Value& v) {
  pdw::service::SolveReply r;
  r.status = stringField(v, "status");
  r.warm = boolField(v, "warm");
  r.n_wash = static_cast<int>(numberField(v, "n_wash"));
  r.l_wash_mm = numberField(v, "l_wash_mm");
  r.t_assay = numberField(v, "t_assay");
  r.wash_time_s = numberField(v, "wash_time_s");
  r.proven_optimal = boolField(v, "proven_optimal");
  r.plan = stringField(v, "plan");
  r.wall_ms = numberField(v, "wall_ms");
  r.queue_ms = numberField(v, "queue_ms");
  if (const pdw::obs::json::Value* res = v.find("resolve")) {
    r.is_resolve = true;
    r.frontier_cells = static_cast<int>(numberField(*res, "frontier_cells"));
    r.reused_cells = static_cast<int>(numberField(*res, "reused_cells"));
    r.routes_reused = static_cast<int>(numberField(*res, "routes_reused"));
    r.full_fallback = boolField(*res, "full_fallback");
  }
  return r;
}

/// A counter from a `metrics` scrape response (0 if never incremented).
double scraped(const pdw::obs::json::Value& scrape, const char* name) {
  const pdw::obs::json::Value* doc = scrape.find("metrics");
  const pdw::obs::json::Value* all = doc ? doc->find("metrics") : nullptr;
  const pdw::obs::json::Value* m = all ? all->find(name) : nullptr;
  return m == nullptr ? 0.0 : std::max(0.0, numberField(*m, "value"));
}

pdw::obs::json::Value scrape(pdw::service::Daemon& daemon) {
  const std::string line =
      daemon.handleLine("{\"schema\":\"pdw-req-1\",\"type\":\"metrics\"}");
  return pdw::obs::json::parse(line).value_or(pdw::obs::json::Value{});
}

/// What the per-layer numbers need from a traced run's stream.
struct Layered {
  pdw::obs::json::Value scrape_before, scrape_after;
  double stage_ms[4] = {};  ///< analysis, clustering, routing, scheduling
};

/// One run: a fresh daemon's set-up, its timed stream, and what the checks
/// found.
struct OnlineRun {
  double setup_s = 0.0;
  double synth_ms = 0.0;
  /// Quality per benchmark, accumulated in script order so the sums repeat
  /// bit-for-bit whatever the interleaving.
  std::vector<double> n_wash, l_wash, t_assay;
  std::vector<std::vector<Request>> streams;
  StreamResult replies;
  Layered layers;
};

/// Set up a fresh daemon, run both clients' streams (interleaving from
/// `stream_seed`) and check every reply into `report`. With `layered`, the
/// stream is bracketed by metrics scrapes and stage-histogram reads. Returns
/// false if set-up failed.
bool runDaemon(const Args& args, std::uint64_t stream_seed, bool layered,
               Report& report, OnlineRun& run) {
  const Clock::time_point setup_start = Clock::now();
  const std::vector<std::unique_ptr<Instance>> inst =
      synthesizeAll(kBenchmarks);
  run.synth_ms = msBetween(setup_start, Clock::now());

  pdw::service::DaemonOptions options;
  options.lanes = 2;
  options.threads = 2;
  options.default_budget_s = kClockLimitS;
  options.default_budget_nodes = kDaemonScheduleNodes;
  options.path_budget_s = kClockLimitS;
  options.path_budget_nodes = kPathNodes;
  pdw::service::Daemon daemon(options);

  // Per benchmark: the plan hits must return, and the perturbed base schedule
  // the oracle composes deltas on.
  std::vector<std::string> setup_plan(kBenchmarks.size());
  std::vector<pdw::assay::AssaySchedule> oracle_base;
  run.n_wash.assign(kBenchmarks.size(), 0.0);
  run.l_wash.assign(kBenchmarks.size(), 0.0);
  run.t_assay.assign(kBenchmarks.size(), 0.0);
  // Each client thread primes its own two benchmarks, as two clients
  // arriving together would.
  std::vector<std::string> solved_line(kBenchmarks.size()),
      primed_line(kBenchmarks.size());
  {
    std::vector<std::thread> primers;
    for (int c = 0; c < kClients; ++c) {
      primers.emplace_back([&, c] {
        for (int b = 2 * c; b < 2 * c + 2; ++b) {
          const std::string name = pdw::assay::toString(kBenchmarks[b]);
          solved_line[b] = daemon.handleLine(solveLine("setup", name));
          primed_line[b] =
              daemon.handleLine(resolveLine("setup", name, primingDelta()));
        }
      });
    }
    for (std::thread& t : primers) t.join();
  }
  for (std::size_t b = 0; b < kBenchmarks.size(); ++b) {
    const std::string name = pdw::assay::toString(kBenchmarks[b]);
    const auto solved = pdw::obs::json::parse(solved_line[b]);
    const auto primed = pdw::obs::json::parse(primed_line[b]);
    const std::string status = solved ? stringField(*solved, "status") : "";
    if ((status != "ok" && status != "budget_hit") || !primed ||
        stringField(*primed, "status") != "ok") {
      report.fail(name + ": set-up solve or priming resolve failed");
      return false;
    }
    setup_plan[b] = stringField(*solved, "plan");
    for (const auto* v : {&*solved, &*primed}) {
      run.n_wash[b] += numberField(*v, "n_wash");
      run.l_wash[b] += numberField(*v, "l_wash_mm");
      run.t_assay[b] += numberField(*v, "t_assay");
    }
    oracle_base.push_back(
        pdw::core::applyDelta(inst[b]->synth.schedule, primingDelta())
            .schedule);
  }
  const int requests = std::max(
      10, static_cast<int>(
              std::lround(args.seconds * kRequestsPerClientSecond)));
  for (int c = 0; c < kClients; ++c)
    run.streams.push_back(makeStream(c, requests, stream_seed, inst));
  run.setup_s = msBetween(setup_start, Clock::now()) / 1000.0;

  const char* stage_names[4] = {names::kStageAnalysisSeconds,
                                names::kStageClusteringSeconds,
                                names::kStageRoutingSeconds,
                                names::kStageSchedulingSeconds};
  double stage_s0[4] = {};
  if (layered) {
    run.layers.scrape_before = scrape(daemon);
    for (int k = 0; k < 4; ++k) stage_s0[k] = histogramSum(stage_names[k]);
  }
  run.replies = runStream(daemon, run.streams);
  if (layered) {
    for (int k = 0; k < 4; ++k)
      run.layers.stage_ms[k] =
          (histogramSum(stage_names[k]) - stage_s0[k]) * 1000.0;
    run.layers.scrape_after = scrape(daemon);
  }
  std::fprintf(stderr, "perfbench: set-up %.3f s, stream %.3f s\n", run.setup_s,
               run.replies.wall_ms / 1000.0);

  // Checks, outside the timed phase.
  int failures = 0;
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < run.streams[c].size(); ++i) {
      const Request& req = run.streams[c][i];
      const Sample& s = run.replies.samples[c][i];
      ++report.attempted;
      const auto v = pdw::obs::json::parse(s.response);
      const std::string status = v ? stringField(*v, "status") : "";
      bool ok = status == "ok" || status == "budget_hit";
      // A request this long could have had a solve stop on the clock.
      if (ok &&
          numberField(*v, "wall_ms") >= kGuardShare * kClockLimitS * 1000.0)
        ok = false;
      if (ok && !req.resolve) {
        ok = boolField(*v, "warm") &&
             stringField(*v, "plan") == setup_plan[req.bench];
      } else if (ok) {
        pdw::core::AppliedDelta applied =
            pdw::core::applyDelta(oracle_base[req.bench], req.delta);
        ok = applied.valid && status == "ok" &&
             static_cast<int>(numberField(*v, "n_wash")) ==
                 oracleWashCount(applied.schedule);
        if (applied.valid) oracle_base[req.bench] = std::move(applied.schedule);
        run.n_wash[req.bench] += numberField(*v, "n_wash");
        run.l_wash[req.bench] += numberField(*v, "l_wash_mm");
        run.t_assay[req.bench] += numberField(*v, "t_assay");
      }
      if (!ok) {
        ++report.failed;
        if (++failures <= 5)
          report.fail("request " + req.line + " answered " +
                      s.response.substr(0, 300));
      }
    }
  }
  if (failures > 5)
    std::fprintf(stderr, "perfbench: %d failed requests in total\n", failures);
  return true;
}

/// Latency samples of one run's stream.
struct Latencies {
  std::vector<double> all, hit, resolve;
};

Latencies latencies(const OnlineRun& run) {
  Latencies out;
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < run.streams[c].size(); ++i) {
      const double ms = run.replies.samples[c][i].ms;
      out.all.push_back(ms);
      (run.streams[c][i].resolve ? out.resolve : out.hit).push_back(ms);
    }
  }
  std::fprintf(stderr,
               "perfbench: hit p50 %.4f p99 %.4f ms, resolve p50 %.3f p90 "
               "%.3f ms\n",
               percentile(out.hit, 50), percentile(out.hit, 99),
               percentile(out.resolve, 50), percentile(out.resolve, 90));
  return out;
}

}  // namespace

int runOnline(const Args& args, Report& report) {
  // Untraced: kRuns runs on fresh daemons, each with its own interleaving
  // drawn from the seed. The seed's interleaving decides which requests
  // contend for the lanes and the pool, so one interleaving alone would make
  // the resolve tail a property of the seed. The plans must agree between
  // runs (a benchmark's deltas compose in script order whatever the
  // interleaving). --trace 1 makes one untraced and one traced run of the
  // same interleaving.
  OnlineRun run;
  if (!runDaemon(args, args.seed * kRuns, false, report, run)) return 1;
  Latencies lat = latencies(run);

  if (!args.trace) {
    std::vector<double> setup_s = {run.setup_s};
    std::vector<double> wall_ms = {run.replies.wall_ms};
    for (int r = 1; r < kRuns; ++r) {
      OnlineRun again;
      if (!runDaemon(args, args.seed * kRuns + r, false, report, again))
        return 1;
      const Latencies more = latencies(again);
      if (run.n_wash != again.n_wash || run.l_wash != again.l_wash ||
          run.t_assay != again.t_assay)
        report.fail("plans differ between runs");
      setup_s.push_back(again.setup_s);
      wall_ms.push_back(again.replies.wall_ms);
      lat.all.insert(lat.all.end(), more.all.begin(), more.all.end());
    }
    // Every run serves the same requests, so the fastest stream is the
    // least-disturbed measurement of that work (the host only adds time).
    const double fastest_ms = *std::min_element(wall_ms.begin(), wall_ms.end());
    report.set("setup_s", median(setup_s));
    report.set("wall_s", fastest_ms / 1000.0);
    report.set("ops_per_s", static_cast<double>(lat.all.size() / kRuns) /
                                (fastest_ms / 1000.0));
    report.set("op_p50_ms", percentile(lat.all, 50));
    report.set("op_p90_ms", percentile(lat.all, 90));
    // Every plan a run produced: the primed plans (which every hit returns)
    // and every resolve reply.
    report.set("n_wash", sum(run.n_wash));
    report.set("l_wash_mm", sum(run.l_wash));
    report.set("t_assay_s", sum(run.t_assay));
    report.set("pass_frac",
               ratio(static_cast<double>(report.attempted - report.failed),
                     static_cast<double>(report.attempted)));
    report.set("peak_rss_mb", peakRssMb());
    return 0;
  }

  // Traced: the same work again on a fresh daemon, with the layer reads.
  OnlineRun traced;
  if (!runDaemon(args, args.seed * kRuns, true, report, traced)) return 1;
  const Layered& L = traced.layers;
  const auto delta = [&](const char* name) {
    return scraped(L.scrape_after, name) - scraped(L.scrape_before, name);
  };
  const Latencies traced_lat = latencies(traced);
  const double request_ms = sum(traced_lat.all);
  std::vector<double> queue_ms, parse_us, serialize_us;
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < traced.streams[c].size(); ++i) {
      const Request& req = traced.streams[c][i];
      const Sample& s = traced.replies.samples[c][i];
      const auto v = pdw::obs::json::parse(s.response);
      if (!v) continue;
      queue_ms.push_back(numberField(*v, "queue_ms"));
      Clock::time_point t0 = Clock::now();
      const pdw::service::ParsedRequest parsed =
          pdw::service::parseRequest(req.line);
      parse_us.push_back(msBetween(t0, Clock::now()) * 1000.0);
      if (!parsed.ok()) report.fail("request line does not parse: " + req.line);
      const pdw::service::SolveReply reply = replyOf(*v);
      t0 = Clock::now();
      const std::string line = pdw::service::solveResponse(
          stringField(*v, "id"), stringField(*v, "trace"), reply);
      serialize_us.push_back(msBetween(t0, Clock::now()) * 1000.0);
      if (line.size() < s.response.size() / 2)
        report.fail("re-serialized reply lost fields: " + line.substr(0, 200));
    }
  }

  // Ledger over client time: each request's handleLine span splits into the
  // pipeline stages it ran (the pipeline's own stage histograms) and the
  // service's remaining time (parse, queue, plan cache, delta bookkeeping,
  // serialize); what is left is the clients' own loop.
  const double analysis_ms = L.stage_ms[0], cluster_ms = L.stage_ms[1],
               route_ms = L.stage_ms[2], schedule_ms = L.stage_ms[3];
  Ledger ledger;
  ledger.wall_ms = sum(traced.replies.client_ms);
  ledger.self_ms["wash"] = analysis_ms + cluster_ms;
  ledger.self_ms["core.route"] = route_ms;
  ledger.self_ms["core.schedule"] = schedule_ms;
  ledger.self_ms["service"] =
      request_ms - analysis_ms - cluster_ms - route_ms - schedule_ms;
  ledger.close(report);

  report.set("synth.synthesize_ms", traced.synth_ms);
  report.set("wash.necessity_ms", analysis_ms);
  report.set("wash.targets", delta(names::kNecessityTargets));
  report.set("wash.cluster_ms", cluster_ms);
  report.set("wash.operations", delta(names::kClusterOperations));
  report.set("core.route.ms", route_ms);
  report.set("core.route.ops", delta(names::kClusterOperations));
  report.set("core.route.ilp_solves", delta(names::kPathIlpSolves));
  report.set("core.route.cut_rounds", delta(names::kPathIlpConnectivityCuts));
  report.set("core.route.fallbacks", delta(names::kPathIlpFallbacks));
  report.set("core.schedule.ms", schedule_ms);
  report.set("core.schedule.greedy_fallbacks",
             delta(names::kScheduleIlpGreedyFallbacks));
  // Inside the daemon the routing and repair MILPs share the ilp.* counters
  // and no per-operation span exists, so these read 0 here; the cold
  // workloads measure them.
  report.notExercised({"core.route.op_p50_ms", "core.route.op_max_ms",
                       "core.route.nodes", "core.route.iterations",
                       "core.schedule.nodes", "core.schedule.iterations",
                       "core.schedule.dual_pivots",
                       "core.schedule.refactorizations",
                       "core.schedule.us_per_iteration",
                       "core.schedule.iterations_per_node",
                       "core.schedule.warm_hit_ratio",
                       "core.schedule.cuts_added", "core.schedule.optimal"});
  report.set("core.resolve.frontier_share",
             ratio(delta(names::kResolveFrontierCells),
                   delta(names::kResolveCellsTotal)));
  report.set("core.resolve.routes_reused", delta(names::kResolveRoutesReused));
  report.set("core.resolve.full_fallbacks",
             delta(names::kResolveFullFallbacks));
  report.set("core.resolve.greedy_fallbacks",
             delta(names::kScheduleIlpGreedyFallbacks));
  const double route_hits = delta(names::kRouteCacheHits);
  report.set("core.route_cache.hit_ratio",
             ratio(route_hits, route_hits + delta(names::kRouteCacheMisses)));
  report.set("service.parse_us", median(parse_us));
  report.set("service.serialize_us", median(serialize_us));
  report.set("service.queue_ms_p50", median(queue_ms));
  const double plan_hits = delta(names::kPdwdPlanCacheHits);
  report.set("service.plan_cache.hit_ratio",
             ratio(plan_hits, plan_hits + delta(names::kPdwdPlanCacheMisses)));
  report.set("service.errors", delta(names::kPdwdErrors));
  report.set("service.hit_p50_ms", percentile(traced_lat.hit, 50));
  report.set("service.hit_p99_ms", percentile(traced_lat.hit, 99));
  report.set("service.resolve_p50_ms", percentile(traced_lat.resolve, 50));
  report.set("service.resolve_p90_ms", percentile(traced_lat.resolve, 90));
  report.set("trace.overhead_frac",
             ratio(traced.replies.wall_ms - run.replies.wall_ms,
                   run.replies.wall_ms));
  report.set("ledger.unattributed_frac", ledger.unattributedShare());
  return 0;
}

}  // namespace perfbench
