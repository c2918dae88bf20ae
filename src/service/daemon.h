// pdwd core: a resident wash-optimization service.
//
// The daemon owns the shared runtime — one work-stealing thread pool, one
// epoch-guarded route cache, one versioned plan cache, one lazily-built
// synthesis context per Table-II benchmark — and runs N solver lanes over a
// bounded admission queue. handleLine() is the whole protocol surface: any
// transport (unix socket, stdio, an in-process test) feeds it one request
// line and writes back the one response line it returns. That keeps the
// transport layer trivial and makes the full daemon testable without a
// socket.
//
// Request lifecycle (solve):
//   parse -> admit (bounded queue; full -> "rejected" immediately)
//         -> wait for a lane   (deadline can expire here -> "deadline")
//         -> plan-cache lookup (warm hit skips the entire pipeline)
//         -> Pipeline::run() on the shared pool, budget capped by the
//            remaining deadline
//         -> epoch-guarded plan-cache insert, response.
//
// Every request gets a process-unique trace id ("t-<n>"), stamped into the
// response, the tracing span and the slow-request log line. Outcomes are
// accounted in the pdwd.* registry metrics (see obs/metric_names.h for the
// partition invariant the tests and obs_check verify).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "service/plan_cache.h"
#include "service/protocol.h"

namespace pdw::util {
class ThreadPool;
}
namespace pdw::core {
class RouteCache;
}

namespace pdw::service {

struct DaemonOptions {
  /// Concurrent solver lanes (each runs one Pipeline at a time).
  int lanes = 2;
  /// Bounded admission queue: waiting requests beyond this are rejected.
  std::size_t queue_capacity = 16;
  /// Shared work-stealing pool width (0 = hardware concurrency).
  int threads = 0;
  std::size_t route_cache_capacity = 4096;
  std::size_t plan_cache_capacity = 256;
  /// Scheduling-ILP budget applied when a request does not set budget_s.
  double default_budget_s = 4.0;
  std::int64_t default_budget_nodes = 60000;
  /// Per-operation wash-path ILP budget.
  double path_budget_s = 1.0;
  std::int64_t path_budget_nodes = 8000;
  /// Requests slower than this (admission to response, seconds) are logged
  /// at Warn with their trace id and counted in pdwd.slow_requests.
  double slow_request_seconds = 5.0;
  /// Default LP backend ("" = library default); per-request engine wins.
  /// An unregistered name makes the constructor throw
  /// std::invalid_argument.
  std::string engine;
  /// Default cut policy ("" = library default, else on|off|gomory|cover).
  std::string cuts;
  /// Solver flight recorder (dump_on_limit: budget/deadline-capped solves
  /// dump their search tail). Enabled when `flight.path` is non-empty.
  obs::FlightConfig flight;
};

struct DaemonStats {
  std::int64_t requests = 0;
  std::int64_t solve_ok = 0;
  std::int64_t budget_hits = 0;
  std::int64_t deadline_expired = 0;
  std::int64_t rejected_queue_full = 0;
  std::int64_t errors = 0;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options = {});
  /// Drains and joins the lanes (equivalent to shutdown()).
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Process one request line, blocking until its response is ready.
  /// Thread-safe: every transport connection calls this concurrently.
  /// Always returns exactly one response line (no trailing newline).
  std::string handleLine(std::string_view line);

  /// True once a shutdown request was accepted; transports should stop
  /// reading. New solve requests are rejected from that point on.
  bool shutdownRequested() const;

  /// Stop admitting, finish every already-admitted request, join the lanes.
  /// Idempotent.
  void shutdown();

  /// Invalidate the shared plan + route caches as one observable step and
  /// return the new version: by the time cacheVersion() reports it, the
  /// route-cache epoch has already advanced (see invalidate_mutex_).
  std::uint64_t invalidateCaches();

  /// Current plan-cache version (generation).
  std::uint64_t cacheVersion() const;

  /// Current route-cache epoch. Coherence contract with cacheVersion():
  /// any observer that reads cacheVersion() first and routeCacheEpoch()
  /// second sees epoch advances >= version advances — the route epoch
  /// always bumps before the plan version under invalidate_mutex_.
  std::uint64_t routeCacheEpoch() const;

  DaemonStats stats() const;
  const DaemonOptions& options() const { return options_; }

 private:
  struct BenchContext;
  struct ResolveContext;
  struct Job;

  /// Runs on a lane: solve / resolve (or sleep) and fill the job's reply.
  void runJob(Job& job);
  SolveReply solveRequest(const Request& req, double remaining_s,
                          std::string* error);
  /// Incremental delta-solve against the benchmark's resident pipeline
  /// (created and cold-primed on first use).
  SolveReply resolveRequest(const Request& req, std::string* error);
  void laneLoop();
  std::shared_ptr<BenchContext> benchContext(const std::string& name,
                                             std::string* error);

  DaemonOptions options_;
  std::shared_ptr<util::ThreadPool> pool_;
  std::shared_ptr<core::RouteCache> route_cache_;
  PlanCache plan_cache_;
  /// Held across the plan-cache version bump AND the route-cache epoch bump
  /// (route first), in every invalidation path — so no observer can see one
  /// cache invalidated while the other still serves the old generation.
  std::mutex invalidate_mutex_;

  mutable std::mutex bench_mutex_;
  std::map<std::string, std::shared_ptr<BenchContext>> bench_;

  /// Resident incremental pipelines, one per benchmark (resolve requests).
  /// Each context serializes its own pipeline; the map mutex only guards
  /// creation/lookup.
  std::mutex resolve_mutex_;
  std::map<std::string, std::shared_ptr<ResolveContext>> resolve_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job*> queue_;      ///< waiting jobs (admitted, no lane yet)
  bool stopping_ = false;       ///< lanes exit once queue drains
  bool shutdown_requested_ = false;
  std::vector<std::thread> lanes_;

  std::atomic<std::uint64_t> trace_seq_{0};
};

}  // namespace pdw::service
