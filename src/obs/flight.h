// pdw::obs — solver flight recorder.
//
// A bounded per-lane ring buffer of structured branch-and-bound search
// events: node open/solved/pruned/branched, incumbent updates, bound-delta
// sizes, warm-miss→cold fallbacks, basis refactorizations, degenerate
// dual-pivot stalls. One recorder per branch-and-bound solve, like the
// LpBackend it instruments — recording is single-threaded by design and
// costs one branch plus a ring-slot write per event. A lane with no
// recorder attached pays exactly one null-pointer check per site, so the
// search loop is unchanged when the feature is off.
//
// The ring keeps the *latest* `ring_capacity` events (the tail of the
// search is what explains where a slow solve went); per-kind counts stay
// exact regardless of overflow, so dumps always reconcile with the metrics
// registry's batched `ilp.*` counters even when events were dropped.
//
// Dumps append to a JSONL file (`pdw-flight-1`): one `"type":"solve"`
// header line per dumped solve — lane, final status, wall seconds, exact
// per-kind counts, dropped count — followed by one `"type":"event"` line
// per retained event, oldest first. Triggers (FlightConfig): every solve
// (`dump_all`, the explicit --flight-out mode), solves that hit their
// time/node/iteration budget (`dump_on_limit`), or solves slower than
// `slow_solve_seconds`. tools/obs_check --flight validates the stream and
// reconciles its counts against a pdw-metrics-1 export.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pdw::obs {

enum class FlightEventKind : std::uint8_t {
  SolveBegin,      ///< value = model vars, extra = integer vars
  NodeOpen,        ///< node popped for exploration; value = inherited bound
  NodeSolved,      ///< node LP finished; value = LP objective, extra = pivots
  NodePruned,      ///< value = bound/objective, extra = reason (see below)
  NodeBranched,    ///< value = branch variable id, extra = fractional value
  Incumbent,       ///< value = objective, extra = nodes explored so far
  BoundDelta,      ///< value = bound changes applied moving to this node
  WarmMiss,        ///< non-root node LP fell back to a cold solve
  Refactorization, ///< sparse basis (re)factorized (revised engine)
  DualStall,       ///< degenerate dual-pivot stall aborted a warm re-solve
  CutAdded,        ///< root cut materialized; value = violation,
                   ///< extra = family (0 = Gomory, 1 = cover)
};
inline constexpr int kFlightEventKinds = 11;

/// NodePruned reason codes (the `extra` payload).
enum : int {
  kPruneReasonInheritedBound = 0,  ///< pruned before its LP ran
  kPruneReasonInfeasible = 1,      ///< node LP infeasible
  kPruneReasonLpBound = 2,         ///< LP objective at/above the incumbent
};

/// Dump-event-kind name ("node_open", ...), stable schema vocabulary.
const char* toString(FlightEventKind kind);

struct FlightEvent {
  std::uint64_t t_us = 0;  ///< microseconds since recorder construction
  std::int64_t node = -1;  ///< branch-and-bound node id, -1 when n/a
  double value = 0.0;      ///< kind-specific payload (see FlightEventKind)
  double extra = 0.0;      ///< kind-specific secondary payload
  std::uint32_t seq = 0;   ///< 0-based sequence number within the recorder
  FlightEventKind kind = FlightEventKind::SolveBegin;
};

/// Recording/dump policy; carried by ilp::SolveParams so it reaches every
/// lane without new plumbing.
struct FlightConfig {
  /// Master switch: lanes only construct a recorder when true.
  bool enabled = false;
  /// JSONL sink (appended to, possibly by many lanes/solves). Empty
  /// disables dumping; events are still recorded and inspectable in-process.
  std::string path;
  /// Dump every solve regardless of outcome (the --flight-out mode, where
  /// the whole stream must reconcile with the registry counters).
  bool dump_all = false;
  /// Dump solves that ended on their time/node/iteration budget.
  bool dump_on_limit = true;
  /// Dump solves slower than this many wall-clock seconds.
  double slow_solve_seconds = 5.0;
  /// Ring size in events; older events beyond it are counted, not kept.
  std::size_t ring_capacity = 8192;
};

class FlightRecorder {
 public:
  /// `lane` labels the dump (the solver always writes "canonical"). A zero
  /// ring capacity is clamped to 1.
  FlightRecorder(const FlightConfig& config, std::string lane);

  void record(FlightEventKind kind, std::int64_t node = -1,
              double value = 0.0, double extra = 0.0);

  /// Exact per-kind count, unaffected by ring overflow.
  std::int64_t count(FlightEventKind kind) const {
    return counts_[static_cast<int>(kind)];
  }
  /// Total events recorded / retained in the ring / overwritten.
  std::int64_t recorded() const { return recorded_; }
  std::size_t retained() const;
  std::int64_t dropped() const {
    return recorded_ - static_cast<std::int64_t>(retained());
  }
  /// Retained event by position, oldest first (0 <= i < retained()).
  const FlightEvent& event(std::size_t i) const;

  const std::string& lane() const { return lane_; }
  const FlightConfig& config() const { return config_; }

  /// Dump policy for a finished solve (pure; does not write).
  bool shouldDump(bool hit_limit, double wall_seconds) const;

  /// Append one solve block (header + retained events) to config().path.
  /// Serialized process-wide so concurrent lanes never interleave blocks.
  /// False when the path is empty or on I/O failure.
  bool dump(const char* status, double wall_seconds) const;

 private:
  FlightConfig config_;
  std::string lane_;
  std::uint64_t start_ns_ = 0;
  std::vector<FlightEvent> ring_;  ///< write cursor = recorded_ % capacity
  std::int64_t counts_[kFlightEventKinds] = {};
  std::int64_t recorded_ = 0;
};

}  // namespace pdw::obs
