#ifndef COANE_PERFBENCH_HARNESS_H_
#define COANE_PERFBENCH_HARNESS_H_

// The benchmark's own plumbing, independent of the library under test:
// sample summaries, the open-loop schedule, the operation ledger, the
// result line, and the span tracer. Everything here is covered by
// perfbench/tests/harness_test.cc.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
double NowSeconds();

// --- Samples -------------------------------------------------------------

/// The percentile ladder a report may quote, lowest first.
inline const std::vector<double>& PercentileLadder() {
  static const std::vector<double> kLadder = {50.0, 90.0, 99.0, 99.9};
  return kLadder;
}

/// Number of samples strictly above the nearest-rank `p`-th percentile of
/// `n` samples.
int64_t SamplesBeyond(int64_t n, double p);

/// The highest ladder percentile with at least `min_beyond` (10) samples
/// beyond it, or 0 when even the median is not supported.
double HighestSupportedPercentile(int64_t n, int64_t min_beyond = 10);

/// Nearest-rank percentile of `values` (copied and sorted); NaN when empty.
double Percentile(std::vector<double> values, double p);

/// Median (nearest-rank p50 is biased for even n; this averages the two
/// middle values).
double Median(std::vector<double> values);

/// Robust percentile of a timed sample: `values[i]` was taken at `at[i]`.
/// The samples are cut into consecutive `window`-second windows from the
/// first one; each window with at least 10 samples beyond its p-th
/// percentile contributes that percentile, and the median of those is
/// returned (NaN when no window qualifies). A stall then moves one window,
/// not the run. `windows` (optional) receives the number that qualified.
double WindowedPercentile(const std::vector<double>& at,
                          const std::vector<double>& values, double window,
                          double p, int64_t* windows = nullptr);

/// Median over complete `window`-second windows of the event rate inside
/// each window (events - 1 over the time from its first to its last
/// event); `at` holds the event times. NaN when no full window has two
/// events.
double WindowedRate(std::vector<double> at, double window);

// --- Open-loop schedule ---------------------------------------------------

/// Request i of an open loop at `rate` per second is due at
/// start + i / rate, whatever happened to earlier requests. Latency is
/// taken from the due time, so a stall also charges every request it
/// delayed.
struct OpenLoopSchedule {
  double start = 0.0;
  double rate = 1.0;
  double Due(int64_t i) const {
    return start + static_cast<double>(i) / rate;
  }
  /// How far behind its schedule request i went out at `sent` (>= 0).
  double Lateness(int64_t i, double sent) const {
    return sent > Due(i) ? sent - Due(i) : 0.0;
  }
};

// --- Metric names ----------------------------------------------------------

/// True for a name of 1..64 characters from [A-Za-z0-9_.-] starting with a
/// letter or digit.
bool ValidMetricName(const std::string& name);

/// True for a unit of 1..16 characters from [A-Za-z0-9_/%.-].
bool ValidUnit(const std::string& unit);

// --- Operation ledger ------------------------------------------------------

struct OpCounts {
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
};

/// Attempted / succeeded / failed per operation kind. Thread-safe.
class Ledger {
 public:
  void Record(const std::string& op, bool ok, int64_t count = 1);
  /// `count` failures of `op`, with a one-line reason kept for the report.
  void Fail(const std::string& op, const std::string& reason,
            int64_t count = 1);
  std::map<std::string, OpCounts> Snapshot() const;
  std::vector<std::string> Reasons() const;
  int64_t TotalAttempted() const;
  int64_t TotalFailed() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, OpCounts> ops_;
  std::vector<std::string> reasons_;
};

// --- Result line -------------------------------------------------------------

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

/// The last line the benchmark prints.
struct RunResult {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, MetricValue> metrics;
};

/// One-line JSON with exactly the keys correct, attempted, failed and
/// metrics. Values are printed with 17 significant digits.
std::string RenderResult(const RunResult& result);

/// Escapes `s` as a JSON string literal (with quotes).
std::string JsonString(const std::string& s);

/// A number as JSON: 17 significant digits, non-finite values as null.
std::string JsonNumber(double v);

// --- Span tracer -------------------------------------------------------------

/// Spans around the benchmark's calls into the library, kept in memory
/// and written at exit. Disabled, a span costs one relaxed load.
class Tracer {
 public:
  struct Event {
    std::string name;
    int64_t id = 0;
    int64_t parent = 0;  // 0 = root
    int64_t tid = 0;
    double start = 0.0;  // NowSeconds()
    double end = 0.0;
  };

  static Tracer& Global();

  void Enable(const std::string& run_id);
  bool enabled() const { return enabled_; }

  int64_t Begin(const char* name);
  void End(int64_t id);

  std::vector<Event> Events() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string ChromeTraceJson() const;

  /// Self time per layer (the span name up to its first '.') and per span
  /// name: duration minus the time covered by direct children.
  std::string SelfTimeTable() const;

 private:
  bool enabled_ = false;
  std::string run_id_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  int64_t next_id_ = 1;
};

/// RAII span on the global tracer.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t id_ = 0;
};

/// Self time of each event: its duration minus the union of its direct
/// children's intervals (children are clipped to the parent).
std::vector<double> SelfTimes(const std::vector<Tracer::Event>& events);

}  // namespace perfbench

#endif  // COANE_PERFBENCH_HARNESS_H_
