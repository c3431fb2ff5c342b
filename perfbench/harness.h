// Measurement plumbing shared by the perfbench workloads: percentiles with
// the samples-beyond rule, the in-memory span tracer and its self-time
// computation, the open-loop arrival schedule, and the result report.
// Nothing here knows about fuzzydb; the workloads call into the library and
// use these helpers to time and record those calls from the outside.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// ---------------------------------------------------------------- stats --

/// Nearest-rank percentile (q in (0, 100]) of unsorted samples; 0 when
/// there are none.
double Percentile(std::vector<double> samples, double q);

/// Samples strictly above the nearest-rank q-th percentile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// The highest of 50, 90, 99, 99.9 whose nearest-rank percentile of n
/// samples leaves at least `min_beyond` samples above it; 0 when not even
/// the median does. At 100 samples that is 90, at 1000 it is 99.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// Median latency of the last tenth of `arrival_ordered` over that of the
/// first tenth; a value well above 1 means the backlog grew during the
/// phase. 0 with fewer than 20 samples.
double BacklogRatio(const std::vector<double>& arrival_ordered);

/// num / den, or 0 when den is 0 (a ratio over an empty base).
double Ratio(double num, double den);

// ---------------------------------------------------------------- trace --

/// One timed interval. `parent` is the id of the span that caused it (-1
/// for a root); spans of one request share `query`.
struct Span {
  std::string name;
  int64_t id = -1;
  int64_t parent = -1;
  uint64_t query = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span buffer. Record() is thread-safe; spans are only written
/// out by WriteJsonl(), once, when the run ends.
class Tracer {
 public:
  /// Appends a span and returns its id.
  int64_t Record(std::string name, int64_t parent, uint64_t query,
                 Clock::time_point start, Clock::time_point end);

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

  /// Writes one JSON object per span (times in µs from `origin`).
  bool WriteJsonl(const std::string& path, Clock::time_point origin) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span in ms, indexed like `spans`: its duration minus
/// the part of its interval covered by the union of its children
/// (children clipped to the parent, overlaps counted once).
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

/// Self times (ms) of the spans named `name`.
std::vector<double> SelfTimesOf(const std::vector<Span>& spans,
                                const std::string& name);

/// Durations (ms) of the spans named `name`.
std::vector<double> DurationsOf(const std::vector<Span>& spans,
                                const std::string& name);

// ------------------------------------------------------------ open loop --

/// Arrival offsets of a Poisson process at `rate` per second over
/// `seconds`, conditioned on its expected count: round(rate * seconds)
/// uniform points, sorted. Same seed, same schedule.
std::vector<Clock::duration> PoissonOffsets(double rate, double seconds,
                                            uint64_t seed);

/// Drives an open loop: calls issue(i, due) for every offset in order, at
/// start + offsets[i] or as soon after as the previous issue returned. It
/// never skips or delays a request because an earlier one is slow, so a
/// stall shows as latency of the requests due during it (time latency from
/// `due`, not from the call). `idle` runs before every issue and while
/// waiting for the next due time. Returns each request's generator lag in
/// ms (call time - due).
std::vector<double> RunSchedule(
    const std::vector<Clock::duration>& offsets, Clock::time_point start,
    const std::function<void(size_t, Clock::time_point)>& issue,
    const std::function<void()>& idle);

// --------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  const Metric* Find(const std::string& name) const;
};

/// The one-line JSON result object the benchmark prints last.
std::string ResultJson(const RunResult& result);

/// Peak resident set of this process, MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
