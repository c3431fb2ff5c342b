#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <thread>
#include <unordered_map>

namespace perfbench {

// ---------------------------------------------------------------- stats --

namespace {

size_t NearestRank(size_t n, double q) {
  const auto rank = static_cast<size_t>(std::ceil(q / 100.0 * n - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  for (double q : {99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0.0;
}

double BacklogRatio(const std::vector<double>& arrival_ordered) {
  const size_t tenth = arrival_ordered.size() / 10;
  if (tenth < 2) return 0.0;
  const std::vector<double> first(arrival_ordered.begin(),
                                  arrival_ordered.begin() + tenth);
  const std::vector<double> last(arrival_ordered.end() - tenth,
                                 arrival_ordered.end());
  return Ratio(Percentile(last, 50), Percentile(first, 50));
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ---------------------------------------------------------------- trace --

int64_t Tracer::Record(std::string name, int64_t parent, uint64_t query,
                       Clock::time_point start, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<int64_t>(spans_.size());
  spans_.push_back({std::move(name), id, parent, query, start, end});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path,
                        Clock::time_point origin) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  char line[512];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"id\":%lld,\"parent\":%lld,\"query\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.query), s.name.c_str(),
                  us(s.start), us(s.end));
    out << line;
  }
  return static_cast<bool>(out);
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto it = index.find(spans[i].parent);
    if (it != index.end()) children[it->second].push_back(i);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (size_t c : children[i]) {
      const auto a = std::max(spans[c].start, p.start);
      const auto b = std::min(spans[c].end, p.end);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    Clock::duration covered{0};
    Clock::time_point reach = p.start;
    for (const auto& [a, b] : cover) {
      const auto from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[i] = Ms((p.end - p.start) - covered);
  }
  return self;
}

std::vector<double> SelfTimesOf(const std::vector<Span>& spans,
                                const std::string& name) {
  const std::vector<double> self = SelfTimesMs(spans);
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) out.push_back(self[i]);
  }
  return out;
}

std::vector<double> DurationsOf(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(Ms(s.end - s.start));
  }
  return out;
}

// ------------------------------------------------------------ open loop --

std::vector<Clock::duration> PoissonOffsets(double rate, double seconds,
                                            uint64_t seed) {
  const auto n = static_cast<size_t>(std::llround(rate * seconds));
  std::mt19937_64 rng(seed);
  std::vector<Clock::duration> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    out.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(u * seconds)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> RunSchedule(
    const std::vector<Clock::duration>& offsets, Clock::time_point start,
    const std::function<void(size_t, Clock::time_point)>& issue,
    const std::function<void()>& idle) {
  constexpr auto kPollSlice = std::chrono::microseconds(200);
  // The last stretch before a due time is spun, not slept: a sleep's
  // wake-up overshoot (tens of µs, varying with host load) would otherwise
  // be charged to every request as latency.
  constexpr auto kSpin = std::chrono::microseconds(150);
  std::vector<double> lag_ms(offsets.size());
  for (size_t i = 0; i < offsets.size(); ++i) {
    const Clock::time_point due = start + offsets[i];
    idle();  // also when running late, so completions never pile up
    for (auto now = Clock::now(); due - now > kSpin; now = Clock::now()) {
      std::this_thread::sleep_for(
          std::min<Clock::duration>(due - now - kSpin, kPollSlice));
      idle();
    }
    while (Clock::now() < due) {
    }
    lag_ms[i] = Ms(Clock::now() - due);
    issue(i, due);
  }
  return lag_ms;
}

// --------------------------------------------------------------- report --

const Metric* RunResult::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  char num[64];
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

}  // namespace perfbench
