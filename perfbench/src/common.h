// Shared pieces of the benchmark binary: command-line arguments, the result
// every workload returns, order statistics, and the span recorder of the
// traced run.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int nproc = 1;
  /// Scratch directory inside the checkout (store directories, span dumps).
  std::string work_dir = ".bench_build/perfbench-work";
};

/// One named metric with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload phase returns. `failed` counts operations whose output
/// check failed; `correct` is false when any check failed.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The phase's set-up time (median of its repeats), untraced and, in a
  /// traced run, traced. A workload's setup_s is the sum over its phases.
  double setup_s = 0;
  double traced_setup_s = 0;
  std::vector<Metric> metrics;
  /// Extra facts about the run (sample counts, generator lateness), printed
  /// on the line before the result.
  std::vector<std::pair<std::string, double>> info;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Info(const std::string& name, double value) {
    info.emplace_back(name, value);
  }
  /// Records a failed check with a message on stderr.
  void Fail(const std::string& what, uint64_t count = 1);
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median (mean of the two middle values for even sizes); 0 when empty.
double Median(std::vector<double> values);

/// Linear-interpolated quantile q in [0, 1]; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// 64-bit mix of a seed and a stream id; never returns 0 (generators treat
/// seed 0 as "use the default").
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Spans of the traced run: name, start, end, parent span, request id.
/// Kept in memory and written as JSON lines when the run ends.
class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled).
  int Begin(const std::string& name, int parent = kNoParent);
  /// Closes span `id`.
  void End(int id);
  /// Records a finished span whose times were taken elsewhere.
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end, int parent, int64_t request_id);

  size_t size() const;
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    int64_t request_id;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span: Begin at construction, End at destruction or Stop().
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name,
             int parent = SpanRecorder::kNoParent)
      : rec_(rec), id_(rec->Begin(name, parent)), start_(Clock::now()) {}
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  /// Ends the span (idempotent) and returns the measured seconds.
  double Stop() {
    if (!stopped_) {
      stopped_ = true;
      seconds_ = SecondsSince(start_);
      rec_->End(id_);
    }
    return seconds_;
  }

 private:
  SpanRecorder* rec_;
  int id_;
  Clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0;
};

/// Parsed Prometheus exposition text: "name{labels}" -> value.
using Scrape = std::map<std::string, double>;
Scrape ParseScrape(const std::string& text);
/// Sum over the series of `family` (the name before any '{') whose label
/// set contains `label_filter` ("" matches every series).
double ScrapeSumWhere(const Scrape& s, const std::string& family,
                      const std::string& label_filter);

/// Creates `path` and its parents; removes a previous tree at `path` first
/// when `fresh`.
bool MakeDirs(const std::string& path, bool fresh);
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
