// bench.h — shared plumbing of the checlbench wall-clock benchmark: the
// percentile rule, the metric sheet, process-tree CPU accounting and the
// span tracer.  Everything here measures CheCL from the outside; nothing in
// src/ knows it exists.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace checlbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- percentiles -----------------------------------------------------------
// Nearest-rank percentile: the value at sorted index ceil(q*n)-1.  0 for an
// empty sample.
double percentile(std::vector<double> v, double q);
// How many samples lie above the nearest-rank q-th value: n - ceil(q*n).
std::size_t samples_beyond(std::size_t n, double q);
// Samples needed before percentile q has at least ten samples beyond it.
std::size_t samples_needed(double q);
// The highest of `qs` that has at least ten samples beyond it in a sample of
// size n; 0 when none does.
double highest_supported(std::size_t n, std::initializer_list<double> qs);

// ---- the op loop's record --------------------------------------------------
// One closed op loop: every op's latency and issue time.
struct Loop {
  std::vector<double> ms;
  std::vector<std::uint64_t> start_ns;  // when each op was issued
  std::uint64_t end_ns = 0;             // when the loop stopped
  std::uint64_t first_index = 0;        // op index of ms[0]
  std::uint64_t failed = 0;
  double wall_s = 0;
};

// Throughput as the median over groups of whole passes of the seed's op
// sequence (about ten groups): every group carries the same mix of work, and
// a burst of CPU stolen by other guests moves one group, not the median.
// Ops before the first pass boundary and after the last complete group are
// left out.  Falls back to the whole loop when it holds under three groups.
double ops_per_s(const Loop& loop, std::uint64_t pass);
// Op latency percentile q, grouped the same way, each group grown to whole
// passes holding enough samples for q (ten beyond it): the median of the
// groups' q-th percentiles, or q over the whole loop under three groups.
double op_percentile(const Loop& loop, std::uint64_t pass, double q);

// ---- the metric sheet ------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  // ratios only: the metric this one is divided by
};

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  // A ratio num/den whose denominator is reported as metric `base`
  // (0 when den is 0).
  void ratio(const std::string& name, double num, double den,
             const std::string& unit, const std::string& base);
  [[nodiscard]] const Metric* find(const std::string& name) const;
  // Ratios whose base metric is absent from the sheet.
  [[nodiscard]] std::vector<std::string> missing_bases() const;
  // {"name": {"value": v, "unit": u}, ...}
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Metric> m_;
};

// Shortest round-trip text for a double, as JSON accepts it.
std::string json_number(double v);
std::string json_string(const std::string& s);

// ---- process-tree accounting ---------------------------------------------
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long maxrss_kb = 0;
  long ctxsw = 0;  // voluntary + involuntary
  [[nodiscard]] double cpu_s() const noexcept { return user_s + sys_s; }
};
Usage usage_self();
// Every reaped child (and its threads), cumulative.
Usage usage_children();
// a - b for the counters; maxrss keeps a's high-water mark.
Usage usage_delta(const Usage& a, const Usage& b);

// utime + stime of process `pid` from /proc/<pid>/stat: every thread, live or
// exited.  Negative when the process cannot be read.
double proc_stat_cpu_s(pid_t pid, double* sys_s = nullptr);

// ---- tracing ---------------------------------------------------------------
enum class Layer : std::uint8_t {
  bench,  // the benchmark's own op loop
  wrapper,
  ipc,
  proxy,
  clc,
  simcl,
  cpr,
  slimcr,
  snapstore,
  kCount
};
const char* layer_name(Layer l) noexcept;
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

class Tracer {
 public:
  struct Rec {
    const char* name;
    Layer layer;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    std::int64_t parent;  // index into records(), -1 at top level
  };

  explicit Tracer(std::size_t max_records = 200000) : cap_(max_records) {}

  void arm(bool on) noexcept { armed_ = on; }
  [[nodiscard]] bool armed() const noexcept { return armed_; }

  // Opens a span under the innermost open one.  Explicit timestamps keep the
  // arithmetic testable; Span below feeds now_ns().
  void open(Layer l, const char* name, std::uint64_t t);
  // Closes the innermost span; returns its duration.
  std::uint64_t close(std::uint64_t t);

  // Span time of layer l minus what its child spans cover.
  [[nodiscard]] std::uint64_t self_ns(Layer l) const noexcept {
    return self_ns_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] const std::vector<Rec>& records() const noexcept { return recs_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  // Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  // `meta_json` is an object placed under "metadata".
  bool write_chrome(const std::string& path, const std::string& meta_json) const;

 private:
  struct Open {
    const char* name;
    Layer layer;
    std::uint64_t start;
    std::uint64_t child_ns;
    std::int64_t rec;  // -1 when the record cap was hit
  };
  bool armed_ = false;
  std::size_t cap_;
  std::uint64_t dropped_ = 0;
  std::vector<Open> stack_;
  std::vector<Rec> recs_;
  std::uint64_t self_ns_[kLayers] = {};
};

Tracer& tracer();

// RAII span on the process tracer; free when the tracer is disarmed.
class Span {
 public:
  Span(Layer l, const char* name) : on_(tracer().armed()) {
    if (on_) tracer().open(l, name, now_ns());
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  // Ends the span early; returns its duration (0 when disarmed).
  std::uint64_t close() {
    if (!on_) return 0;
    on_ = false;
    return tracer().close(now_ns());
  }

 private:
  bool on_;
};

// Self-test of the arithmetic above; prints failures to stderr.
bool selftest();

}  // namespace checlbench
