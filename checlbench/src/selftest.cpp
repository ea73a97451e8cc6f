// selftest.cpp — the benchmark checks its own arithmetic on fixed inputs
// with known answers before every run.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "bench.h"

namespace checlbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest: %s\n", what.c_str());
  }
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, shuffled order
  expect(percentile(v, 0.5) == 50, "p50 of 1..100 is 50");
  expect(percentile(v, 0.9) == 90, "p90 of 1..100 is 90");
  expect(percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  expect(percentile({7}, 0.9) == 7, "percentile of one sample is that sample");
  expect(percentile({}, 0.5) == 0, "percentile of nothing is 0");
  expect(samples_beyond(100, 0.9) == 10, "p90 of 100 has 10 beyond");
  expect(samples_beyond(99, 0.9) == 9, "p90 of 99 has 9 beyond");
  expect(samples_needed(0.5) == 20, "p50 needs 20 samples");
  expect(samples_needed(0.9) == 100, "p90 needs 100 samples");
  expect(samples_needed(0.99) == 1000, "p99 needs 1000 samples");
  expect(highest_supported(19, {0.5, 0.9, 0.99}) == 0, "19 samples support nothing");
  expect(highest_supported(20, {0.5, 0.9, 0.99}) == 0.5, "20 samples support p50");
  expect(highest_supported(999, {0.5, 0.9, 0.99}) == 0.9, "999 samples support p90");
  expect(highest_supported(1000, {0.5, 0.9, 0.99}) == 0.99, "1000 samples support p99");
}

void self_time() {
  Tracer t;
  t.arm(true);
  t.open(Layer::bench, "op", 0);          // 0 .. 100
  t.open(Layer::wrapper, "clFinish", 10);  // 10 .. 30
  t.open(Layer::ipc, "rpc", 12);           // 12 .. 20, inside clFinish
  t.close(20);
  t.close(30);
  t.open(Layer::wrapper, "clFinish", 50);  // 50 .. 60
  t.close(60);
  expect(t.close(100) == 100, "op span lasts 100");
  expect(t.self_ns(Layer::bench) == 70, "op self time = 100 - 20 - 10");
  expect(t.self_ns(Layer::wrapper) == 22, "wrapper self time = 12 + 10");
  expect(t.self_ns(Layer::ipc) == 8, "leaf self time = its duration");
  expect(t.records().size() == 4 && t.records()[2].parent == 1 &&
             t.records()[1].parent == 0 && t.records()[0].parent == -1,
         "spans nest by caller");
}

// A child that burns CPU, then exits: its time must appear in the
// RUSAGE_CHILDREN delta once reaped, match /proc/<pid>/stat read just before,
// and not appear in our own usage.
void reaped_child() {
  int fds[2];
  if (pipe(fds) != 0) {
    expect(false, "pipe");
    return;
  }
  const Usage self0 = usage_self();
  const Usage c0 = usage_children();
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    volatile double x = 0;
    const std::uint64_t t0 = now_ns();
    while (now_ns() - t0 < 150'000'000ull) x = x + 1;
    const char go = 1;
    if (write(fds[1], &go, 1) != 1) _exit(1);
    pause();  // stays alive until killed, so /proc can be read first
    _exit(0);
  }
  close(fds[1]);
  char go = 0;
  const bool burned = read(fds[0], &go, 1) == 1;
  close(fds[0]);
  const double proc = proc_stat_cpu_s(pid);
  kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  const Usage d = usage_delta(usage_children(), c0);
  const double self = usage_delta(usage_self(), self0).cpu_s();
  expect(burned, "child ran");
  expect(d.cpu_s() >= 0.10 && d.cpu_s() <= 0.6, "reaped child's ~0.15 s CPU is counted");
  expect(near(d.cpu_s(), proc, 0.05), "RUSAGE_CHILDREN delta agrees with /proc/<pid>/stat");
  expect(self < d.cpu_s(), "the child's CPU is not our own");
}

// Ten groups of two-op passes at 100 ops/s, one of them slowed to 1/6 of
// that: the median group rate ignores it; a loop too short for two groups
// falls back to ops over wall time.
void grouped_throughput() {
  Loop loop;
  loop.first_index = 1;  // ms[0] is not on a pass boundary and is left out
  std::uint64_t t = 0;
  for (std::size_t k = 0; k < 22; ++k) {
    loop.start_ns.push_back(t);
    const std::uint64_t dur = (k == 5 || k == 6) ? 60'000'000 : 10'000'000;
    loop.ms.push_back(static_cast<double>(dur) / 1e6);
    t += dur;
  }
  loop.end_ns = t;
  loop.wall_s = static_cast<double>(t) / 1e9;
  expect(near(ops_per_s(loop, 2), 100, 1e-9), "median group rate is 100/s");
  expect(op_percentile(loop, 2, 0.5) == 10, "one group of 20 is too few: whole-loop p50");
  Loop big;  // 10 groups of 20 ops: group p50s are 1 except one group at 9
  for (std::size_t k = 0; k < 200; ++k) {
    big.start_ns.push_back(k);
    big.ms.push_back(k >= 20 && k < 40 ? 9.0 : (k % 2 == 0 ? 1.0 : 2.0));
  }
  big.end_ns = 200;
  big.wall_s = 200e-9;
  expect(op_percentile(big, 20, 0.5) == 1, "median of the groups' p50s");
  expect(op_percentile(big, 20, 0.9) == 2, "two groups of 100 are too few: whole-loop p90");
  Loop wide;  // 600 ops in passes of 20: p90 groups of 5 passes, one all 9s
  for (std::size_t k = 0; k < 600; ++k) {
    wide.start_ns.push_back(k);
    wide.ms.push_back(k >= 100 && k < 200 ? 9.0 : (k % 2 == 0 ? 1.0 : 2.0));
  }
  wide.end_ns = 600;
  wide.wall_s = 600e-9;
  expect(percentile(wide.ms, 0.9) == 9, "whole-loop p90 sits in the slow group");
  expect(op_percentile(wide, 20, 0.9) == 2, "median of six group p90s ignores it");
  Loop shorter;
  shorter.ms = {10, 10, 10};
  shorter.start_ns = {0, 10'000'000, 20'000'000};
  shorter.end_ns = 30'000'000;
  shorter.wall_s = 0.03;
  expect(near(ops_per_s(shorter, 2), 100, 1e-9), "under two groups: ops / wall");
}

void ratios() {
  Metrics m;
  m.add("wrapper.calls", 200, "count");
  m.ratio("ipc.roundtrips_per_call", 150, 200, "ratio", "wrapper.calls");
  m.ratio("orphan_ratio", 1, 2, "ratio", "absent.base");
  expect(m.find("ipc.roundtrips_per_call")->value == 0.75, "ratio value");
  expect(m.missing_bases().size() == 1 && m.missing_bases()[0] == "orphan_ratio",
         "a ratio without its base is caught");
  m.ratio("zero_den", 1, 0, "ratio", "wrapper.calls");
  expect(m.find("zero_den")->value == 0, "a ratio over nothing is 0");
  expect(m.json().find("\"wrapper.calls\": {\"value\": 200, \"unit\": \"count\"}") !=
             std::string::npos,
         "metric JSON shape");
}

}  // namespace

bool selftest() {
  g_failures = 0;
  percentiles();
  self_time();
  reaped_child();
  grouped_throughput();
  ratios();
  return g_failures == 0;
}

}  // namespace checlbench
