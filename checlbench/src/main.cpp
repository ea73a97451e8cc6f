// checlbench — one wall-clock benchmark for CheCL.
//
//   checlbench --workload fig4-slice|api-chatty|ckpt-cycle --seed N
//              --seconds S --trace 0|1 --dir RUN_DIR [--trace-out FILE]
//              [--stamp JSON]
//
// A run: set up the app several times (each a fresh process image with a
// freshly forked checl_proxyd), warm up, checkpoint + restart the app (the
// ckpt-cycle workload does that inside every op instead), then run the
// closed op loop for S seconds.  The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.  Every file the run
// writes lives under RUN_DIR.  The arithmetic self-test runs first.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "apps.h"
#include "bench.h"
#include "checl/checl.h"
#include "layers.h"
#include "proxy/client.h"
#include "workloads/harness.h"
#include "wrap.h"

extern char** environ;

namespace checlbench {
namespace {

struct Args {
  std::string workload;
  std::string dir;
  std::string trace_out;
  std::string stamp = "{}";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

constexpr int kSetupReps = 11;       // setup_s is the median of these
constexpr int kCkptCycles = 40;      // ckpt/restore samples (p50 needs 20)
constexpr std::size_t kPings = 2000;  // p99 + 10 beyond
constexpr double kCapSeconds = 100;  // hard stop for the op loop (both halves together)

// Refuses every CheCL tuning toggle: the benchmark measures runtime defaults.
// CHECL_PROXYD (the helper binary) is the only CHECL_ variable allowed.
bool env_is_default(std::string* why) {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("CHECL_", 0) != 0) continue;
    const std::string key = kv.substr(0, kv.find('='));
    if (key == "CHECL_PROXYD") continue;
    *why = key + " is set; unset every CHECL_* tuning variable";
    return false;
  }
  const char* proxyd = std::getenv("CHECL_PROXYD");
  if (proxyd == nullptr || !std::filesystem::exists(proxyd)) {
    *why = "CHECL_PROXYD must name the checl_proxyd binary";
    return false;
  }
  return true;
}

// The runtime must have forked a real checl_proxyd: a live child process
// whose own pid the server reports, not this process (thread transport).
bool forked_proxy(std::string* why) {
  auto& rt = checl::CheclRuntime::instance();
  const pid_t pid = rt.proxy_pid();
  std::uint32_t served_by = 0;
  proxy::Client* c = rt.client();
  if (c == nullptr || c->ping(&served_by) != CL_SUCCESS) {
    *why = "no proxy answers";
    return false;
  }
  if (pid <= 0 || pid == getpid() || static_cast<pid_t>(served_by) != pid) {
    *why = "proxy is not a forked checl_proxyd (pid " + std::to_string(pid) +
           ", served by " + std::to_string(served_by) + ")";
    return false;
  }
  return true;
}

double p50(const std::vector<double>& v) { return percentile(v, 0.5); }

class Runner {
 public:
  explicit Runner(Args a) : a_(std::move(a)), dirs_{a_.dir}, probe_(a_.dir) {}

  int run() {
    auto& rt = checl::CheclRuntime::instance();
    tracer().arm(a_.trace);

    // ---- set-up, several times; the last one stays up --------------------
    for (int rep = 0; rep < kSetupReps; ++rep) {
      if (app_ != nullptr) app_->teardown();
      ipc_meter().sample();
      app_ = make_app();
      if (app_ == nullptr) return fail("unknown workload " + a_.workload);
      workloads::fresh_process(workloads::Binding::CheCL, bench_node());
      rt.checkpoint_path = dirs_.ckpt();
      rt.store_root = dirs_.root + "/store";
      if (a_.trace) bind_timed();
      const std::uint64_t t0 = now_ns();
      bool ok = false;
      {
        Span span(Layer::bench, "setup");
        const std::uint64_t ts = now_ns();
        cl_int err = CL_SUCCESS;
        {
          Span spawn(Layer::proxy, "CheclRuntime::ensure_proxy");
          err = rt.ensure_proxy();
        }
        spawn_ms_.push_back(static_cast<double>(now_ns() - ts) / 1e6);
        ok = err == CL_SUCCESS && app_->setup();
      }
      setup_s_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      if (!ok) return fail("set-up failed");
      std::string why;
      if (!forked_proxy(&why)) return fail(why);
    }

    app_pass_ = app_->pass_ops();
    ckpt_from_ops_ = app_->op_checkpoints();

    // ---- warm-up: one pass (at most 256 ops) ----------------------------
    const std::uint64_t warm = std::min<std::uint64_t>(app_->pass_ops(), 256);
    for (std::uint64_t i = 0; i < warm; ++i) count(app_->op(i));
    take_ckpt_samples();
    const checl::replay::ExecCounters rc0 = rt.engine().restore_counters();

    // ---- checkpoint + restart the app ------------------------------------
    if (!app_->op_checkpoints()) {
      for (int c = 0; c < kCkptCycles; ++c) {
        Span span(Layer::bench, "checkpoint+restart");
        CkptSample s;
        const bool ok = checkpoint_restart(dirs_, &s) && app_->check_after_restart();
        count(ok);
        if (ok) add_ckpt(s);
      }
    }

    // ---- the measured op loop ---------------------------------------------
    const pid_t pid0 = rt.proxy_pid();
    double proxy_sys0 = 0;
    const double proxy_cpu0 = proc_stat_cpu_s(pid0, &proxy_sys0);
    const Usage self0 = usage_self();
    const Usage child0 = usage_children();
    std::uint64_t idx = warm;  // op indices stay unique across warm-up and loop
    Loop loop;
    if (a_.trace) {
      ipc_meter().sample();
      tracer().arm(false);
      untraced_ = run_loop(a_.seconds / 2, samples_needed(0.5), kCapSeconds / 2, &idx);
      ipc_meter().skip();
      tracer().arm(true);
      loop = run_loop(a_.seconds / 2, samples_needed(0.5), kCapSeconds / 2, &idx);
      loop.failed += untraced_.failed;
      attempted_ += untraced_.ms.size();
    } else {
      loop = run_loop(a_.seconds, samples_needed(0.9), kCapSeconds, &idx);
    }
    attempted_ += loop.ms.size();
    failed_ += loop.failed;
    const Usage self1 = usage_self();
    const Usage child_mid = usage_children();
    const double proxy_cpu_live = proc_stat_cpu_s(rt.proxy_pid());

    PingResult ping;
    if (a_.trace) {
      ipc_meter().sample();
      Span span(Layer::bench, "ping probe");
      ping = probe_ping(kPings);
      ipc_meter().skip();
      probes_ok_ = ping.ok && probes_ok_;
    }

    verified_ = app_->verify();
    const checl::replay::ExecCounters rc1 = rt.engine().restore_counters();
    app_->teardown();
    app_.reset();
    ipc_meter().sample();
    rt.reset_all();  // shuts the last proxy down and reaps it
    const Usage child1 = usage_children();

    // ---- process-tree accounting over the loop --------------------------
    const Usage child = usage_delta(child1, child0);
    const double self_cpu = usage_delta(self1, self0).cpu_s();
    proxy_cpu_ = child.cpu_s() - std::max(proxy_cpu0, 0.0);
    proxy_sys_ = child.sys_s - proxy_sys0;
    // No baseline is subtracted: no source counts the switches of the first
    // proxy's exited threads before the loop, so this covers the whole life
    // of every proxy that was up during the loop.
    proxy_ctxsw_ = static_cast<double>(child.ctxsw);
    // Cross-check from /proc before teardown: reaped-in-loop + live proxy.
    proxy_cpu_proc_ = usage_delta(child_mid, child0).cpu_s() +
                      std::max(proxy_cpu_live, 0.0) - std::max(proxy_cpu0, 0.0);
    peak_rss_mb_ = static_cast<double>(std::max(self1.maxrss_kb, child1.maxrss_kb)) / 1024;
    cpu_s_ = self_cpu + proxy_cpu_;

    Metrics m;
    if (a_.trace) {
      per_layer(m, loop, ping, rc0, rc1);
    } else {
      end_to_end(m, loop);
    }
    for (const std::string& r : m.missing_bases()) note("ratio without its base: " + r);
    const bool correct = failed_ == 0 && verified_ && probes_ok_ &&
                         m.missing_bases().empty();
    if (!verified_) note("final verify() failed");
    if (!probes_ok_) note("a layer probe failed");
    if (a_.trace && !a_.trace_out.empty()) {
      const std::string meta = "{\"workload\": " + json_string(a_.workload) +
                               ", \"seed\": " + std::to_string(a_.seed) +
                               ", \"dropped_spans\": " + std::to_string(tracer().dropped()) +
                               ", \"stamp\": " + a_.stamp + "}";
      if (!tracer().write_chrome(a_.trace_out, meta)) note("cannot write " + a_.trace_out);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), m.json().c_str());
    std::fflush(stdout);
    return 0;
  }

 private:
  std::unique_ptr<App> make_app() {
    if (a_.workload == "fig4-slice") return make_fig4_slice(a_.seed);
    if (a_.workload == "api-chatty") return make_api_chatty(a_.seed);
    if (a_.workload == "ckpt-cycle") return make_ckpt_cycle(a_.seed, dirs_);
    return nullptr;
  }

  int fail(const std::string& why) {
    std::fprintf(stderr, "checlbench: %s\n", why.c_str());
    return 1;
  }
  void note(const std::string& s) { std::fprintf(stderr, "checlbench: %s\n", s.c_str()); }

  void count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  void add_ckpt(const CkptSample& s) {
    ckpt_.push_back(s);
    if (tracer().armed()) {
      Span span(Layer::bench, "snapshot probe");
      probes_ok_ = probe_.run(dirs_.ckpt()) && probes_ok_;
    }
  }

  void take_ckpt_samples() {
    for (const CkptSample& s : app_->take_ckpt_samples()) add_ckpt(s);
  }

  // Closed loop: op i+1 is issued only after op i returned.  Runs at least
  // `seconds` and until `min_ops` samples exist, but never past `cap_s`.
  Loop run_loop(double seconds, std::size_t min_ops, double cap_s, std::uint64_t* idx) {
    Loop out;
    out.first_index = *idx;
    const std::uint64_t start = now_ns();
    const std::uint64_t pass = app_->pass_ops();
    for (;;) {
      const double el = static_cast<double>(now_ns() - start) / 1e9;
      if ((el >= seconds && out.ms.size() >= min_ops) || el >= cap_s) break;
      if (tracer().armed() && *idx % pass == 0) pass_clock_.push_back({*idx, virtual_now()});
      bool ok = false;
      const std::uint64_t t0 = now_ns();
      out.start_ns.push_back(t0);
      {
        Span span(Layer::bench, "op");
        ok = app_->op(*idx);
      }
      out.ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      if (!ok) ++out.failed;
      take_ckpt_samples();
      ++*idx;
    }
    out.end_ns = now_ns();
    out.wall_s = static_cast<double>(out.end_ns - start) / 1e9;
    if (out.ms.size() < min_ops) note("op loop hit its cap before enough samples");
    return out;
  }

  std::vector<double> ckpt_ms() const {
    std::vector<double> v;
    for (const CkptSample& s : ckpt_) v.push_back(s.ckpt_ms);
    return v;
  }
  std::vector<double> restore_ms() const {
    std::vector<double> v;
    for (const CkptSample& s : ckpt_) v.push_back(s.restore_ms);
    return v;
  }

  void end_to_end(Metrics& m, const Loop& loop) {
    const double n = static_cast<double>(loop.ms.size());
    m.add("setup_s", p50(setup_s_), "s");
    m.add("ops_per_s", ops_per_s(loop, app_pass_), "1/s");
    m.add("op_ms_p50", op_percentile(loop, app_pass_, 0.5), "ms");
    m.add("op_ms_p90", op_percentile(loop, app_pass_, 0.9), "ms");
    m.add("cpu_s", cpu_s_, "s");
    m.add("cpu_ms_per_op", n > 0 ? cpu_s_ * 1e3 / n : 0, "ms");
    m.add("peak_rss_mb", peak_rss_mb_, "MB");
    m.add("ckpt_ms_p50", p50(ckpt_ms()), "ms");
    m.add("restore_ms_p50", p50(restore_ms()), "ms");
    // Reported beside the JSON, not in it: the error rate (0 when all is
    // well; attempted/failed carry it) and the tail percentiles only some
    // workloads have samples for.
    std::fprintf(stderr, "checlbench: %s seed %llu: %zu ops, error_rate %.6g (%llu/%llu)\n",
                 a_.workload.c_str(), static_cast<unsigned long long>(a_.seed),
                 loop.ms.size(), attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0,
                 static_cast<unsigned long long>(failed_),
                 static_cast<unsigned long long>(attempted_));
    if (highest_supported(loop.ms.size(), {0.99}) > 0)
      std::fprintf(stderr, "checlbench:   op_ms_p99 %.4f ms\n", percentile(loop.ms, 0.99));
    if (highest_supported(ckpt_.size(), {0.9}) > 0)
      std::fprintf(stderr, "checlbench:   ckpt_ms_p90 %.4f ms, restore_ms_p90 %.4f ms\n",
                   percentile(ckpt_ms(), 0.9), percentile(restore_ms(), 0.9));
    std::fprintf(stderr, "checlbench:   proxy cpu %.4f s (rusage) vs %.4f s (/proc)\n",
                 proxy_cpu_, proxy_cpu_proc_);
  }

  void per_layer(Metrics& m, const Loop& loop, const PingResult& ping,
                 const checl::replay::ExecCounters& rc0,
                 const checl::replay::ExecCounters& rc1) {
    // wrapper
    const WrapperStats& w = wrapper_stats();
    auto kind = [&](CallKind k) { return p50(w.us[static_cast<std::size_t>(k)]); };
    m.add("wrapper.calls", static_cast<double>(w.calls), "count");
    m.add("wrapper.busy_s", static_cast<double>(w.busy_ns) / 1e9, "s");
    m.add("wrapper.write_us_p50", kind(CallKind::Write), "us");
    m.add("wrapper.read_us_p50", kind(CallKind::Read), "us");
    m.add("wrapper.setarg_us_p50", kind(CallKind::SetArg), "us");
    m.add("wrapper.ndrange_us_p50", kind(CallKind::NDRange), "us");
    m.add("wrapper.finish_ms_p50", kind(CallKind::Finish) / 1e3, "ms");
    m.add("wrapper.build_ms_p50", kind(CallKind::Build) / 1e3, "ms");
    m.add("wrapper.local_us_p50", p50(w.local_us), "us");
    // ipc
    const IpcMeter::Totals& t = ipc_meter().total;
    m.add("ipc.ping_us_p50", p50(ping.us), "us");
    m.add("ipc.ping_us_p99", percentile(ping.us, 0.99), "us");
    m.add("ipc.roundtrips", static_cast<double>(t.roundtrips), "count");
    m.ratio("ipc.roundtrips_per_call", static_cast<double>(w.roundtrips),
            static_cast<double>(w.calls), "ratio", "wrapper.calls");
    m.add("ipc.bytes", static_cast<double>(t.bytes), "B");
    m.add("ipc.shm_bytes", static_cast<double>(t.shm_bytes), "B");
    m.add("ipc.syscalls", static_cast<double>(t.syscalls), "count");
    m.add("ipc.shm_fallbacks", static_cast<double>(t.shm_fallbacks), "count");
    // proxy
    m.add("proxy.spawn_ms_p50", p50(spawn_ms_), "ms");
    m.add("proxy.cpu_s", proxy_cpu_, "s");
    m.add("proxy.cpu_s_proc", proxy_cpu_proc_, "s");
    m.add("proxy.sys_s", proxy_sys_, "s");
    m.add("proxy.ctxsw", proxy_ctxsw_, "count");
    // clc, then simcl natively: both run after the CheCL app is gone.
    ClcResult clc;
    SimclResult sim;
    {
      Span span(Layer::bench, "clc probe");
      clc = probe_clc();
    }
    {
      Span span(Layer::bench, "simcl native probe");
      sim = probe_simcl_native(a_.seed);
    }
    probes_ok_ = clc.ok && sim.ok && probes_ok_;
    m.add("clc.compile_ms_p50", p50(clc.compile_ms), "ms");
    m.add("clc.launch_ms_barrier", clc.launch_ms_barrier, "ms");
    m.add("clc.launch_ms_plain", clc.launch_ms_plain, "ms");
    m.add("clc.items", clc.items, "count");
    m.ratio("clc.items_per_s", clc.items, clc.launch_s, "1/s", "clc.items");
    m.add("simcl.iter_ms_p50", p50(sim.iter_ms), "ms");
    virtual_clock(m);
    // cpr, slimcr, snapstore
    double logical = 0, file = 0, ck_s = 0, rs_s = 0;
    std::vector<double> file_b, logical_b;
    for (const CkptSample& s : ckpt_) {
      logical += static_cast<double>(s.pt.logical_bytes);
      file += static_cast<double>(s.pt.file_bytes);
      file_b.push_back(static_cast<double>(s.pt.file_bytes));
      logical_b.push_back(static_cast<double>(s.pt.logical_bytes));
      ck_s += s.ckpt_ms / 1e3;
      rs_s += s.restore_ms / 1e3;
    }
    m.add("cpr.checkpoints", static_cast<double>(ckpt_.size()), "count");
    m.add("cpr.ckpt_bytes", p50(file_b), "B");
    m.add("cpr.logical_bytes", p50(logical_b), "B");
    m.add("cpr.logical_mb_total", logical / 1e6, "MB");
    m.ratio("cpr.ckpt_MBps", logical / 1e6, ck_s, "MB/s", "cpr.logical_mb_total");
    m.ratio("cpr.restore_MBps", logical / 1e6, rs_s, "MB/s", "cpr.logical_mb_total");
    m.add("slimcr.mb_total", probe_.bytes / 1e6, "MB");
    m.ratio("slimcr.save_MBps", probe_.bytes / 1e6, probe_.save_s, "MB/s", "slimcr.mb_total");
    m.ratio("slimcr.load_MBps", probe_.bytes / 1e6, probe_.load_s, "MB/s", "slimcr.mb_total");
    m.ratio("snapstore.put_MBps", probe_.bytes / 1e6, probe_.put_s, "MB/s", "slimcr.mb_total");
    m.ratio("snapstore.get_MBps", probe_.bytes / 1e6, probe_.get_s, "MB/s", "slimcr.mb_total");
    const snapstore::Stats* st = probe_.store_stats();
    const double raw = st != nullptr ? static_cast<double>(st->raw_bytes_in) : 0;
    m.add("snapstore.logical_bytes", raw, "B");
    m.ratio("snapstore.dedup_ratio",
            st != nullptr ? static_cast<double>(st->stored_bytes_written) : 0, raw, "ratio",
            "snapstore.logical_bytes");
    // replay
    m.add("replay.nodes_recreated", static_cast<double>(rc1.nodes_recreated - rc0.nodes_recreated), "count");
    m.add("replay.waves", static_cast<double>(rc1.waves - rc0.waves), "count");
    m.add("replay.max_concurrency", static_cast<double>(rc1.max_concurrency), "count");
    m.add("replay.rollbacks", static_cast<double>(rc1.rollbacks - rc0.rollbacks), "count");
    // self time per layer, from the spans
    for (std::size_t l = 0; l < kLayers; ++l) {
      const Layer layer = static_cast<Layer>(l);
      m.add(std::string(layer_name(layer)) + ".self_s",
            static_cast<double>(tracer().self_ns(layer)) / 1e9, "s");
    }
    // the tracer's own overhead: traced vs untraced halves of the op loop
    m.add("trace.op_ms_p50_untraced", p50(untraced_.ms), "ms");
    m.add("trace.op_ms_p50_traced", p50(loop.ms), "ms");
    m.ratio("trace.overhead_ratio", p50(loop.ms), p50(untraced_.ms), "ratio",
            "trace.op_ms_p50_untraced");
    m.add("trace.spans", static_cast<double>(tracer().records().size() + tracer().dropped()), "count");
  }

  // simcl.virtual_ns: the virtual clock of one pass over the seed's op
  // sequence (median over the complete passes), net of any checkpoint +
  // restart inside it, plus the median checkpoint PhaseTimes total.  Restart
  // is reported apart (cpr.restart_virtual_ns): the parallel restore's
  // list-scheduled makespan depends on the order worker threads reach the
  // proxy, so it does not repeat exactly.  virtual_repeat = 1 when every
  // pass and every checkpoint cost exactly the same virtual time.
  void virtual_clock(Metrics& m) {
    std::vector<std::uint64_t> passes;
    for (std::size_t k = 1; k < pass_clock_.size(); ++k) {
      const auto [i0, v0] = pass_clock_[k - 1];
      const auto [i1, v1] = pass_clock_[k];
      if (i1 - i0 != app_pass_) continue;
      std::uint64_t v = v1 - v0;
      for (const CkptSample& s : ckpt_)
        if (ckpt_from_ops_ && s.op >= i0 && s.op < i1) v -= s.v_end - s.v_start;
      passes.push_back(v);
    }
    std::vector<std::uint64_t> phase, restart;
    for (const CkptSample& s : ckpt_) {
      phase.push_back(s.pt.total_ns());
      restart.push_back(s.bd.total_ns());
    }
    auto median = [](std::vector<std::uint64_t> v) -> std::uint64_t {
      if (v.empty()) return 0;
      std::sort(v.begin(), v.end());
      return v[(v.size() - 1) / 2];
    };
    auto same = [](const std::vector<std::uint64_t>& v) {
      return !v.empty() && std::all_of(v.begin(), v.end(),
                                       [&](std::uint64_t x) { return x == v.front(); });
    };
    m.add("simcl.virtual_ns", static_cast<double>(median(passes) + median(phase)), "ns");
    m.add("simcl.virtual_repeat", same(passes) && same(phase) ? 1 : 0, "bool");
    m.add("simcl.virtual_passes", static_cast<double>(passes.size()), "count");
    m.add("cpr.restart_virtual_ns", static_cast<double>(median(restart)), "ns");
  }

  Args a_;
  RunDirs dirs_;
  SnapshotProbe probe_;
  std::unique_ptr<App> app_;
  std::vector<double> setup_s_, spawn_ms_;
  std::vector<CkptSample> ckpt_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> pass_clock_;
  std::uint64_t app_pass_ = 1;
  bool ckpt_from_ops_ = false;
  Loop untraced_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  bool verified_ = false, probes_ok_ = true;
  double cpu_s_ = 0, proxy_cpu_ = 0, proxy_cpu_proc_ = 0, proxy_sys_ = 0, proxy_ctxsw_ = 0;
  double peak_rss_mb_ = 0;
};

int usage() {
  std::fprintf(stderr,
               "usage: checlbench --workload fig4-slice|api-chatty|ckpt-cycle --seed N "
               "--seconds S --trace 0|1 --dir RUN_DIR [--trace-out FILE] [--stamp JSON]\n");
  return 2;
}

}  // namespace
}  // namespace checlbench

int main(int argc, char** argv) {
  using namespace checlbench;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has = i + 1 < argc;
    if (k == "--workload" && has) a.workload = argv[++i];
    else if (k == "--seed" && has) a.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (k == "--seconds" && has) a.seconds = std::strtod(argv[++i], nullptr);
    else if (k == "--trace" && has) a.trace = std::strcmp(argv[++i], "0") != 0;
    else if (k == "--dir" && has) a.dir = argv[++i];
    else if (k == "--trace-out" && has) a.trace_out = argv[++i];
    else if (k == "--stamp" && has) a.stamp = argv[++i];
    else return usage();
  }
  if (!selftest()) {
    std::fprintf(stderr, "checlbench: self-test of the benchmark arithmetic failed\n");
    return 3;
  }
  if (a.workload.empty() || a.dir.empty() || a.seconds <= 0) return usage();
  std::string why;
  if (!env_is_default(&why)) {
    std::fprintf(stderr, "checlbench: refusing to run: %s\n", why.c_str());
    return 2;
  }
  Runner r(a);
  return r.run();
}
