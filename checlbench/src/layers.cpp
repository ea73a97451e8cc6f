#include "layers.h"

#include <cstring>

#include "apps.h"
#include "clc/program.h"
#include "core/cpr.h"
#include "core/runtime.h"
#include "proxy/client.h"
#include "workloads/fig4_kernels.h"
#include "workloads/harness.h"
#include "workloads/workload.h"

namespace checlbench {

namespace {
double seconds_since(std::uint64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }
}  // namespace

bool IpcMeter::read(Totals* now, pid_t* pid) const {
  auto& rt = checl::CheclRuntime::instance();
  proxy::Client* c = rt.client();
  if (c == nullptr) return false;
  const ipc::ChannelStats cs = c->channel_stats();
  now->roundtrips = c->stats().rpc_roundtrips;
  now->bytes = cs.bytes_sent + cs.bytes_recvd;
  now->shm_bytes = cs.shm_bytes_sent + cs.shm_bytes_recvd;
  now->syscalls = cs.sys_sends + cs.sys_reads;
  now->shm_fallbacks = cs.shm_fallbacks;
  *pid = rt.proxy_pid();
  return true;
}

void IpcMeter::sample() {
  if (!tracer().armed()) return skip();
  Totals now;
  pid_t pid = -1;
  if (!read(&now, &pid)) return;
  const Totals base = pid == pid_ ? last_ : Totals{};
  total.roundtrips += now.roundtrips - base.roundtrips;
  total.bytes += now.bytes - base.bytes;
  total.shm_bytes += now.shm_bytes - base.shm_bytes;
  total.syscalls += now.syscalls - base.syscalls;
  total.shm_fallbacks += now.shm_fallbacks - base.shm_fallbacks;
  pid_ = pid;
  last_ = now;
}

void IpcMeter::skip() {
  Totals now;
  pid_t pid = -1;
  if (read(&now, &pid)) {
    pid_ = pid;
    last_ = now;
  }
}

IpcMeter& ipc_meter() {
  static IpcMeter m;
  return m;
}

PingResult probe_ping(std::size_t n) {
  PingResult r;
  proxy::Client* c = checl::CheclRuntime::instance().client();
  if (c == nullptr) {
    r.ok = false;
    return r;
  }
  r.us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t t0 = now_ns();
    Span span(Layer::ipc, "Client::ping");
    r.ok = c->ping() == CL_SUCCESS && r.ok;
    span.close();
    r.us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return r;
}

ClcResult probe_clc() {
  constexpr int kCompiles = 3;
  constexpr int kLaunches = 5;
  ClcResult r;
  double barrier_sum = 0, plain_sum = 0;
  int barrier_n = 0, plain_n = 0;
  for (const workloads::Fig4Kernel& k : workloads::fig4_kernels()) {
    clc::CompileResult res;
    for (int i = 0; i < kCompiles; ++i) {
      const std::uint64_t t0 = now_ns();
      Span span(Layer::clc, "clc::compile");
      res = clc::compile(k.source);
      span.close();
      r.compile_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    const clc::FuncDecl* fn = res.ok() ? res.module->find_func(k.kernel) : nullptr;
    if (fn == nullptr) {
      r.ok = false;
      continue;
    }
    std::vector<double> ms;
    double items = 1;
    for (std::uint32_t d = 0; d < k.dim; ++d) items *= static_cast<double>(k.global[d]);
    for (int i = 0; i < kLaunches; ++i) {
      workloads::Fig4Launch L = workloads::make_fig4_launch(k);
      const std::uint64_t t0 = now_ns();
      Span span(Layer::clc, "clc::execute_ndrange");
      const clc::LaunchResult lr = clc::execute_ndrange(*res.module, *fn, L.args, L.nd);
      span.close();
      const double s = seconds_since(t0);
      r.ok = lr.ok && r.ok;
      ms.push_back(s * 1e3);
      r.launch_s += s;
      r.items += items;
    }
    const double med = percentile(ms, 0.5);
    if (std::strstr(k.source, "barrier(") != nullptr) {
      barrier_sum += med;
      ++barrier_n;
    } else {
      plain_sum += med;
      ++plain_n;
    }
  }
  r.launch_ms_barrier = barrier_n != 0 ? barrier_sum / barrier_n : 0;
  r.launch_ms_plain = plain_n != 0 ? plain_sum / plain_n : 0;
  return r;
}

SimclResult probe_simcl_native(std::uint64_t seed) {
  constexpr int kIterations = 3;
  SimclResult r;
  workloads::fresh_process(workloads::Binding::Native, bench_node());
  workloads::Env env;
  env.shrink = kFig4Shrink;
  if (workloads::open_env(env, CL_DEVICE_TYPE_GPU) != CL_SUCCESS) {
    r.ok = false;
    return r;
  }
  for (const std::string& name : fig4_programs(seed)) {
    auto w = workloads::create(name);
    if (w == nullptr || w->setup(env) != CL_SUCCESS) {
      r.ok = false;
      if (w != nullptr) w->teardown(env);
      continue;
    }
    for (int i = 0; i < kIterations; ++i) {
      const std::uint64_t t0 = now_ns();
      Span span(Layer::simcl, "Workload::run (native)");
      r.ok = w->run(env) == CL_SUCCESS && r.ok;
      span.close();
      r.iter_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    r.ok = w->verify(env) && r.ok;
    w->teardown(env);
  }
  workloads::close_env(env);
  return r;
}

bool SnapshotProbe::run(const std::string& path) {
  const slimcr::StorageModel storage = bench_node().storage;
  if (!store_.is_open() && !store_.open(root_ + "/probe_store").ok()) return false;
  slimcr::Snapshot snap;
  std::uint64_t t0 = now_ns();
  {
    Span span(Layer::slimcr, "Snapshot::load");
    if (!snap.load(path, storage).ok) {
      // Not a flat file: the engine wrote it into its checkpoint store.
      snapstore::StoreIface* st = checl::CheclRuntime::instance().engine().store_if_open();
      if (st == nullptr || !st->get(path, snap, storage).status.ok()) return false;
    }
  }
  load_s += seconds_since(t0);
  bytes += static_cast<double>(snap.payload_bytes());
  t0 = now_ns();
  {
    Span span(Layer::slimcr, "Snapshot::save");
    if (!snap.save(root_ + "/probe_copy.ckpt", storage).ok) return false;
  }
  save_s += seconds_since(t0);
  t0 = now_ns();
  {
    Span span(Layer::snapstore, "Store::put");
    if (!store_.put("ckpt", snap, storage).status.ok()) return false;
  }
  put_s += seconds_since(t0);
  slimcr::Snapshot back;
  t0 = now_ns();
  {
    Span span(Layer::snapstore, "Store::get");
    if (!store_.get("ckpt", back, storage).status.ok()) return false;
  }
  get_s += seconds_since(t0);
  return back.sections() == snap.sections();
}

}  // namespace checlbench
