#include "apps.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench.h"
#include "layers.h"
#include "proxy/client.h"
#include "workloads/harness.h"
#include "workloads/workload.h"

namespace checlbench {

checl::NodeConfig bench_node() {
  checl::NodeConfig n = checl::nvidia_node();
  n.transport = proxy::Transport::Process;
  return n;
}

std::vector<std::string> fig4_programs(std::uint64_t seed) {
  std::vector<std::string> order = {
      "oclVectorAdd",    "oclDotProduct", "oclMatrixMul", "oclTranspose",
      "oclReduction",    "oclBlackScholes", "oclDCT8x8",  "oclScanLargeGPU",
      "cp_default",      "SGEMM",         "Stencil2D",    "Triad",
      "MD"};
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

std::uint64_t virtual_now() {
  cl_ulong t = 0;
  checl::dispatch_table().SimGetHostTimeNS(&t);
  return t;
}

bool checkpoint_restart(const RunDirs& dirs, CkptSample* s) {
  auto& rt = checl::CheclRuntime::instance();
  const bool traced = tracer().armed();
  if (traced) s->v_start = virtual_now();
  const std::uint64_t t0 = now_ns();
  {
    Span span(Layer::cpr, "Engine::checkpoint");
    if (rt.engine().checkpoint(dirs.ckpt(), &s->pt) != CL_SUCCESS) return false;
  }
  std::uint64_t t1 = now_ns();
  s->ckpt_ms = static_cast<double>(t1 - t0) / 1e6;
  ipc_meter().sample();  // the restart replaces the client
  t1 = now_ns();
  {
    Span span(Layer::cpr, "Engine::restart_in_place");
    if (rt.engine().restart_in_place(dirs.ckpt(), std::nullopt, &s->bd) != CL_SUCCESS)
      return false;
  }
  s->restore_ms = static_cast<double>(now_ns() - t1) / 1e6;
  if (traced) s->v_end = virtual_now();
  return true;
}

namespace {

// Opens the context + queue every app runs in.
bool open(workloads::Env& env) {
  return workloads::open_env(env, CL_DEVICE_TYPE_GPU) == CL_SUCCESS;
}

void fill(std::vector<std::uint8_t>& v, Rng& rng) {
  for (std::size_t i = 0; i + 8 <= v.size(); i += 8) {
    const std::uint64_t x = rng.next();
    std::memcpy(v.data() + i, &x, 8);
  }
}

// ---------------------------------------------------------------------------
// fig4-slice: the 13 kernel-bearing fig4 programs, seed-permuted.
// ---------------------------------------------------------------------------

class Fig4Slice final : public App {
 public:
  explicit Fig4Slice(std::uint64_t seed) : order_(fig4_programs(seed)) {}

  const char* name() const override { return "fig4-slice"; }

  bool setup() override {
    env_.shrink = kFig4Shrink;
    if (!open(env_)) return false;
    for (const std::string& p : order_) {
      progs_.push_back(workloads::create(p));
      if (progs_.back() == nullptr || progs_.back()->setup(env_) != CL_SUCCESS)
        return false;
    }
    return true;
  }

  bool op(std::uint64_t i) override {
    return progs_[i % progs_.size()]->run(env_) == CL_SUCCESS;
  }

  bool verify() override {
    bool ok = true;
    for (auto& p : progs_) ok = p->verify(env_) && ok;
    return ok;
  }
  bool check_after_restart() override { return verify(); }

  void teardown() override {
    for (auto& p : progs_)
      if (p != nullptr) p->teardown(env_);
    progs_.clear();
    workloads::close_env(env_);
  }

  std::size_t pass_ops() const override { return order_.size(); }

 private:
  std::vector<std::string> order_;
  workloads::Env env_;
  std::vector<std::unique_ptr<workloads::Workload>> progs_;
};

// ---------------------------------------------------------------------------
// api-chatty: a seed-generated stream of small calls.
// ---------------------------------------------------------------------------

constexpr const char* kAxpbSource = R"CL(
__kernel void axpb(__global const float* in, __global float* out, float a,
                   float b) {
  int i = get_global_id(0);
  out[i] = in[i] * a + b;
}
)CL";

class ApiChatty final : public App {
 public:
  static constexpr std::size_t kDataBufs = 4;
  static constexpr std::size_t kDataBytes = 256 * 1024;
  static constexpr std::size_t kBigBytes = 1024 * 1024;
  static constexpr std::size_t kItems = 64;
  static constexpr std::size_t kPass = 4096;
  static constexpr float kB = 3.0f;

  explicit ApiChatty(std::uint64_t seed) : pool_(2 * kBigBytes) {
    Rng rng(seed);
    fill(pool_, rng);
    // The mix is fixed; the seed picks the order, which calls are the 2 % of
    // 1 MiB transfers, and every size, offset and value.  Reads and writes
    // have equal counts and stratified log-uniform sizes (64 B .. 64 KiB), so
    // they move roughly equal bytes and every seed moves about the same.
    const std::pair<Kind, std::size_t> counts[] = {
        {Kind::Write, 1024}, {Kind::Read, 1024},   {Kind::SetArg, 492},
        {Kind::NDRange, 410}, {Kind::Finish, 328}, {Kind::Info, 492},
        {Kind::ReadOut, 244}, {Kind::BigWrite, 41}, {Kind::BigRead, 41}};
    for (const auto& [k, n] : counts) {
      for (std::size_t j = 0; j < n; ++j) {
        Call c;
        c.k = k;
        c.buf = static_cast<std::uint8_t>(rng.below(kDataBufs));
        const double lg = 6.0 + 10.0 * (static_cast<double>(j) + rng.unit()) /
                                    static_cast<double>(n);
        c.len = static_cast<std::uint32_t>(std::exp2(lg)) & ~3u;
        c.off = static_cast<std::uint32_t>(rng.below((kDataBytes - c.len) / 4 + 1) * 4);
        c.a = static_cast<float>(1 + rng.below(8));
        calls_.push_back(c);
      }
    }
    for (std::size_t i = calls_.size(); i > 1; --i) std::swap(calls_[i - 1], calls_[rng.below(i)]);
  }

  const char* name() const override { return "api-chatty"; }

  bool setup() override {
    if (!open(env_)) return false;
    cl_int err = CL_SUCCESS;
    for (std::size_t b = 0; b < kDataBufs; ++b) {
      shadow_[b].assign(pool_.begin() + static_cast<std::ptrdiff_t>(b * kDataBytes),
                        pool_.begin() + static_cast<std::ptrdiff_t>((b + 1) * kDataBytes));
      data_[b] = clCreateBuffer(env_.ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR,
                                kDataBytes, shadow_[b].data(), &err);
      if (err != CL_SUCCESS) return false;
    }
    big_shadow_.assign(pool_.begin(), pool_.begin() + kBigBytes);
    big_ = clCreateBuffer(env_.ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR, kBigBytes,
                          big_shadow_.data(), &err);
    if (err != CL_SUCCESS) return false;
    for (std::size_t i = 0; i < kItems; ++i) in_[i] = static_cast<float>(i);
    kin_ = clCreateBuffer(env_.ctx, CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR, sizeof in_,
                          in_, &err);
    if (err != CL_SUCCESS) return false;
    std::fill(std::begin(expect_out_), std::end(expect_out_), 0.0f);
    kout_ = clCreateBuffer(env_.ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR,
                           sizeof expect_out_, expect_out_, &err);
    if (err != CL_SUCCESS) return false;
    const char* src = kAxpbSource;
    prog_ = clCreateProgramWithSource(env_.ctx, 1, &src, nullptr, &err);
    if (err != CL_SUCCESS) return false;
    if (clBuildProgram(prog_, 1, &env_.device, "", nullptr, nullptr) != CL_SUCCESS)
      return false;
    kern_ = clCreateKernel(prog_, "axpb", &err);
    if (err != CL_SUCCESS) return false;
    next_a_ = 1.0f;
    const float b = kB;
    return clSetKernelArg(kern_, 0, sizeof kin_, &kin_) == CL_SUCCESS &&
           clSetKernelArg(kern_, 1, sizeof kout_, &kout_) == CL_SUCCESS &&
           clSetKernelArg(kern_, 2, sizeof next_a_, &next_a_) == CL_SUCCESS &&
           clSetKernelArg(kern_, 3, sizeof b, &b) == CL_SUCCESS;
  }

  bool op(std::uint64_t i) override {
    const Call& c = calls_[i % kPass];
    cl_mem buf = data_[c.buf];
    std::uint8_t* sh = shadow_[c.buf].data();
    switch (c.k) {
      case Kind::Write: {
        const std::size_t src = (i * 4099u * 4u) % (pool_.size() - c.len);
        std::memcpy(sh + c.off, pool_.data() + src, c.len);
        return clEnqueueWriteBuffer(env_.queue, buf, CL_TRUE, c.off, c.len, sh + c.off, 0,
                                    nullptr, nullptr) == CL_SUCCESS;
      }
      case Kind::Read:
        tmp_.resize(c.len);
        return clEnqueueReadBuffer(env_.queue, buf, CL_TRUE, c.off, c.len, tmp_.data(), 0,
                                   nullptr, nullptr) == CL_SUCCESS &&
               std::memcmp(tmp_.data(), sh + c.off, c.len) == 0;
      case Kind::SetArg:
        next_a_ = c.a;
        return clSetKernelArg(kern_, 2, sizeof next_a_, &next_a_) == CL_SUCCESS;
      case Kind::NDRange: {
        const std::size_t g = kItems;
        const std::size_t l = kItems;
        for (std::size_t k = 0; k < kItems; ++k) expect_out_[k] = in_[k] * next_a_ + kB;
        return clEnqueueNDRangeKernel(env_.queue, kern_, 1, nullptr, &g, &l, 0, nullptr,
                                      nullptr) == CL_SUCCESS;
      }
      case Kind::Finish:
        return clFinish(env_.queue) == CL_SUCCESS;
      case Kind::Info: {
        std::size_t size = 0;
        return clGetMemObjectInfo(buf, CL_MEM_SIZE, sizeof size, &size, nullptr) ==
                   CL_SUCCESS &&
               size == kDataBytes;
      }
      case Kind::ReadOut: {
        float out[kItems];
        return clEnqueueReadBuffer(env_.queue, kout_, CL_TRUE, 0, sizeof out, out, 0,
                                   nullptr, nullptr) == CL_SUCCESS &&
               std::memcmp(out, expect_out_, sizeof out) == 0;
      }
      case Kind::BigWrite: {
        const std::size_t src = (i * 4099u * 4u) % (pool_.size() - kBigBytes);
        std::memcpy(big_shadow_.data(), pool_.data() + src, kBigBytes);
        return clEnqueueWriteBuffer(env_.queue, big_, CL_TRUE, 0, kBigBytes,
                                    big_shadow_.data(), 0, nullptr,
                                    nullptr) == CL_SUCCESS;
      }
      case Kind::BigRead:
        tmp_.resize(kBigBytes);
        return clEnqueueReadBuffer(env_.queue, big_, CL_TRUE, 0, kBigBytes, tmp_.data(),
                                   0, nullptr, nullptr) == CL_SUCCESS &&
               std::memcmp(tmp_.data(), big_shadow_.data(), kBigBytes) == 0;
    }
    return false;
  }

  bool verify() override {
    bool ok = clFinish(env_.queue) == CL_SUCCESS;
    for (std::size_t b = 0; b < kDataBufs; ++b) ok = read_equals(data_[b], shadow_[b]) && ok;
    ok = read_equals(big_, big_shadow_) && ok;
    std::vector<std::uint8_t> out(sizeof expect_out_);
    std::memcpy(out.data(), expect_out_, out.size());
    return read_equals(kout_, out) && ok;
  }
  bool check_after_restart() override { return verify(); }

  void teardown() override {
    if (kern_ != nullptr) clReleaseKernel(kern_);
    if (prog_ != nullptr) clReleaseProgram(prog_);
    for (cl_mem m : {data_[0], data_[1], data_[2], data_[3], big_, kin_, kout_})
      if (m != nullptr) clReleaseMemObject(m);
    kern_ = nullptr;
    prog_ = nullptr;
    std::fill(std::begin(data_), std::end(data_), nullptr);
    big_ = kin_ = kout_ = nullptr;
    workloads::close_env(env_);
  }

  std::size_t pass_ops() const override { return kPass; }

 private:
  enum class Kind : std::uint8_t {
    Write, Read, SetArg, NDRange, Finish, Info, ReadOut, BigWrite, BigRead
  };
  struct Call {
    Kind k = Kind::Info;
    std::uint8_t buf = 0;
    std::uint32_t off = 0;
    std::uint32_t len = 0;
    float a = 1.0f;
  };

  bool read_equals(cl_mem m, const std::vector<std::uint8_t>& want) {
    tmp_.resize(want.size());
    return clEnqueueReadBuffer(env_.queue, m, CL_TRUE, 0, want.size(), tmp_.data(), 0,
                               nullptr, nullptr) == CL_SUCCESS &&
           tmp_ == want;
  }

  std::vector<std::uint8_t> pool_;
  std::vector<Call> calls_;
  workloads::Env env_;
  cl_mem data_[kDataBufs] = {};
  std::vector<std::uint8_t> shadow_[kDataBufs];
  cl_mem big_ = nullptr;
  std::vector<std::uint8_t> big_shadow_;
  cl_mem kin_ = nullptr;
  cl_mem kout_ = nullptr;
  float in_[kItems] = {};
  float expect_out_[kItems] = {};
  cl_program prog_ = nullptr;
  cl_kernel kern_ = nullptr;
  float next_a_ = 1.0f;  // the kernel's `a` as last set
  std::vector<std::uint8_t> tmp_;
};

// ---------------------------------------------------------------------------
// ckpt-cycle: dirty a subset, checkpoint, restart into a fresh proxy, read
// everything back.
// ---------------------------------------------------------------------------

class CkptCycle final : public App {
 public:
  static constexpr std::size_t kBufs = 8;
  static constexpr std::size_t kPass = 8;       // cycles in the seed's pattern
  static constexpr std::size_t kKernelWords = 4096;
  static constexpr std::size_t kPage = 4096;
  static constexpr std::size_t kMinPages = 64;  // 256 KiB
  static constexpr std::size_t kDirtyBytes = kMinPages * kPage;  // per dirtied buffer
  static constexpr std::size_t kWorkingSet = 5 * 1024 * 1024;

  CkptCycle(std::uint64_t seed, const RunDirs& dirs) : dirs_(dirs) {
    Rng rng(seed);
    // 5 MiB in all: 256 KiB per buffer plus a seed-chosen split of the rest.
    std::size_t spare = kWorkingSet / kPage - kBufs * kMinPages;
    for (std::size_t b = 0; b < kBufs; ++b) {
      const std::size_t extra = b + 1 == kBufs ? spare : rng.below(spare / 2 + 1);
      sizes_[b] = (kMinPages + extra) * kPage;
      spare -= extra;
    }
    pool_.resize(2 * 1024 * 1024);
    fill(pool_, rng);
    // Each cycle rewrites a seed-chosen 256 KiB region in each of a
    // seed-chosen half of the buffers (1 MiB dirtied per cycle), and runs one
    // seed-chosen program's kernel.
    for (Cycle& c : plan_) {
      std::size_t pick[kBufs];
      for (std::size_t b = 0; b < kBufs; ++b) pick[b] = b;
      for (std::size_t b = kBufs; b > 1; --b) std::swap(pick[b - 1], pick[rng.below(b)]);
      c.mask = 0;
      for (std::size_t b = 0; b < kBufs / 2; ++b) c.mask |= static_cast<std::uint8_t>(1u << pick[b]);
      c.kernel = static_cast<std::uint8_t>(rng.below(kBufs));
      c.add = static_cast<std::uint32_t>(rng.next());
      for (std::size_t b = 0; b < kBufs; ++b)
        c.off[b] = static_cast<std::uint32_t>(rng.below(sizes_[b] / kPage - kMinPages + 1) * kPage);
    }
  }

  const char* name() const override { return "ckpt-cycle"; }

  bool setup() override {
    if (!open(env_)) return false;
    cl_int err = CL_SUCCESS;
    for (std::size_t b = 0; b < kBufs; ++b) {
      shadow_[b].resize(sizes_[b]);
      for (std::size_t i = 0; i < sizes_[b]; ++i)
        shadow_[b][i] = pool_[(i + b * 8191) % pool_.size()];
      bufs_[b] = clCreateBuffer(env_.ctx, CL_MEM_READ_WRITE | CL_MEM_COPY_HOST_PTR,
                                sizes_[b], shadow_[b].data(), &err);
      if (err != CL_SUCCESS) return false;
    }
    // Eight separately built programs, one kernel each (the Figure 7 shape:
    // a restart recompiles every one of them).
    for (std::size_t p = 0; p < kBufs; ++p) {
      const std::string kname = "step" + std::to_string(p);
      const std::string src = "__kernel void " + kname +
                              "(__global uint* d, uint add) {\n"
                              "  int i = get_global_id(0);\n"
                              "  d[i] = d[i] * " + std::to_string(mul(p)) +
                              "u + add;\n}\n";
      const char* s = src.c_str();
      progs_[p] = clCreateProgramWithSource(env_.ctx, 1, &s, nullptr, &err);
      if (err != CL_SUCCESS) return false;
      if (clBuildProgram(progs_[p], 1, &env_.device, "", nullptr, nullptr) != CL_SUCCESS)
        return false;
      kerns_[p] = clCreateKernel(progs_[p], kname.c_str(), &err);
      if (err != CL_SUCCESS) return false;
      const cl_uint zero = 0;
      if (clSetKernelArg(kerns_[p], 0, sizeof bufs_[p], &bufs_[p]) != CL_SUCCESS ||
          clSetKernelArg(kerns_[p], 1, sizeof zero, &zero) != CL_SUCCESS)
        return false;
    }
    return true;
  }

  bool op(std::uint64_t i) override {
    const Cycle& c = plan_[i % kPass];
    bool ok = true;
    // Dirty the seed-chosen buffers with fresh bytes.
    for (std::size_t b = 0; b < kBufs; ++b) {
      if ((c.mask >> b & 1u) == 0) continue;
      const std::size_t src = (i * 4099u * 4096u + b * 65536u) % (pool_.size() - kDirtyBytes);
      std::uint8_t* dst = shadow_[b].data() + c.off[b];
      std::memcpy(dst, pool_.data() + src, kDirtyBytes);
      ok = clEnqueueWriteBuffer(env_.queue, bufs_[b], CL_TRUE, c.off[b], kDirtyBytes, dst, 0,
                                nullptr, nullptr) == CL_SUCCESS && ok;
    }
    // One program's kernel updates the head of its buffer.
    const std::size_t k = c.kernel;
    const cl_uint add = c.add + static_cast<cl_uint>(i);
    const std::size_t g = kKernelWords;
    const std::size_t l = 64;
    ok = clSetKernelArg(kerns_[k], 1, sizeof add, &add) == CL_SUCCESS &&
         clEnqueueNDRangeKernel(env_.queue, kerns_[k], 1, nullptr, &g, &l, 0, nullptr,
                                nullptr) == CL_SUCCESS &&
         clFinish(env_.queue) == CL_SUCCESS && ok;
    for (std::size_t w = 0; w < kKernelWords; ++w) {
      std::uint32_t v = 0;
      std::memcpy(&v, shadow_[k].data() + 4 * w, 4);
      v = v * mul(k) + add;
      std::memcpy(shadow_[k].data() + 4 * w, &v, 4);
    }
    std::size_t size = 0;
    ok = clGetMemObjectInfo(bufs_[k], CL_MEM_SIZE, sizeof size, &size, nullptr) ==
             CL_SUCCESS &&
         size == sizes_[k] && ok;
    CkptSample s;
    s.op = i;
    ok = ok && checkpoint_restart(dirs_, &s);
    if (ok) ckpt_samples_.push_back(s);
    return ok && check_after_restart();
  }

  bool verify() override { return check_after_restart(); }

  bool check_after_restart() override {
    bool ok = true;
    for (std::size_t b = 0; b < kBufs; ++b) {
      tmp_.resize(sizes_[b]);
      ok = clEnqueueReadBuffer(env_.queue, bufs_[b], CL_TRUE, 0, sizes_[b], tmp_.data(), 0,
                               nullptr, nullptr) == CL_SUCCESS &&
           tmp_ == shadow_[b] && ok;
    }
    return ok;
  }

  void teardown() override {
    for (std::size_t p = 0; p < kBufs; ++p) {
      if (kerns_[p] != nullptr) clReleaseKernel(kerns_[p]);
      if (progs_[p] != nullptr) clReleaseProgram(progs_[p]);
      if (bufs_[p] != nullptr) clReleaseMemObject(bufs_[p]);
      kerns_[p] = nullptr;
      progs_[p] = nullptr;
      bufs_[p] = nullptr;
    }
    workloads::close_env(env_);
  }

  std::size_t pass_ops() const override { return kPass; }
  bool op_checkpoints() const override { return true; }

 private:
  struct Cycle {
    std::uint8_t mask = 1;
    std::uint8_t kernel = 0;
    std::uint32_t add = 0;
    std::uint32_t off[kBufs] = {};
  };
  static std::uint32_t mul(std::size_t p) { return static_cast<std::uint32_t>(2 * p + 3); }

  RunDirs dirs_;
  std::size_t sizes_[kBufs] = {};
  std::vector<std::uint8_t> pool_;
  Cycle plan_[kPass];
  workloads::Env env_;
  cl_mem bufs_[kBufs] = {};
  cl_program progs_[kBufs] = {};
  cl_kernel kerns_[kBufs] = {};
  std::vector<std::uint8_t> shadow_[kBufs];
  std::vector<std::uint8_t> tmp_;
};

}  // namespace

std::unique_ptr<App> make_fig4_slice(std::uint64_t seed) {
  return std::make_unique<Fig4Slice>(seed);
}
std::unique_ptr<App> make_api_chatty(std::uint64_t seed) {
  return std::make_unique<ApiChatty>(seed);
}
std::unique_ptr<App> make_ckpt_cycle(std::uint64_t seed, const RunDirs& dirs) {
  return std::make_unique<CkptCycle>(seed, dirs);
}

}  // namespace checlbench
