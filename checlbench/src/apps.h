// apps.h — the three benchmark workloads as applications of CheCL.  Each is
// single-process and closed-loop: one thread issues an op and waits for it
// before the next.  Inputs come only from the seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checl/checl.h"

namespace checlbench {

// splitmix64: the one generator every seed-derived input comes from.  It
// takes the full 64-bit seed, and nearby seeds give unrelated streams
// (workloads::Rng, a 32-bit xorshift, starts nearby seeds correlated).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

// Where an app checkpoints to and how its checkpoints are observed.
struct CkptSample {
  double ckpt_ms = 0;
  double restore_ms = 0;
  // Virtual clock around checkpoint + restart (read only while tracing).
  std::uint64_t v_start = 0;
  std::uint64_t v_end = 0;
  std::uint64_t op = 0;  // index of the op that took it (ckpt-cycle)
  checl::cpr::PhaseTimes pt;
  checl::cpr::RestartBreakdown bd;
};

struct RunDirs {
  std::string root;  // per-run scratch directory, removed at exit
  std::string ckpt() const { return root + "/app.ckpt"; }
};

class App {
 public:
  virtual ~App() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  // Creates every OpenCL object after fresh_process(); the proxy is up.
  virtual bool setup() = 0;
  // One measured op; false = it failed (error return or wrong bytes).
  virtual bool op(std::uint64_t i) = 0;
  // Final check of everything the app computed; untimed.
  virtual bool verify() = 0;
  // Read-back check after a restart: every byte the app owns is intact.
  virtual bool check_after_restart() = 0;
  virtual void teardown() = 0;
  // Ops in one repetition of the seed's op sequence.
  [[nodiscard]] virtual std::size_t pass_ops() const = 0;
  // True when op() itself checkpoints and restarts (its samples feed the
  // ckpt/restore metrics directly).
  [[nodiscard]] virtual bool op_checkpoints() const { return false; }
  // Checkpoint samples taken by op() since the last call.
  std::vector<CkptSample> take_ckpt_samples() { return std::move(ckpt_samples_); }

 protected:
  std::vector<CkptSample> ckpt_samples_;
};

// Checkpoint to dirs.ckpt() and restart in place into a fresh proxy.
bool checkpoint_restart(const RunDirs& dirs, CkptSample* s);

// The simulated host clock of the live proxy (an RPC; untimed).
std::uint64_t virtual_now();

std::unique_ptr<App> make_fig4_slice(std::uint64_t seed);
std::unique_ptr<App> make_api_chatty(std::uint64_t seed);
std::unique_ptr<App> make_ckpt_cycle(std::uint64_t seed, const RunDirs& dirs);

// The problem-size divisor of the fig4 programs (workloads::Env::shrink).
constexpr unsigned kFig4Shrink = 16;
// The fig4 programs the kernel-bound workload runs (the suite programs with
// a kernel in workloads::fig4_kernels()), in the seed's order.
std::vector<std::string> fig4_programs(std::uint64_t seed);
// The node every workload runs on: one NVIDIA-like GPU platform, forked
// checl_proxyd, runtime defaults otherwise.
checl::NodeConfig bench_node();

}  // namespace checlbench
