// layers.h — direct probes of single layers, run in the traced pass only.
// Each calls one layer's public functions and times them from outside.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "snapstore/store.h"

namespace checlbench {

// The ipc layer's transport counters, summed over every proxy client the run
// went through (each restart or fresh process brings a new one).
class IpcMeter {
 public:
  struct Totals {
    std::uint64_t roundtrips = 0;
    std::uint64_t bytes = 0;      // socket frame bytes, both directions
    std::uint64_t shm_bytes = 0;  // bulk bytes through the shm data plane
    std::uint64_t syscalls = 0;   // send + read system calls
    std::uint64_t shm_fallbacks = 0;
  };
  // Adds the live client's traffic since the last sample (a client not seen
  // before counts from its creation) while the tracer is armed; skips it
  // otherwise.  Call before a client goes away.
  void sample();
  // Forgets the live client's traffic since the last sample.
  void skip();
  Totals total;

 private:
  bool read(Totals* now, pid_t* pid) const;
  pid_t pid_ = -1;
  Totals last_;
};
IpcMeter& ipc_meter();

// ipc: proxy::Client::ping round trips on the live client.
struct PingResult {
  std::vector<double> us;
  bool ok = true;
};
PingResult probe_ping(std::size_t n);

// clc: compile + execute_ndrange of the fig4 kernel corpus, default options.
struct ClcResult {
  std::vector<double> compile_ms;
  double launch_ms_barrier = 0;  // mean over barrier kernels of the median launch
  double launch_ms_plain = 0;    // the same over kernels without barriers
  double items = 0;
  double launch_s = 0;
  bool ok = true;
};
ClcResult probe_clc();

// simcl: the fig4-slice programs under the native in-process binding.
struct SimclResult {
  std::vector<double> iter_ms;
  bool ok = true;
};
SimclResult probe_simcl_native(std::uint64_t seed);

// slimcr + snapstore: direct save/load and put/get of one engine checkpoint.
class SnapshotProbe {
 public:
  explicit SnapshotProbe(std::string root) : root_(std::move(root)) {}
  // Reads the checkpoint at `path`, writes and reloads it through slimcr,
  // then puts and gets it through a snapstore::Store; false on any error or
  // byte mismatch.
  bool run(const std::string& path);

  double bytes = 0;  // logical snapshot bytes per probe, summed
  double save_s = 0, load_s = 0, put_s = 0, get_s = 0;
  [[nodiscard]] const snapstore::Stats* store_stats() const {
    return store_.is_open() ? &store_.stats() : nullptr;
  }

 private:
  std::string root_;
  snapstore::Store store_;
};

}  // namespace checlbench
