#include "wrap.h"

#include "bench.h"
#include "checl/checl.h"
#include "checl/dispatch.h"
#include "proxy/client.h"

namespace checlbench {

namespace {

using checl_api::DispatchTable;

#define CHECLBENCH_ENTRIES(X)                                                  \
  X(GetPlatformIDs) X(GetPlatformInfo) X(GetDeviceIDs) X(GetDeviceInfo)        \
  X(CreateContext) X(RetainContext) X(ReleaseContext) X(GetContextInfo)        \
  X(CreateCommandQueue) X(RetainCommandQueue) X(ReleaseCommandQueue)           \
  X(GetCommandQueueInfo) X(Flush) X(Finish) X(CreateBuffer) X(CreateImage2D)   \
  X(RetainMemObject) X(ReleaseMemObject) X(GetMemObjectInfo) X(GetImageInfo)   \
  X(CreateSampler) X(RetainSampler) X(ReleaseSampler) X(GetSamplerInfo)        \
  X(CreateProgramWithSource) X(CreateProgramWithBinary) X(RetainProgram)       \
  X(ReleaseProgram) X(BuildProgram) X(GetProgramInfo) X(GetProgramBuildInfo)   \
  X(CreateKernel) X(CreateKernelsInProgram) X(RetainKernel) X(ReleaseKernel)   \
  X(SetKernelArg) X(GetKernelInfo) X(GetKernelWorkGroupInfo) X(WaitForEvents)  \
  X(GetEventInfo) X(RetainEvent) X(ReleaseEvent) X(GetEventProfilingInfo)      \
  X(EnqueueReadBuffer) X(EnqueueWriteBuffer) X(EnqueueCopyBuffer)              \
  X(EnqueueNDRangeKernel) X(EnqueueTask) X(EnqueueMarker) X(EnqueueBarrier)    \
  X(EnqueueWaitForEvents) X(SimGetHostTimeNS) X(SimAdvanceHostNS)

enum Entry : std::size_t {
#define X(n) k##n,
  CHECLBENCH_ENTRIES(X)
#undef X
};

constexpr const char* kNames[] = {
#define X(n) "cl" #n,
    CHECLBENCH_ENTRIES(X)
#undef X
};

constexpr CallKind kind_of(Entry e) {
  switch (e) {
    case kEnqueueWriteBuffer: return CallKind::Write;
    case kEnqueueReadBuffer: return CallKind::Read;
    case kSetKernelArg: return CallKind::SetArg;
    case kEnqueueNDRangeKernel: return CallKind::NDRange;
    case kFinish: return CallKind::Finish;
    case kBuildProgram: return CallKind::Build;
    default: return CallKind::Other;
  }
}

DispatchTable g_inner{};  // CheCL's table, forwarded to
DispatchTable g_timed{};
WrapperStats g_stats;

std::uint64_t roundtrips(proxy::Client* c) {
  return c != nullptr ? c->stats().rpc_roundtrips : 0;
}

template <auto F, Entry E>
struct Timed;

template <typename R, typename... A, R (*DispatchTable::*F)(A...), Entry E>
struct Timed<F, E> {
  static R call(A... a) {
    if (!tracer().armed()) return (g_inner.*F)(a...);
    auto& rt = checl::CheclRuntime::instance();
    proxy::Client* c0 = rt.client();
    const std::uint64_t r0 = roundtrips(c0);
    Span span(Layer::wrapper, kNames[E]);
    R r = (g_inner.*F)(a...);
    const std::uint64_t ns = span.close();
    proxy::Client* c1 = rt.client();
    const double us = static_cast<double>(ns) / 1e3;
    ++g_stats.calls;
    g_stats.busy_ns += ns;
    g_stats.us[static_cast<std::size_t>(kind_of(E))].push_back(us);
    // A call that swapped the proxy client (a restart) is not counted here.
    if (c0 != nullptr && c0 == c1) {
      const std::uint64_t trips = roundtrips(c1) - r0;
      g_stats.roundtrips += trips;
      if (trips == 0) g_stats.local_us.push_back(us);
    }
    return r;
  }
};

}  // namespace

void bind_timed() {
  g_inner = checl::dispatch_table();
#define X(n) g_timed.n = &Timed<&DispatchTable::n, k##n>::call;
  CHECLBENCH_ENTRIES(X)
#undef X
  checl_api::set_dispatch(&g_timed);
}

WrapperStats& wrapper_stats() { return g_stats; }

}  // namespace checlbench
