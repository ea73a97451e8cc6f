// wrap.h — the wrapper layer seen from outside: a timing DispatchTable
// installed in front of CheCL's own table.  Each cl* call the application
// makes is timed as a "wrapper" span and classified; a call during which the
// proxy client's round-trip counter did not move was answered locally,
// without an RPC.
#pragma once

#include <cstdint>
#include <vector>

namespace checlbench {

enum class CallKind : std::uint8_t { Write, Read, SetArg, NDRange, Finish, Build, Other, kCount };

struct WrapperStats {
  std::uint64_t calls = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t roundtrips = 0;  // proxy round trips made inside the calls
  std::vector<double> us[static_cast<std::size_t>(CallKind::kCount)];
  std::vector<double> local_us;  // calls that made no round trip
};

// Routes cl* through the timing table (wrapping checl::dispatch_table()).
// Timing happens only while the tracer is armed.
void bind_timed();
WrapperStats& wrapper_stats();

}  // namespace checlbench
