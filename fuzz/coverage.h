// Deterministic edge-coverage feedback for the fuzz harness.
//
// When the tree is configured with -DAPF_FUZZ_COVERAGE=ON, every TU except
// this runtime is compiled with gcc's -fsanitize-coverage=trace-pc, which
// inserts a call to __sanitizer_cov_trace_pc() at every CFG edge. The
// callback lives in coverage.cpp, which is compiled WITHOUT instrumentation
// (an instrumented callback would recurse into itself) and records the set
// of distinct edges hit between coverage_begin() and coverage_take().
//
// Determinism contract: edge addresses are normalized against an anchor
// symbol inside the (statically linked) binary, so the edge ids — and
// therefore the harness's corpus evolution — are a pure function of the
// binary and the input, independent of ASLR. Only the thread that called
// coverage_begin() is recorded; pool workers are ignored, so code that fans
// out over a pool of more than one lane records only the chunks this thread
// ran, which vary with scheduling. run_fuzz() therefore installs a one-lane
// compute pool for its whole run. Without instrumentation every function
// below is a cheap no-op that reports zero edges.
#pragma once

#include <cstdint>
#include <vector>

#include "util/annotations.h"

namespace apf::fuzz {

/// Virtual capability naming the "collector" role. There is no OS lock
/// behind it: the protocol is that exactly one thread sits between
/// coverage_begin() and coverage_take() at a time, and only that thread may
/// touch the edge scratch table. Expressing the role as a capability lets
/// Clang Thread Safety Analysis reject code that reaches the table — or
/// unbalances begin/take — outside the role, the same way it rejects an
/// unlocked access to a mutex-guarded member.
class APF_CAPABILITY("role") CoverageCollectorRole {
 public:
  // Bookkeeping-only: acquiring the role is a statement about the calling
  // thread's protocol position, not a blocking operation.
  void acquire() APF_ACQUIRE() {}
  void release() APF_RELEASE() {}
};

/// The process-wide collector role guarding the edge scratch table.
extern CoverageCollectorRole coverage_collector_role;

/// Starts collecting edges hit by the calling thread (acquires the collector
/// role). Clears nothing from previous collections besides its own scratch
/// table (coverage_take() left it empty).
void coverage_begin() APF_ACQUIRE(coverage_collector_role);

/// Stops collecting (releases the collector role) and returns the distinct
/// normalized edge ids hit since coverage_begin(), sorted ascending. Empty
/// when the binary is not instrumented.
std::vector<std::uint64_t> coverage_take()
    APF_RELEASE(coverage_collector_role);

/// Order-independent hash of an edge-id set (for logging/digests).
std::uint64_t coverage_set_hash(const std::vector<std::uint64_t>& edges);

}  // namespace apf::fuzz
