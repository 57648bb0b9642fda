// Debug-mode runtime tripwires.
//
// APF's correctness story depends on invariants that are too expensive to
// validate on every hot-path call in release builds: finite parameters after
// every optimizer step, in-bounds flat tensor access, mask/payload agreement
// on the masked wire path. This header provides tripwires that are compiled
// in only when the build defines APF_ENABLE_DEBUG_CHECKS (the `debug` and
// `asan-ubsan` CMake presets turn it on), so violations fail fast with
// context instead of silently degrading accuracy.
//
//  - APF_DEBUG_ASSERT(cond) / APF_DEBUG_ASSERT_MSG(cond, stream): internal
//    invariants; throw apf::Error when the checks are compiled in, compile
//    to nothing otherwise.
//  - apf::debug::check_finite(values, context): scans a float span for
//    NaN/Inf and throws apf::Error naming the first offending index. The
//    function itself is always available (callers may validate untrusted
//    input unconditionally); APF_DEBUG_CHECK_FINITE is the gated form for
//    hot paths.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <sstream>

#include "util/error.h"

namespace apf::debug {

#ifdef APF_ENABLE_DEBUG_CHECKS
inline constexpr bool kChecksEnabled = true;
#else
inline constexpr bool kChecksEnabled = false;
#endif

namespace detail {
[[noreturn]] inline void raise_debug_failure(const char* cond,
                                             const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream oss;
  oss << "APF_DEBUG_ASSERT failed: (" << cond << ") at " << file << ":"
      << line;
  if (!msg.empty()) oss << " — " << msg;
  throw Error(oss.str());
}
}  // namespace detail

/// Throws apf::Error if any element of `values` is NaN or infinite. The
/// message names `context` (e.g. "ApfManager::fold_push client payload"),
/// the first offending flat index and the offending value, so a failure
/// points at the producer instead of surfacing rounds later as a bad
/// accuracy number.
inline void check_finite(std::span<const float> values, const char* context) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    const float v = values[i];
    if (!std::isfinite(v)) {
      std::ostringstream oss;
      oss << "non-finite value " << v << " at index " << i << " of "
          << values.size() << " in " << context;
      throw Error(oss.str());
    }
  }
}

/// Double-precision overload for strategies that aggregate in double.
inline void check_finite(std::span<const double> values, const char* context) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    if (!std::isfinite(v)) {
      std::ostringstream oss;
      oss << "non-finite value " << v << " at index " << i << " of "
          << values.size() << " in " << context;
      throw Error(oss.str());
    }
  }
}

}  // namespace apf::debug

#ifdef APF_ENABLE_DEBUG_CHECKS

/// Internal invariant check, active only under APF_ENABLE_DEBUG_CHECKS.
#define APF_DEBUG_ASSERT(cond)                                              \
  do {                                                                      \
    if (!(cond))                                                            \
      ::apf::debug::detail::raise_debug_failure(#cond, __FILE__, __LINE__,  \
                                                "");                        \
  } while (0)

/// APF_DEBUG_ASSERT with a streamed message.
#define APF_DEBUG_ASSERT_MSG(cond, stream_expr)                             \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::ostringstream apf_dbg_oss_;                                      \
      apf_dbg_oss_ << stream_expr;                                          \
      ::apf::debug::detail::raise_debug_failure(#cond, __FILE__, __LINE__,  \
                                                apf_dbg_oss_.str());        \
    }                                                                       \
  } while (0)

/// Gated finiteness scan for hot paths (free in release builds).
#define APF_DEBUG_CHECK_FINITE(values, context)                             \
  ::apf::debug::check_finite((values), (context))

#else

#define APF_DEBUG_ASSERT(cond) ((void)0)
#define APF_DEBUG_ASSERT_MSG(cond, stream_expr) ((void)0)
#define APF_DEBUG_CHECK_FINITE(values, context) ((void)0)

#endif  // APF_ENABLE_DEBUG_CHECKS
