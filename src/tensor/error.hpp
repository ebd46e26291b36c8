// Error handling primitives shared by every mpcnn library.
//
// Contract violations (bad shapes, out-of-range arguments, inconsistent
// configuration) throw mpcnn::Error.  The MPCNN_CHECK macro is used at API
// boundaries; internal hot loops rely on the boundary checks instead of
// re-validating per element.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace mpcnn {

/// Exception type thrown on any contract violation inside mpcnn.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_error(const char* cond, const char* file,
                                     int line, const std::string& msg) {
  std::ostringstream os;
  os << "mpcnn check failed: (" << cond << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

}  // namespace detail
}  // namespace mpcnn

/// Validate a precondition; throws mpcnn::Error with context on failure.
#define MPCNN_CHECK(cond, msg)                                          \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::mpcnn::detail::throw_error(#cond, __FILE__, __LINE__,           \
                                   static_cast<std::ostringstream&&>(   \
                                       std::ostringstream{} << msg)     \
                                       .str());                         \
    }                                                                   \
  } while (false)

/// Debug-only precondition: identical to MPCNN_CHECK in debug builds,
/// compiled out entirely under NDEBUG.  Used on per-element accessors
/// (BitMatrix get/set and the like) so hot inner loops are not
/// check-bound in release builds while the API stays checked in debug.
#ifndef NDEBUG
#define MPCNN_DCHECK(cond, msg) MPCNN_CHECK(cond, msg)
#else
#define MPCNN_DCHECK(cond, msg) \
  do {                          \
  } while (false)
#endif

namespace mpcnn {

/// True when MPCNN_DCHECK is active (debug builds); tests use this to
/// know whether per-element bounds violations throw.
#ifndef NDEBUG
inline constexpr bool kDebugChecksEnabled = true;
#else
inline constexpr bool kDebugChecksEnabled = false;
#endif

}  // namespace mpcnn
