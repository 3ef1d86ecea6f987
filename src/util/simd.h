#ifndef FNPROXY_UTIL_SIMD_H_
#define FNPROXY_UTIL_SIMD_H_

namespace fnproxy::util::simd {

/// The membership-kernel path that bench records name. The kernels have one
/// scalar implementation, so it is always "scalar".
inline const char* DispatchPathName() { return "scalar"; }

}  // namespace fnproxy::util::simd

#endif  // FNPROXY_UTIL_SIMD_H_
