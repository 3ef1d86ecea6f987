// Statistics invariants shared by the proxy, overload, tier and workload
// tests.

#ifndef FNPROXY_TESTS_PROXY_TEST_UTIL_H_
#define FNPROXY_TESTS_PROXY_TEST_UTIL_H_

#include <cstdint>

#include "core/proxy.h"

namespace fnproxy {

/// The one-outcome sum: every template request counts exactly one outcome,
/// so this equals `s.template_requests` per proxy and tier-wide.
inline uint64_t OutcomeSum(const core::ProxyStats& s) {
  return s.exact_hits + s.containment_hits + s.region_containments +
         s.overlaps_handled + s.peer_hits + s.misses + s.collapsed + s.shed;
}

}  // namespace fnproxy

#endif  // FNPROXY_TESTS_PROXY_TEST_UTIL_H_
