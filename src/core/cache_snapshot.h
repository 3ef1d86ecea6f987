#ifndef FNPROXY_CORE_CACHE_SNAPSHOT_H_
#define FNPROXY_CORE_CACHE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <string_view>

#include "geometry/region.h"
#include "util/status.h"

namespace fnproxy::core {

/// Region (de)serialization for the entries /peer/lookup answers carry
/// and the regions of warm-restart snapshot entries (docs/FORMATS.md §4):
///   <Region shape="hypersphere" dims="3"><Center>..</Center><Radius>..</Radius>
///   <Region shape="hyperrectangle" ...><Lo>..</Lo><Hi>..</Hi>
///   <Region shape="polytope" ...><Halfspaces>..</Halfspaces><Vertices>..</Vertices>
/// Coordinates are space-separated decimal values that round-trip exactly.
std::string RegionToXml(const geometry::Region& region);
util::StatusOr<std::unique_ptr<geometry::Region>> RegionFromXml(
    std::string_view xml_text);

}  // namespace fnproxy::core

#endif  // FNPROXY_CORE_CACHE_SNAPSHOT_H_
