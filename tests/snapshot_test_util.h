// A proxy that restores a warm-restart snapshot as it starts, and the
// /metrics reader the snapshot tests check restores with.

#ifndef FNPROXY_TESTS_SNAPSHOT_TEST_UTIL_H_
#define FNPROXY_TESTS_SNAPSHOT_TEST_UTIL_H_

#include <memory>
#include <string>

#include "core/proxy.h"
#include "net/http.h"
#include "net/network.h"
#include "server/database.h"
#include "server/web_app.h"
#include "util/clock.h"

namespace fnproxy::core {

/// The value /metrics renders for `series`, or -1 when it renders none.
inline double MetricValue(FunctionProxy* proxy, const std::string& series) {
  net::HttpRequest scrape;
  scrape.path = "/metrics";
  const std::string text = proxy->Handle(scrape).body;
  const size_t pos = text.find("\n" + series + " ");
  if (pos == std::string::npos) return -1;
  return std::stod(text.substr(pos + series.size() + 2));
}

/// Snapshot restores and writes `proxy` counted as failed.
inline double SnapshotErrors(FunctionProxy* proxy) {
  return MetricValue(
      proxy, "fnproxy_storage_snapshot_writes_total{outcome=\"error\"}");
}

/// A proxy over an empty origin that restores the snapshot at `path` on
/// construction, as a restarted process does. It writes its own snapshot
/// there when it is destroyed, so `path` must be a scratch copy.
class RestoringProxy {
 public:
  explicit RestoringProxy(const std::string& path)
      : app_(&db_, &clock_),
        channel_(&app_, net::LinkConfig{0.0, 1e9}, &clock_) {
    ProxyConfig config;
    config.mode = CachingMode::kActiveFull;
    config.storage.enable = true;
    config.storage.background_maintenance = false;
    config.storage.restore_on_start = true;
    config.storage.snapshot_path = path;
    proxy_ = std::make_unique<FunctionProxy>(config, &templates_, &channel_,
                                             &clock_);
  }

  FunctionProxy* proxy() { return proxy_.get(); }

 private:
  server::Database db_;
  util::SimulatedClock clock_;
  server::OriginWebApp app_;
  net::SimulatedChannel channel_;
  TemplateRegistry templates_;
  std::unique_ptr<FunctionProxy> proxy_;
};

}  // namespace fnproxy::core

#endif  // FNPROXY_TESTS_SNAPSHOT_TEST_UTIL_H_
