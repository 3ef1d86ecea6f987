#ifndef FNPROXY_CORE_CACHE_STORE_H_
#define FNPROXY_CORE_CACHE_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "geometry/region.h"
#include "index/region_index.h"
#include "sql/columnar.h"
#include "sql/schema.h"
#include "storage/segment.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace fnproxy::core {

/// Storage tier of a cached entry. Entries are admitted hot; the maintenance
/// sweep demotes idle entries to compressed frozen segments, and lookups
/// that need tuples thaw them back to hot.
enum class EntryTier : uint8_t {
  kHot,     ///< Raw ColumnarTable in `result`; zero-cost scans.
  kFrozen,  ///< Compressed FrozenSegment in memory; `result` is empty.
};

const char* EntryTierName(EntryTier tier);

/// One cached query: its identifying template + parameters, the region its
/// embedded function selected, and the result tuples (the paper's "query
/// result file", kept as an in-memory table with byte accounting).
struct CacheEntry {
  uint64_t id = 0;
  std::string template_id;
  /// Fingerprint of the non-spatial parameters (under passive caching, of
  /// the whole query string); entries are only comparable to queries with
  /// an equal fingerprint.
  std::string nonspatial_fingerprint;
  std::unique_ptr<geometry::Region> region;
  /// Result tuples in columnar form (assignable from a row-wise sql::Table).
  /// The proxy pre-resolves the template's coordinate columns to contiguous
  /// double arrays (PrepareNumericView) before the entry is frozen, so
  /// concurrent readers scan without conversion or locking.
  sql::ColumnarTable result;
  /// True when the origin applied a TOP cutoff, so `result` may be missing
  /// in-region tuples: such entries may serve exact matches only.
  bool truncated = false;
  /// Storage tier. A non-hot entry leaves `result` empty: relationship
  /// checks read only the region and identity fields, and tuple access goes
  /// through CacheStore::FindHot, which promotes first.
  EntryTier tier = EntryTier::kHot;
  /// Compressed payload when tier == kFrozen, and never null then (shared:
  /// a reader's snapshot stays valid after concurrent promotion or
  /// eviction).
  std::shared_ptr<const storage::FrozenSegment> segment;
  size_t bytes = 0;
  /// Access bookkeeping as of admission; live values are kept by the store
  /// (updated by Touch) so replacement works without mutating the shared
  /// immutable entry.
  int64_t last_access_micros = 0;
  uint64_t access_count = 0;
};

/// An entry with the live access bookkeeping the store keeps beside it,
/// which a snapshot writes in place of the entry's admission-time values.
struct LiveEntry {
  std::shared_ptr<const CacheEntry> entry;
  int64_t last_access_micros = 0;
  uint64_t access_count = 0;
};

/// Cache replacement policies. The paper runs with fractional cache sizes
/// (Table 1, Figure 5) but does not name its policy.
///   kCostAware — GreedyDual-Size-Frequency (Cao & Irani, USITS '97): evict
///                the lowest H = L + n·c/s, where n is the entry's access
///                count, s its uncompressed accounted size, c its estimated
///                origin re-fetch cost (RefetchCostFit) and L the priority
///                of the last victim. The default.
///   kLru       — least recently touched first; the Ablation C baseline.
enum class ReplacementPolicy { kLru, kCostAware };

const char* ReplacementPolicyName(ReplacementPolicy policy);

/// A re-fetch cost line: fetching a result of `rows` tuples from the origin
/// costs fixed_micros + per_row_micros · rows virtual microseconds.
struct RefetchCost {
  double fixed_micros = 0;
  double per_row_micros = 0;
  /// False until the first sample; every entry then costs 1, which reduces
  /// GreedyDual-Size-Frequency to L + n/s.
  bool fitted = false;

  double Of(size_t rows) const {
    return fitted ? fixed_micros + per_row_micros * static_cast<double>(rows)
                  : 1.0;
  }
};

/// Online least-squares fit of RefetchCost from observed origin round trips
/// (rows returned against virtual microseconds spent). Thread-safe: samples
/// update the running moments under a mutex and publish the line through
/// atomics, so readers never block. A reader racing a sample may pair one
/// sample's intercept with the previous slope, which only nudges priorities.
class RefetchCostFit {
 public:
  void AddSample(size_t rows, int64_t micros) EXCLUDES(mu_);
  RefetchCost Current() const;

 private:
  util::Mutex mu_;
  /// Welford-style running means and centered second moments.
  double count_ GUARDED_BY(mu_) = 0;
  double mean_rows_ GUARDED_BY(mu_) = 0;
  double mean_micros_ GUARDED_BY(mu_) = 0;
  double rows_m2_ GUARDED_BY(mu_) = 0;
  double co_moment_ GUARDED_BY(mu_) = 0;
  std::atomic<double> fixed_micros_{0};
  std::atomic<double> per_row_micros_{0};
  std::atomic<bool> fitted_{false};
};

/// Builds one cache-description index instance; called once per shard.
using RegionIndexFactory =
    std::function<std::unique_ptr<index::RegionIndex>()>;

/// The proxy's Cache Manager: owns the entries, keeps the cache description
/// (a RegionIndex over entry bounding boxes) in sync, enforces the byte
/// budget by evicting per the policy, and tracks statistics.
///
/// Eviction priorities are tier-independent: an entry's size s and row
/// count are fixed at admission, so freezing or thawing it never changes
/// which entry is evicted next.
///
/// Threading model: entries are partitioned into shards by id, each shard
/// guarded by its own shared_mutex — lookups, description probes and
/// relationship checks take shared (reader) locks; admission, eviction and
/// coalescing take the owning shard's exclusive lock. Byte/entry/eviction
/// accounting is atomic and global. `Find` hands out
/// shared_ptr<const CacheEntry> snapshots, so a reader's entry stays valid
/// even if another thread evicts it mid-use. No operation ever holds two
/// shard locks at once (the global victim scan visits shards one at a
/// time), which makes the locking trivially deadlock-free.
class CacheStore {
 public:
  /// Sharded store: `factory` is invoked once per shard to build that
  /// shard's cache-description index. `num_shards` is clamped to >= 1.
  /// `max_bytes == 0` means unlimited.
  CacheStore(const RegionIndexFactory& factory, size_t num_shards,
             size_t max_bytes, ReplacementPolicy policy);

  CacheStore(const CacheStore&) = delete;
  CacheStore& operator=(const CacheStore&) = delete;

  /// Inserts a new entry (fields other than id/bytes filled by the caller);
  /// returns its id. May evict other entries to fit; an entry larger than
  /// the whole budget is not cached (returns 0). `comparisons` receives the
  /// box comparisons charged by the description insert (plus any evictions'
  /// description work).
  uint64_t Insert(CacheEntry entry, size_t* comparisons);

  /// As above, but also hands back the immutable admitted snapshot (null
  /// when the entry was not cacheable). Single-flight leaders use it to
  /// publish the admitted entry to followers without a racy re-lookup (the
  /// entry may already be evicted by the time a Find would run).
  uint64_t Insert(CacheEntry entry, size_t* comparisons,
                  std::shared_ptr<const CacheEntry>* snapshot);

  /// Removes an entry by id. `comparisons` receives description-removal
  /// comparisons.
  bool Remove(uint64_t id, size_t* comparisons);

  /// Snapshot lookup: the returned entry is immutable and stays valid after
  /// concurrent eviction. Null when the id is unknown. Does NOT promote: a
  /// cold entry comes back with an empty `result` (candidate probes must
  /// not thaw entries they end up not serving from).
  std::shared_ptr<const CacheEntry> Find(uint64_t id) const;

  /// Lookup that guarantees tuples: thaws a frozen entry back to the hot
  /// tier and returns a hot snapshot. Null when the id is unknown.
  std::shared_ptr<const CacheEntry> FindHot(uint64_t id);

  /// Freezes every hot entry idle for at least `freeze_idle_micros` at
  /// `now_micros`; returns how many it froze. Encoding runs outside the
  /// shard locks and the swap re-checks entry identity, so it is safe to
  /// call from a maintenance thread while requests are served.
  size_t SweepColdEntries(int64_t now_micros, int64_t freeze_idle_micros);

  /// Marks an access for replacement bookkeeping: the access time, the
  /// current L as the entry's priority base, and one more access.
  void Touch(uint64_t id, int64_t now_micros);

  /// The re-fetch cost line kCostAware prices entries with; the owner feeds
  /// it origin round trips. A fresh store (including a restored one) has no
  /// samples, so every entry costs 1 until the first fetch.
  RefetchCostFit& refetch_cost() { return refetch_cost_; }
  const RefetchCostFit& refetch_cost() const { return refetch_cost_; }

  /// Ids of entries whose region bounding box intersects `bbox` — the cache
  /// description probe, across all shards. `comparisons` receives the total
  /// box comparisons performed.
  std::vector<uint64_t> Candidates(const geometry::Hyperrectangle& bbox,
                                   size_t* comparisons) const;

  // --- Conveniences that drop the comparison count. ---

  uint64_t Insert(CacheEntry entry) {
    size_t comparisons = 0;
    return Insert(std::move(entry), &comparisons);
  }

  bool Remove(uint64_t id) {
    size_t comparisons = 0;
    return Remove(id, &comparisons);
  }

  std::vector<uint64_t> Candidates(const geometry::Hyperrectangle& bbox) const {
    size_t comparisons = 0;
    return Candidates(bbox, &comparisons);
  }

  size_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }
  size_t bytes_used() const {
    return bytes_used_.load(std::memory_order_relaxed);
  }
  size_t max_bytes() const { return max_bytes_; }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t num_shards() const { return shards_.size(); }

  // --- Storage-tier statistics (all monotonic except the gauges). ---
  size_t frozen_entries() const {
    return frozen_entries_.load(std::memory_order_relaxed);
  }
  uint64_t freezes() const { return freezes_.load(std::memory_order_relaxed); }
  uint64_t thaws() const { return thaws_.load(std::memory_order_relaxed); }
  /// Cumulative raw bytes of tables frozen and the encoded bytes they became
  /// (a live compression-ratio signal for the metrics endpoint).
  uint64_t frozen_raw_bytes() const {
    return frozen_raw_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t frozen_encoded_bytes() const {
    return frozen_encoded_bytes_.load(std::memory_order_relaxed);
  }

  /// All entry ids (for iteration in tests/tools). Consistent per shard,
  /// not across shards under concurrent mutation.
  std::vector<uint64_t> AllIds() const;

  /// Every entry with its live access bookkeeping, in AllIds() order and
  /// with the same consistency.
  std::vector<LiveEntry> LiveEntries() const;

 private:
  /// Live replacement bookkeeping beside the immutable entry snapshot.
  /// `size` and `rows` are set once at admission: the hot accounted size
  /// (the tier payload's for an entry admitted frozen) and the tuple count.
  struct Stored {
    std::shared_ptr<const CacheEntry> entry;
    std::atomic<int64_t> last_access_micros{0};
    std::atomic<uint64_t> access_count{0};
    /// L as of the entry's last access (GreedyDual-Size-Frequency).
    std::atomic<double> priority_base{0};
    size_t size = 0;
    size_t rows = 0;
  };

  /// Per-shard state. The lock-ordering invariant (enforced by the
  /// EXCLUDES annotations on every CacheStore entry point plus the fact
  /// that no method takes a shard reference argument): at most one shard's
  /// `mu` is ever held by a thread, so cross-shard deadlock is impossible
  /// by construction.
  struct Shard {
    mutable util::SharedMutex mu;
    std::unique_ptr<index::RegionIndex> description GUARDED_BY(mu);
    std::map<uint64_t, Stored> entries GUARDED_BY(mu);
  };

  Shard& ShardFor(uint64_t id) { return *shards_[id % shards_.size()]; }
  const Shard& ShardFor(uint64_t id) const {
    return *shards_[id % shards_.size()];
  }

  /// Picks the eviction victim per the policy across all shards and
  /// returns it with its priority in `priority`; 0 when empty. Takes shared
  /// locks one shard at a time.
  uint64_t PickVictim(double* priority) const;

  /// Replaces the stored snapshot for `id` with `replacement` iff the stored
  /// pointer still equals `expected` (nobody promoted/replaced it since the
  /// caller sampled it). Adjusts byte accounting and tier gauges; returns
  /// whether the swap happened.
  bool SwapEntry(uint64_t id, const std::shared_ptr<const CacheEntry>& expected,
                 std::shared_ptr<const CacheEntry> replacement);

  /// Builds the demoted/promoted twin of `entry` sharing the same identity.
  static CacheEntry CloneMeta(const CacheEntry& entry);
  /// The hot twin of frozen `entry`: its segment thawed into `result`.
  static CacheEntry Thawed(const CacheEntry& entry);

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t max_bytes_;
  ReplacementPolicy policy_;
  RefetchCostFit refetch_cost_;
  /// GreedyDual-Size-Frequency L: the priority of the last victim.
  std::atomic<double> inflation_{0};
  std::atomic<size_t> bytes_used_{0};
  std::atomic<size_t> num_entries_{0};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<size_t> frozen_entries_{0};
  std::atomic<uint64_t> freezes_{0};
  std::atomic<uint64_t> thaws_{0};
  std::atomic<uint64_t> frozen_raw_bytes_{0};
  std::atomic<uint64_t> frozen_encoded_bytes_{0};
};

}  // namespace fnproxy::core

#endif  // FNPROXY_CORE_CACHE_STORE_H_
