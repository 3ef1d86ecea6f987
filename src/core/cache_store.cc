#include "core/cache_store.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace fnproxy::core {

const char* EntryTierName(EntryTier tier) {
  switch (tier) {
    case EntryTier::kHot:
      return "hot";
    case EntryTier::kFrozen:
      return "frozen";
  }
  return "?";
}

const char* ReplacementPolicyName(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return "LRU";
    case ReplacementPolicy::kCostAware:
      return "cost-aware";
  }
  return "?";
}

void RefetchCostFit::AddSample(size_t rows, int64_t micros) {
  const double x = static_cast<double>(rows);
  const double y = static_cast<double>(micros);
  util::MutexLock lock(mu_);
  count_ += 1;
  const double dx = x - mean_rows_;
  mean_rows_ += dx / count_;
  mean_micros_ += (y - mean_micros_) / count_;
  rows_m2_ += dx * (x - mean_rows_);
  co_moment_ += dx * (y - mean_micros_);
  // Slope and intercept are clamped at zero: a re-fetch never pays less
  // than nothing, whatever a few noisy samples suggest.
  const double per_row =
      rows_m2_ > 0 ? std::max(co_moment_ / rows_m2_, 0.0) : 0.0;
  const double fixed = std::max(mean_micros_ - per_row * mean_rows_, 0.0);
  fixed_micros_.store(fixed, std::memory_order_relaxed);
  per_row_micros_.store(per_row, std::memory_order_relaxed);
  fitted_.store(true, std::memory_order_relaxed);
}

RefetchCost RefetchCostFit::Current() const {
  RefetchCost cost;
  cost.fixed_micros = fixed_micros_.load(std::memory_order_relaxed);
  cost.per_row_micros = per_row_micros_.load(std::memory_order_relaxed);
  cost.fitted = fitted_.load(std::memory_order_relaxed);
  return cost;
}

CacheStore::CacheStore(const RegionIndexFactory& factory, size_t num_shards,
                       size_t max_bytes, ReplacementPolicy policy)
    : max_bytes_(max_bytes), policy_(policy) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->description = factory();
    shards_.push_back(std::move(shard));
  }
}

uint64_t CacheStore::PickVictim(double* priority) const {
  // One read of the fit per scan, so every entry is priced by the same line.
  const RefetchCost cost = refetch_cost_.Current();
  uint64_t victim = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& shard : shards_) {
    util::ReaderMutexLock lock(shard->mu);
    for (const auto& [id, stored] : shard->entries) {
      double score = 0;
      switch (policy_) {
        case ReplacementPolicy::kLru:
          score = static_cast<double>(
              stored.last_access_micros.load(std::memory_order_relaxed));
          break;
        case ReplacementPolicy::kCostAware:
          score = stored.priority_base.load(std::memory_order_relaxed) +
                  static_cast<double>(
                      stored.access_count.load(std::memory_order_relaxed)) *
                      cost.Of(stored.rows) / static_cast<double>(stored.size);
          break;
      }
      if (score < best_score) {
        best_score = score;
        victim = id;
      }
    }
  }
  *priority = best_score;
  return victim;
}

uint64_t CacheStore::Insert(CacheEntry entry, size_t* comparisons) {
  return Insert(std::move(entry), comparisons, nullptr);
}

uint64_t CacheStore::Insert(CacheEntry entry, size_t* comparisons,
                            std::shared_ptr<const CacheEntry>* snapshot_out) {
  assert(entry.region != nullptr);
  assert(entry.tier == EntryTier::kHot || entry.segment != nullptr);
  *comparisons = 0;
  if (snapshot_out != nullptr) snapshot_out->reset();
  // Entry metadata overhead on top of the tier's payload.
  entry.bytes = (entry.tier == EntryTier::kHot
                     ? entry.result.ByteSize()
                     : (entry.segment != nullptr ? entry.segment->ByteSize()
                                                 : 0)) +
                256;
  if (max_bytes_ != 0 && entry.bytes > max_bytes_) {
    return 0;  // Larger than the whole cache; not cacheable.
  }
  // Reserve the bytes first, then evict down to budget. Reserving up front
  // keeps concurrent admissions from all passing a stale budget check and
  // collectively overshooting without bound.
  bytes_used_.fetch_add(entry.bytes, std::memory_order_relaxed);
  while (max_bytes_ != 0 &&
         bytes_used_.load(std::memory_order_relaxed) > max_bytes_ &&
         num_entries_.load(std::memory_order_relaxed) > 0) {
    double priority = 0;
    uint64_t victim = PickVictim(&priority);
    if (victim == 0) break;
    size_t removal_comparisons = 0;
    // A concurrent admission may have evicted the same victim; only the
    // thread whose Remove succeeds counts the eviction.
    if (Remove(victim, &removal_comparisons)) {
      *comparisons += removal_comparisons;
      evictions_.fetch_add(1, std::memory_order_relaxed);
      if (policy_ == ReplacementPolicy::kCostAware) {
        inflation_.store(priority, std::memory_order_relaxed);
      }
    }
  }
  uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  entry.id = id;
  geometry::Hyperrectangle bbox = entry.region->BoundingBox();
  int64_t last_access = entry.last_access_micros;
  uint64_t accesses = entry.access_count;
  const size_t rows = entry.tier == EntryTier::kHot
                          ? entry.result.num_rows()
                          : (entry.segment != nullptr
                                 ? entry.segment->num_rows()
                                 : 0);
  const size_t size = entry.bytes;
  if (entry.tier == EntryTier::kFrozen) {
    frozen_entries_.fetch_add(1, std::memory_order_relaxed);
  }
  auto snapshot = std::make_shared<const CacheEntry>(std::move(entry));
  if (snapshot_out != nullptr) *snapshot_out = snapshot;

  Shard& shard = ShardFor(id);
  {
    util::WriterMutexLock lock(shard.mu);
    size_t insert_comparisons = 0;
    shard.description->Insert(id, bbox, &insert_comparisons);
    *comparisons += insert_comparisons;
    Stored& stored = shard.entries[id];
    stored.entry = std::move(snapshot);
    stored.last_access_micros.store(last_access, std::memory_order_relaxed);
    stored.access_count.store(accesses, std::memory_order_relaxed);
    stored.priority_base.store(inflation_.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
    stored.size = size;
    stored.rows = rows;
  }
  num_entries_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

bool CacheStore::Remove(uint64_t id, size_t* comparisons) {
  *comparisons = 0;
  Shard& shard = ShardFor(id);
  std::shared_ptr<const CacheEntry> removed;
  {
    util::WriterMutexLock lock(shard.mu);
    auto it = shard.entries.find(id);
    if (it == shard.entries.end()) return false;
    removed = std::move(it->second.entry);
    shard.description->Remove(id, comparisons);
    shard.entries.erase(it);
  }
  bytes_used_.fetch_sub(removed->bytes, std::memory_order_relaxed);
  num_entries_.fetch_sub(1, std::memory_order_relaxed);
  if (removed->tier == EntryTier::kFrozen) {
    frozen_entries_.fetch_sub(1, std::memory_order_relaxed);
  }
  return true;
}

bool CacheStore::SwapEntry(uint64_t id,
                           const std::shared_ptr<const CacheEntry>& expected,
                           std::shared_ptr<const CacheEntry> replacement) {
  Shard& shard = ShardFor(id);
  size_t new_bytes = replacement->bytes;
  EntryTier new_tier = replacement->tier;
  size_t old_bytes = 0;
  EntryTier old_tier = EntryTier::kHot;
  {
    util::WriterMutexLock lock(shard.mu);
    auto it = shard.entries.find(id);
    if (it == shard.entries.end() || it->second.entry != expected) {
      return false;  // Removed or already swapped by a concurrent thread.
    }
    old_bytes = expected->bytes;
    old_tier = expected->tier;
    it->second.entry = std::move(replacement);
  }
  if (new_bytes >= old_bytes) {
    bytes_used_.fetch_add(new_bytes - old_bytes, std::memory_order_relaxed);
  } else {
    bytes_used_.fetch_sub(old_bytes - new_bytes, std::memory_order_relaxed);
  }
  if (old_tier == EntryTier::kFrozen) {
    frozen_entries_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (new_tier == EntryTier::kFrozen) {
    frozen_entries_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

CacheEntry CacheStore::CloneMeta(const CacheEntry& entry) {
  CacheEntry clone;
  clone.id = entry.id;
  clone.template_id = entry.template_id;
  clone.nonspatial_fingerprint = entry.nonspatial_fingerprint;
  clone.region = entry.region->Clone();
  clone.truncated = entry.truncated;
  clone.last_access_micros = entry.last_access_micros;
  clone.access_count = entry.access_count;
  return clone;
}

CacheEntry CacheStore::Thawed(const CacheEntry& entry) {
  CacheEntry promoted = CloneMeta(entry);
  promoted.tier = EntryTier::kHot;
  promoted.result = entry.segment->Thaw();
  promoted.bytes = promoted.result.ByteSize() + 256;
  return promoted;
}

size_t CacheStore::SweepColdEntries(int64_t now_micros,
                                    int64_t freeze_idle_micros) {
  // Phase 1: collect idle hot entries under shared locks (snapshots keep
  // the entries alive after release).
  struct Candidate {
    uint64_t id;
    std::shared_ptr<const CacheEntry> entry;
  };
  std::vector<Candidate> to_freeze;
  for (const auto& shard : shards_) {
    util::ReaderMutexLock lock(shard->mu);
    for (const auto& [id, stored] : shard->entries) {
      int64_t idle =
          now_micros - stored.last_access_micros.load(std::memory_order_relaxed);
      if (stored.entry->tier == EntryTier::kHot && idle >= freeze_idle_micros) {
        to_freeze.push_back({id, stored.entry});
      }
    }
  }

  // Phase 2: encode outside the locks, then install with a validate-and-swap
  // (a concurrently promoted or evicted entry loses its demotion silently).
  // An entry touched between collection and swap may still freeze —
  // harmless, the next tuple access thaws it.
  size_t frozen = 0;
  for (const Candidate& c : to_freeze) {
    auto segment = std::make_shared<const storage::FrozenSegment>(
        storage::FrozenSegment::Freeze(c.entry->result));
    CacheEntry demoted = CloneMeta(*c.entry);
    demoted.tier = EntryTier::kFrozen;
    demoted.segment = segment;
    demoted.bytes = segment->ByteSize() + 256;
    if (SwapEntry(c.id, c.entry,
                  std::make_shared<const CacheEntry>(std::move(demoted)))) {
      freezes_.fetch_add(1, std::memory_order_relaxed);
      frozen_raw_bytes_.fetch_add(c.entry->result.ByteSize(),
                                  std::memory_order_relaxed);
      frozen_encoded_bytes_.fetch_add(segment->ByteSize(),
                                      std::memory_order_relaxed);
      ++frozen;
    }
  }
  return frozen;
}

std::shared_ptr<const CacheEntry> CacheStore::FindHot(uint64_t id) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::shared_ptr<const CacheEntry> snapshot = Find(id);
    if (snapshot == nullptr || snapshot->tier == EntryTier::kHot) {
      return snapshot;
    }
    auto hot = std::make_shared<const CacheEntry>(Thawed(*snapshot));
    if (SwapEntry(id, snapshot, hot)) {
      thaws_.fetch_add(1, std::memory_order_relaxed);
      return hot;
    }
    // Swap lost a race (concurrent promotion or eviction); re-read and retry.
  }
  // Pathological contention: give the caller a correct private hot copy
  // without installing it.
  std::shared_ptr<const CacheEntry> snapshot = Find(id);
  if (snapshot == nullptr || snapshot->tier == EntryTier::kHot) return snapshot;
  return std::make_shared<const CacheEntry>(Thawed(*snapshot));
}

std::shared_ptr<const CacheEntry> CacheStore::Find(uint64_t id) const {
  const Shard& shard = ShardFor(id);
  util::ReaderMutexLock lock(shard.mu);
  auto it = shard.entries.find(id);
  return it == shard.entries.end() ? nullptr : it->second.entry;
}

void CacheStore::Touch(uint64_t id, int64_t now_micros) {
  Shard& shard = ShardFor(id);
  util::ReaderMutexLock lock(shard.mu);
  auto it = shard.entries.find(id);
  if (it == shard.entries.end()) return;
  it->second.last_access_micros.store(now_micros, std::memory_order_relaxed);
  it->second.priority_base.store(inflation_.load(std::memory_order_relaxed),
                                 std::memory_order_relaxed);
  it->second.access_count.fetch_add(1, std::memory_order_relaxed);
}

std::vector<uint64_t> CacheStore::Candidates(
    const geometry::Hyperrectangle& bbox, size_t* comparisons) const {
  *comparisons = 0;
  std::vector<uint64_t> ids;
  for (const auto& shard : shards_) {
    util::ReaderMutexLock lock(shard->mu);
    size_t shard_comparisons = 0;
    std::vector<uint64_t> shard_ids =
        shard->description->SearchIntersecting(bbox, &shard_comparisons);
    *comparisons += shard_comparisons;
    ids.insert(ids.end(), shard_ids.begin(), shard_ids.end());
  }
  return ids;
}

std::vector<uint64_t> CacheStore::AllIds() const {
  std::vector<uint64_t> ids;
  for (const auto& shard : shards_) {
    util::ReaderMutexLock lock(shard->mu);
    for (const auto& [id, stored] : shard->entries) ids.push_back(id);
  }
  return ids;
}

std::vector<LiveEntry> CacheStore::LiveEntries() const {
  std::vector<LiveEntry> entries;
  for (const auto& shard : shards_) {
    util::ReaderMutexLock lock(shard->mu);
    for (const auto& [id, stored] : shard->entries) {
      entries.push_back(
          {stored.entry,
           stored.last_access_micros.load(std::memory_order_relaxed),
           stored.access_count.load(std::memory_order_relaxed)});
    }
  }
  return entries;
}

}  // namespace fnproxy::core
