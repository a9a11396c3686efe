#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "alloc_counter.hpp"
#include "availsim/press/cache.hpp"
#include "availsim/press/directory.hpp"
#include "availsim/press/params.hpp"
#include "availsim/qmon/qmon.hpp"
#include "availsim/sim/node_set.hpp"
#include "availsim/sim/rng.hpp"

namespace availsim::press {
namespace {

// ---------------------------------------------------------------------------
// LruCache
// ---------------------------------------------------------------------------

TEST(LruCache, CapacityInFiles) {
  LruCache c(128ull << 20, 27 * 1024);
  EXPECT_EQ(c.capacity(), (128ull << 20) / (27 * 1024));
}

TEST(LruCache, InsertAndContains) {
  LruCache c(4 * 100, 100);  // 4 files
  EXPECT_EQ(c.insert(1), std::nullopt);
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_EQ(c.size(), 1u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache c(3 * 100, 100);
  c.insert(1);
  c.insert(2);
  c.insert(3);
  c.touch(1);  // 2 is now LRU
  EXPECT_EQ(c.insert(4), 2);
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.contains(4));
}

TEST(LruCache, ReinsertTouchesInsteadOfDuplicating) {
  LruCache c(2 * 100, 100);
  c.insert(1);
  c.insert(2);
  EXPECT_EQ(c.insert(1), std::nullopt);  // touch, no eviction
  EXPECT_EQ(c.insert(3), 2);  // 1 was freshened
}

TEST(LruCache, TouchMissReturnsFalse) {
  LruCache c(2 * 100, 100);
  EXPECT_FALSE(c.touch(9));
  c.insert(9);
  EXPECT_TRUE(c.touch(9));
}

TEST(LruCache, ClearEmpties) {
  LruCache c(2 * 100, 100);
  c.insert(1);
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.contains(1));
}

TEST(LruCache, ResidentListsAllFiles) {
  LruCache c(10 * 100, 100);
  for (int i = 0; i < 5; ++i) c.insert(i);
  auto res = c.resident();
  EXPECT_EQ(res.size(), 5u);
}

TEST(LruCache, MinimumCapacityOneFile) {
  LruCache c(10, 100);  // capacity smaller than one file
  EXPECT_EQ(c.capacity(), 1u);
  c.insert(1);
  EXPECT_EQ(c.insert(2), 1);
}

// Ids no file has: -1 and one past the largest FileId seen. Neither is
// ever resident, and touching one leaves the recency list intact.
TEST(LruCache, OutOfRangeFileIdIsNeverResident) {
  LruCache c(3 * 100, 100);
  for (workload::FileId f : {-1, 7}) {
    EXPECT_FALSE(c.contains(f)) << "empty cache, file " << f;
    EXPECT_FALSE(c.touch(f)) << "empty cache, file " << f;
  }
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.resident().empty());
  for (workload::FileId f : {1, 2, 3}) c.insert(f);
  for (workload::FileId f : {-1, 4}) {
    EXPECT_FALSE(c.contains(f)) << "full cache, file " << f;
    EXPECT_FALSE(c.touch(f)) << "full cache, file " << f;
  }
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.resident(), (std::vector<workload::FileId>{3, 2, 1}));
}

TEST(LruCache, CapacityPastSixteenBitSlotsThrows) {
  EXPECT_THROW(LruCache(65536 * 100, 100), std::length_error);
}

// Reference model: the std::list + hash-index LRU that the slot-linked
// cache replaced. The cache must match it operation for operation; it links
// a new file first and evicts after, so it also checks that the cache's
// evict-then-link keeps the same order.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool contains(workload::FileId f) const { return map_.contains(f); }

  bool touch(workload::FileId f) {
    auto it = map_.find(f);
    if (it == map_.end()) return false;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

  std::optional<workload::FileId> insert(workload::FileId f) {
    std::optional<workload::FileId> evicted;
    if (touch(f)) return evicted;
    lru_.push_front(f);
    map_[f] = lru_.begin();
    if (map_.size() > capacity_) {
      evicted = lru_.back();
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    return evicted;
  }

  void clear() {
    lru_.clear();
    map_.clear();
  }

  std::size_t size() const { return map_.size(); }
  std::vector<workload::FileId> resident() const {
    return {lru_.begin(), lru_.end()};
  }

 private:
  std::size_t capacity_;
  std::list<workload::FileId> lru_;  // front = MRU
  std::unordered_map<workload::FileId, std::list<workload::FileId>::iterator>
      map_;
};

class LruOracleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LruOracleTest, MatchesListAndHashReference) {
  constexpr std::size_t kFileBytes = 100;
  constexpr std::int64_t kFiles = 26000;  // the workload's catalogue
  constexpr int kOps = 100000;
  const std::size_t cap = GetParam();
  LruCache cache(cap * kFileBytes, kFileBytes);
  ASSERT_EQ(cache.capacity(), cap);
  ReferenceLru ref(cap);
  sim::Rng rng(cap);
  // Half the draws come from a hot range twice the capacity, so hits,
  // refreshes and evictions all happen; the rest span the whole
  // catalogue, growing the dense arrays to the largest FileId.
  const auto hot = std::min<std::int64_t>(2 * static_cast<std::int64_t>(cap) + 1,
                                          kFiles);
  // About half the ops insert, so this clears about once per four
  // capacities of inserts: the cache fills and evicts between clears at
  // every capacity.
  const double clear_p = 1.0 / (8.0 * static_cast<double>(cap));
  int clears = 0;
  int evictions = 0;
  for (int op = 0; op < kOps; ++op) {
    const auto f = static_cast<workload::FileId>(
        rng.bernoulli(0.5) ? rng.uniform_int(0, hot - 1)
                           : rng.uniform_int(0, kFiles - 1));
    const double u = rng.uniform();
    if (u < clear_p) {
      cache.clear();
      ref.clear();
      ++clears;
    } else if (u < 0.45) {
      ASSERT_EQ(cache.touch(f), ref.touch(f)) << "op " << op;
    } else {
      const std::optional<workload::FileId> evicted = cache.insert(f);
      ASSERT_EQ(evicted, ref.insert(f)) << "op " << op;
      evictions += evicted.has_value();
    }
    ASSERT_EQ(cache.size(), ref.size()) << "op " << op;
    ASSERT_EQ(cache.contains(f), ref.contains(f)) << "op " << op;
    if (op % 5000 == 0) {
      ASSERT_EQ(cache.resident(), ref.resident()) << "op " << op;
    }
  }
  EXPECT_EQ(cache.resident(), ref.resident());
  RecordProperty("clears", clears);
  RecordProperty("evictions", evictions);
  EXPECT_GT(clears, 0);
  EXPECT_GT(evictions, 0);
}

// 1 file, a 32-node cluster's share of the catalogue, and the default
// 128 MB cache of 27 KB files.
INSTANTIATE_TEST_SUITE_P(Capacities, LruOracleTest,
                         ::testing::Values(std::size_t{1}, std::size_t{812},
                                           std::size_t{4854}));

// The largest capacity 16-bit slots can number: every slot fills, then
// each new file takes the slot of the oldest one.
TEST(LruCache, SixteenBitSlotsHoldTheLargestCapacity) {
  constexpr std::size_t kCap = 65535;
  constexpr workload::FileId kInserts = 70000;
  LruCache cache(kCap * 100, 100);
  ASSERT_EQ(cache.capacity(), kCap);
  ReferenceLru ref(kCap);
  std::vector<workload::FileId> evicted;
  for (workload::FileId f = 0; f < kInserts; ++f) {
    const std::optional<workload::FileId> ev = cache.insert(f);
    ASSERT_EQ(ev, ref.insert(f)) << "file " << f;
    if (ev) evicted.push_back(*ev);
  }
  std::vector<workload::FileId> oldest(kInserts - kCap);  // 4,465
  std::iota(oldest.begin(), oldest.end(), 0);
  EXPECT_EQ(evicted, oldest);
  EXPECT_EQ(cache.size(), kCap);
  EXPECT_EQ(cache.resident(), ref.resident());
}

// ---------------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------------

TEST(Directory, TracksRemoteCaches) {
  Directory d;
  d.node_caches(1, 42);
  d.node_caches(2, 42);
  EXPECT_TRUE(d.node_caches_file(1, 42));
  EXPECT_TRUE(d.node_caches_file(2, 42));
  d.node_evicts(1, 42);
  EXPECT_FALSE(d.node_caches_file(1, 42));
  EXPECT_TRUE(d.node_caches_file(2, 42));
}

TEST(Directory, BestServiceNodePicksLeastLoaded) {
  Directory d;
  d.node_caches(1, 7);
  d.node_caches(2, 7);
  d.set_load(1, 10);
  d.set_load(2, 3);
  sim::NodeSet coop{0, 1, 2};
  auto best = d.best_service_node(7, coop);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 2);
}

TEST(Directory, BestServiceNodeHonorsCoopSet) {
  Directory d;
  d.node_caches(1, 7);
  d.set_load(1, 0);
  sim::NodeSet coop{0, 2};  // node 1 excluded
  EXPECT_FALSE(d.best_service_node(7, coop).has_value());
}

TEST(Directory, UnknownFileHasNoServiceNode) {
  Directory d;
  sim::NodeSet coop{0, 1};
  EXPECT_FALSE(d.best_service_node(99, coop).has_value());
}

TEST(Directory, RemoveNodePurgesEverything) {
  Directory d;
  d.node_caches(1, 7);
  d.node_caches(1, 8);
  d.set_load(1, 5);
  d.remove_node(1);
  EXPECT_FALSE(d.node_caches_file(1, 7));
  EXPECT_EQ(d.load(1), 0);
  EXPECT_EQ(d.files_known_for(1), 0u);
}

TEST(Directory, SnapshotInstall) {
  Directory d;
  d.install_snapshot(3, {1, 2, 3, 4});
  EXPECT_EQ(d.files_known_for(3), 4u);
  EXPECT_TRUE(d.node_caches_file(3, 2));
}

TEST(Directory, DuplicateCacheAnnouncementIsIdempotent) {
  Directory d;
  d.node_caches(1, 7);
  d.node_caches(1, 7);
  EXPECT_EQ(d.files_known_for(1), 1u);
}

TEST(Directory, LoadTiesBreakOnInsertionOrder) {
  Directory d;
  d.node_caches(3, 5);
  d.node_caches(1, 5);
  d.node_caches(2, 5);
  sim::NodeSet coop;
  for (net::NodeId n : {1, 2, 3}) coop.insert(n);
  EXPECT_EQ(d.best_service_node(5, coop), 3);
  d.node_evicts(3, 5);
  d.node_caches(3, 5);  // re-announced: now last in line
  EXPECT_EQ(d.best_service_node(5, coop), 1);
}

// A record's inline fields hold NodeIds up to 32,766. A larger id throws,
// as a cache past its 16-bit slots does, and leaves the directory as it was.
TEST(Directory, NodeIdPastInlineRangeThrows) {
  Directory d;
  d.node_caches(32766, 7);
  EXPECT_THROW(d.node_caches(32767, 7), std::length_error);
  EXPECT_THROW(d.install_snapshot(40000, {8}), std::length_error);
  EXPECT_TRUE(d.node_caches_file(32766, 7));
  EXPECT_FALSE(d.node_caches_file(32767, 7));
  EXPECT_FALSE(d.node_caches_file(40000, 8));
  EXPECT_EQ(d.files_known_for(32766), 1u);
  const sim::NodeSet coop{32766, 32767, 40000};
  EXPECT_EQ(d.best_service_node(7, coop), 32766);
  EXPECT_EQ(d.best_service_node(8, coop), std::nullopt);
}

// Reference model: the per-file replica vectors and node -> load map that
// the records, the pooled lists and the dense load array replaced. The
// directory must match it operation for operation, load ties included.
class ReferenceDirectory {
 public:
  void node_caches(net::NodeId node, workload::FileId file) {
    if (idx(file) >= where_.size()) where_.resize(idx(file) + 1);
    auto& nodes = where_[idx(file)];
    if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
      nodes.push_back(node);
    }
  }

  void node_evicts(net::NodeId node, workload::FileId file) {
    if (idx(file) < where_.size()) std::erase(where_[idx(file)], node);
  }

  void set_load(net::NodeId node, int load) { loads_[node] = load; }

  int load(net::NodeId node) const {
    auto it = loads_.find(node);
    return it == loads_.end() ? 0 : it->second;
  }

  void remove_node(net::NodeId node) {
    loads_.erase(node);
    for (auto& nodes : where_) std::erase(nodes, node);
  }

  void install_snapshot(net::NodeId node,
                        const std::vector<workload::FileId>& files) {
    for (auto f : files) node_caches(node, f);
  }

  std::optional<net::NodeId> best_service_node(
      workload::FileId file, const sim::NodeSet& coop) const {
    std::optional<net::NodeId> best;
    int best_load = 0;
    for (net::NodeId n : replicas(file)) {
      if (!coop.contains(n)) continue;
      if (!best || load(n) < best_load) {
        best = n;
        best_load = load(n);
      }
    }
    return best;
  }

  bool node_caches_file(net::NodeId node, workload::FileId file) const {
    const auto& nodes = replicas(file);
    return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
  }

  std::size_t files_known_for(net::NodeId node) const {
    std::size_t n = 0;
    for (const auto& nodes : where_) {
      n += static_cast<std::size_t>(std::count(nodes.begin(), nodes.end(), node));
    }
    return n;
  }

  const std::vector<net::NodeId>& replicas(workload::FileId file) const {
    static const std::vector<net::NodeId> kNoReplicas;
    return idx(file) < where_.size() ? where_[idx(file)] : kNoReplicas;
  }

 private:
  static std::size_t idx(workload::FileId f) { return static_cast<std::size_t>(f); }

  std::vector<std::vector<net::NodeId>> where_;
  std::map<net::NodeId, int> loads_;
};

class DirectoryOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(DirectoryOracleTest, MatchesVectorAndMapReference) {
  constexpr workload::FileId kFiles = 300;
  constexpr int kOps = 30000;
  const int nodes = GetParam();
  Directory dir;
  ReferenceDirectory ref;
  sim::Rng rng(static_cast<std::uint64_t>(nodes));
  const auto any_node = [&] {
    return static_cast<net::NodeId>(rng.uniform_int(0, nodes - 1));
  };
  const auto any_file = [&] {
    return static_cast<workload::FileId>(rng.uniform_int(0, kFiles - 1));
  };
  sim::NodeSet everyone;
  for (net::NodeId n = 0; n < nodes; ++n) everyone.insert(n);
  // Ops that take their file from two replicas (held inline) to three or
  // more (pooled), and from three or more back to two; and the longest
  // list an op left.
  int to_pool = 0;
  int to_inline = 0;
  std::size_t longest = 0;

  for (int op = 0; op < kOps; ++op) {
    const double u = rng.uniform();
    const workload::FileId f = any_file();
    net::NodeId n = any_node();
    const std::size_t had = ref.replicas(f).size();
    if (u < 0.75) {
      // An add with probability 1 - len/4 (at least 5%), else an evict:
      // the two are even at two replicas, so lists hover at the
      // inline/pool boundary at every cluster size, while the rare add
      // past four and the snapshots below still grow some to five or more.
      if (rng.bernoulli(std::max(0.05, 1.0 - static_cast<double>(had) / 4))) {
        dir.node_caches(n, f);
        ref.node_caches(n, f);
      } else {
        // Mostly a replica the file has, from anywhere in its list, so
        // unlinks hit the head, the middle and the tail.
        const auto& known = ref.replicas(f);
        if (!known.empty() && rng.bernoulli(0.8)) {
          n = known[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(known.size()) - 1))];
        }
        dir.node_evicts(n, f);
        ref.node_evicts(n, f);
      }
    } else if (u < 0.95) {
      // Loads from {0, 1, 2}: ties are common, so insertion order decides.
      const int load = static_cast<int>(rng.uniform_int(0, 2));
      dir.set_load(n, load);
      ref.set_load(n, load);
    } else if (u < 0.998) {
      std::vector<workload::FileId> snap(
          static_cast<std::size_t>(rng.uniform_int(0, 8)));
      for (auto& s : snap) s = any_file();
      dir.install_snapshot(n, snap);
      ref.install_snapshot(n, snap);
    } else {
      dir.remove_node(n);
      ref.remove_node(n);
    }
    const std::size_t has = ref.replicas(f).size();
    to_pool += had == 2 && has >= 3;
    to_inline += had >= 3 && has == 2;
    longest = std::max(longest, has);
    // The touched file and node after every op, so a broken list shows
    // before later ops can walk it.
    ASSERT_EQ(dir.best_service_node(f, everyone),
              ref.best_service_node(f, everyone)) << "op " << op;
    ASSERT_EQ(dir.files_known_for(n), ref.files_known_for(n)) << "op " << op;
    ASSERT_EQ(dir.load(n), ref.load(n)) << "op " << op;
    if (op % 100 != 0) continue;
    sim::NodeSet subset;
    for (net::NodeId m = 0; m < nodes; ++m) {
      if (rng.bernoulli(0.5)) subset.insert(m);
    }
    // One id past the files and nodes ever touched: unknown ids read as
    // "no replica" and load 0.
    for (workload::FileId g = 0; g <= kFiles; ++g) {
      ASSERT_EQ(dir.best_service_node(g, everyone),
                ref.best_service_node(g, everyone)) << "op " << op << " file " << g;
      ASSERT_EQ(dir.best_service_node(g, subset),
                ref.best_service_node(g, subset)) << "op " << op << " file " << g;
      for (net::NodeId m = 0; m <= nodes; ++m) {
        ASSERT_EQ(dir.node_caches_file(m, g), ref.node_caches_file(m, g))
            << "op " << op << " node " << m << " file " << g;
      }
    }
    for (net::NodeId m = 0; m <= nodes; ++m) {
      ASSERT_EQ(dir.files_known_for(m), ref.files_known_for(m))
          << "op " << op << " node " << m;
      ASSERT_EQ(dir.load(m), ref.load(m)) << "op " << op << " node " << m;
    }
  }
  RecordProperty("to_pool", to_pool);
  RecordProperty("to_inline", to_inline);
  RecordProperty("longest", static_cast<int>(longest));
  EXPECT_GE(to_pool, 1000);
  EXPECT_GE(to_inline, 1000);
  // Long pooled lists stay covered wherever the cluster has room for them.
  if (nodes >= 33) {
    EXPECT_GE(longest, 5u);
  }
}

// 4-, 32- and 128-node clusters (fig12's largest), each plus its
// front-end's id.
INSTANTIATE_TEST_SUITE_P(ClusterSizes, DirectoryOracleTest,
                         ::testing::Values(5, 33, 129));

// A prewarmed directory at N=32 (PressNode::prewarm_cache: the whole
// catalogue, owner f % 32, descending ids, the node's own share skipped)
// lives in a few arrays. Allocating once per file, as per-file vectors
// did, would cost about 25,000 allocations.
TEST(Directory, PrewarmedBuildAllocatesOnlyToGrowItsArrays) {
  constexpr int kNodes = 32;
  constexpr workload::FileId kFiles = 26000;
  constexpr net::NodeId kSelf = 5;
  const std::uint64_t before = allocation_count();
  Directory d;
  for (workload::FileId f = kFiles - 1; f >= 0; --f) {
    const net::NodeId owner = f % kNodes;
    if (owner != kSelf) d.node_caches(owner, f);
  }
  const std::uint64_t allocs = allocation_count() - before;
  EXPECT_LT(allocs, 64u);
  EXPECT_EQ(d.files_known_for(kSelf), 0u);
  EXPECT_EQ(d.files_known_for(kSelf + 1),
            static_cast<std::size_t>(kFiles / kNodes + 1));
}

// One prewarmed node of a 32-node cluster: the directory above plus a full
// default cache (128 MB of 27 KB files) that took FileIds 25,999 down to 0.
// Sized by what the node holds, its state is about 190 KB: the
// directory's FileId-indexed records (4 B per file) and the cache's
// 16-bit slot table (2 B per file) and slots (8 B per cached file). A
// catalogue-sized layout (8 B of cache links per file, every replica in
// a pool grown by doubling) takes about 565 KB, so the bound tells them
// apart.
TEST(PressFootprint, PrewarmedThirtyTwoNodeStateStaysUnder360KB) {
  constexpr int kNodes = 32;
  constexpr workload::FileId kFiles = 26000;
  constexpr net::NodeId kSelf = 5;
  const PressParams p;
  const std::int64_t before = live_bytes();
  Directory d;
  for (workload::FileId f = kFiles - 1; f >= 0; --f) {
    const net::NodeId owner = f % kNodes;
    if (owner != kSelf) d.node_caches(owner, f);
  }
  LruCache cache(p.cache_bytes, p.file_bytes);
  for (workload::FileId f = kFiles - 1; f >= 0; --f) cache.insert(f);
  const std::int64_t live = live_bytes() - before;
  ASSERT_EQ(cache.capacity(), 4854u);
  ASSERT_EQ(cache.size(), 4854u);
  RecordProperty("live_bytes", static_cast<int>(live));
  EXPECT_LT(live, 360 * 1024);
}

// A 32-node directory in which every file has its owner f % 32 and every
// even file also (f + 1) % 32, in descending FileIds. Both replicas fit
// the file's 4-byte record, so the directory is one 104 KB array and an
// empty pool. An 8-byte head per file plus a pool of the 13,000 second
// replicas takes about 331 KiB.
TEST(PressFootprint, TwoReplicaThirtyTwoNodeDirectoryStaysUnder160KB) {
  constexpr int kNodes = 32;
  constexpr workload::FileId kFiles = 26000;
  const std::int64_t before = live_bytes();
  Directory d;
  for (workload::FileId f = kFiles - 1; f >= 0; --f) {
    d.node_caches(f % kNodes, f);
    if (f % 2 == 0) d.node_caches((f + 1) % kNodes, f);
  }
  const std::int64_t live = live_bytes() - before;
  // Node 1 owns 813 files and is the second replica of node 0's 813.
  ASSERT_EQ(d.files_known_for(1), 1626u);
  RecordProperty("live_bytes", static_cast<int>(live));
  EXPECT_LT(live, 160 * 1024);
}

}  // namespace
}  // namespace availsim::press

namespace availsim::qmon {
namespace {

SelfMonitoringQueue::Entry request_entry(std::uint64_t id) {
  SelfMonitoringQueue::Entry e;
  e.is_request = true;
  e.request_id = id;
  e.bytes = 128;
  return e;
}

SelfMonitoringQueue::Entry update_entry() {
  SelfMonitoringQueue::Entry e;
  e.is_request = false;
  e.bytes = 48;
  return e;
}

QmonPolicy enabled_policy() {
  QmonPolicy p;
  p.enabled = true;
  p.reroute_requests = 8;
  p.fail_requests = 16;
  p.fail_total = 32;
  p.probe_fraction = 0.0;  // deterministic: never admit past reroute
  return p;
}

TEST(SelfMonitoringQueue, WindowLimitsInFlight) {
  SelfMonitoringQueue q(QmonPolicy{}, 512, 4);
  sim::Rng rng(1);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(q.push(request_entry(i), rng),
              SelfMonitoringQueue::PushResult::kQueued);
  }
  int transmitted = 0;
  while (q.pop_transmittable()) ++transmitted;
  EXPECT_EQ(transmitted, 4);  // window closed
  EXPECT_EQ(q.in_flight(), 4u);
  EXPECT_EQ(q.queued_requests(), 2u);
}

TEST(SelfMonitoringQueue, CreditOpensWindow) {
  SelfMonitoringQueue q(QmonPolicy{}, 512, 2);
  sim::Rng rng(1);
  for (std::uint64_t i = 0; i < 3; ++i) q.push(request_entry(i), rng);
  while (q.pop_transmittable()) {
  }
  EXPECT_TRUE(q.credit(0));
  auto e = q.pop_transmittable();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->request_id, 2u);
  EXPECT_FALSE(q.credit(999));  // unknown id
}

TEST(SelfMonitoringQueue, NonRequestsBypassWindow) {
  SelfMonitoringQueue q(QmonPolicy{}, 512, 1);
  sim::Rng rng(1);
  q.push(request_entry(1), rng);
  q.push(request_entry(2), rng);
  q.push(update_entry(), rng);
  EXPECT_TRUE(q.pop_transmittable().has_value());   // request 1 (in flight)
  EXPECT_FALSE(q.pop_transmittable().has_value());  // request 2 blocked
  // ...but a queued non-request behind a blocked request stays ordered.
  EXPECT_EQ(q.queued_total(), 2u);
}

TEST(SelfMonitoringQueue, BlocksAtCapacityWithoutMonitoring) {
  SelfMonitoringQueue q(QmonPolicy{}, 4, 1);
  sim::Rng rng(1);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(q.push(request_entry(i), rng),
              SelfMonitoringQueue::PushResult::kQueued);
  }
  EXPECT_EQ(q.push(request_entry(9), rng),
            SelfMonitoringQueue::PushResult::kWouldBlock);
}

TEST(SelfMonitoringQueue, ReroutesAboveThresholdWithMonitoring) {
  SelfMonitoringQueue q(enabled_policy(), 512, 1);
  sim::Rng rng(1);
  std::uint64_t id = 0;
  // Fill to the reroute threshold (window 1: one in flight, rest queued).
  while (q.queued_requests() < 8) {
    ASSERT_EQ(q.push(request_entry(id++), rng),
              SelfMonitoringQueue::PushResult::kQueued);
    q.pop_transmittable();
  }
  EXPECT_TRUE(q.over_reroute_threshold());
  EXPECT_EQ(q.push(request_entry(id++), rng),
            SelfMonitoringQueue::PushResult::kReroute);
}

TEST(SelfMonitoringQueue, ProbeFractionAdmitsSome) {
  QmonPolicy p = enabled_policy();
  p.probe_fraction = 1.0;  // always admit (probe)
  SelfMonitoringQueue q(p, 512, 1);
  sim::Rng rng(1);
  std::uint64_t id = 0;
  while (q.queued_requests() < 10) {
    ASSERT_EQ(q.push(request_entry(id++), rng),
              SelfMonitoringQueue::PushResult::kQueued);
  }
  EXPECT_TRUE(q.over_reroute_threshold());
}

TEST(SelfMonitoringQueue, FailThresholdOnRequests) {
  QmonPolicy p = enabled_policy();
  p.probe_fraction = 1.0;
  SelfMonitoringQueue q(p, 512, 1);
  sim::Rng rng(1);
  std::uint64_t id = 0;
  while (q.queued_requests() < 16) q.push(request_entry(id++), rng);
  EXPECT_TRUE(q.over_fail_threshold());
}

TEST(SelfMonitoringQueue, FailThresholdOnTotalMessages) {
  QmonPolicy p = enabled_policy();
  SelfMonitoringQueue q(p, 512, 4);
  sim::Rng rng(1);
  for (int i = 0; i < 32; ++i) q.push(update_entry(), rng);
  EXPECT_TRUE(q.over_fail_threshold());
}

TEST(SelfMonitoringQueue, NeverBlocksWithMonitoringEnabled) {
  QmonPolicy p = enabled_policy();
  p.probe_fraction = 1.0;
  SelfMonitoringQueue q(p, 8, 1);  // tiny block capacity, monitoring on
  sim::Rng rng(1);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_NE(q.push(request_entry(i), rng),
              SelfMonitoringQueue::PushResult::kWouldBlock);
  }
}

TEST(SelfMonitoringQueue, PurgeReturnsAllRequestIds) {
  SelfMonitoringQueue q(QmonPolicy{}, 512, 2);
  sim::Rng rng(1);
  for (std::uint64_t i = 0; i < 5; ++i) q.push(request_entry(i), rng);
  while (q.pop_transmittable()) {
  }
  auto ids = q.purge();
  EXPECT_EQ(ids.size(), 5u);  // 2 in flight + 3 queued
  EXPECT_EQ(q.queued_total(), 0u);
  EXPECT_EQ(q.in_flight(), 0u);
}

class WindowSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(WindowSweepTest, InFlightNeverExceedsWindow) {
  const int window = GetParam();
  SelfMonitoringQueue q(QmonPolicy{}, 4096, window);
  sim::Rng rng(7);
  std::uint64_t id = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 10; ++i) q.push(request_entry(id++), rng);
    while (q.pop_transmittable()) {
    }
    ASSERT_LE(q.in_flight(), static_cast<std::size_t>(window));
    // Credit a random half of the in-flight set.
    for (std::uint64_t c = 0; c < id; ++c) {
      if (rng.bernoulli(0.5)) q.credit(c);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweepTest,
                         ::testing::Values(1, 2, 8, 32, 128));

}  // namespace
}  // namespace availsim::qmon
