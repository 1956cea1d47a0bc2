// Differential fuzz for the dynamically-split Kademlia bucket table
// (src/kademlia/kbucket.h), mirroring ring_fuzz_test.cpp: drive the real
// structure and a deliberately naive reference model through the same
// randomized op stream and compare every observable after each step.
//
// The reference exploits the path-shaped bucket tree: after L splits the
// table is exactly L far buckets plus the self-covering remainder, and a
// contact's bucket is determined by min(common-prefix-length(id, self), L).
// So the reference keeps a flat contact list with monotonic recency
// counters and recomputes group membership on demand — no tree, no
// partition bookkeeping, nothing shared with the implementation under test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "kademlia/kbucket.h"

namespace ert::kademlia {
namespace {

struct RefContact {
  std::uint64_t id;
  std::uint64_t stamp;  ///< monotonic recency: higher = more recent.
  bool live;
};

class Reference {
 public:
  Reference(std::uint64_t self, int bits, std::size_t k)
      : self_(self), bits_(bits), k_(k) {}

  /// min(common-prefix-length, depth): the index of the bucket holding
  /// `id` in a path-shaped tree split `depth_` times.
  std::size_t group(std::uint64_t id) const {
    const int m = msb_diff(self_, id);
    const std::size_t cp = static_cast<std::size_t>(bits_ - 1 - m);
    return std::min(cp, depth_);
  }

  std::vector<const RefContact*> members(std::size_t g) const {
    std::vector<const RefContact*> out;
    for (const RefContact& c : contacts_)
      if (group(c.id) == g) out.push_back(&c);
    std::sort(out.begin(), out.end(),
              [](const RefContact* a, const RefContact* b) {
                return a->stamp < b->stamp;
              });
    return out;
  }

  bool insert(std::uint64_t id) {
    if (id == self_) return false;
    if (RefContact* c = find(id)) {
      c->stamp = next_stamp_++;
      c->live = true;
      return true;
    }
    // Split the self-covering bucket for as long as it overflows; each
    // split just deepens the path, regrouping falls out of group().
    while (group(id) == depth_ && members(depth_).size() >= k_ &&
           depth_ < static_cast<std::size_t>(bits_))
      ++depth_;
    const std::size_t g = group(id);
    auto in_group = members(g);
    if (in_group.size() < k_) {
      contacts_.push_back({id, next_stamp_++, true});
      return true;
    }
    // Full bucket that can no longer split: evict the oldest dead
    // contact; live long-standing contacts are never displaced.
    for (const RefContact* c : in_group) {
      if (!c->live) {
        erase(c->id);
        contacts_.push_back({id, next_stamp_++, true});
        return true;
      }
    }
    return false;
  }

  bool erase(std::uint64_t id) {
    for (std::size_t i = 0; i < contacts_.size(); ++i) {
      if (contacts_[i].id == id) {
        contacts_.erase(contacts_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  bool contains(std::uint64_t id) const {
    return const_cast<Reference*>(this)->find(id) != nullptr;
  }

  bool set_live(std::uint64_t id, bool live) {
    if (RefContact* c = find(id)) {
      c->live = live;
      return true;
    }
    return false;
  }

  void closest(std::uint64_t key, std::size_t count,
               std::vector<std::uint64_t>& out) const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked;
    for (const RefContact& c : contacts_) ranked.emplace_back(c.id ^ key, c.id);
    std::sort(ranked.begin(), ranked.end());
    out.clear();
    for (std::size_t i = 0; i < std::min(count, ranked.size()); ++i)
      out.push_back(ranked[i].second);
  }

  std::size_t size() const { return contacts_.size(); }
  std::size_t depth() const { return depth_; }

 private:
  RefContact* find(std::uint64_t id) {
    for (RefContact& c : contacts_)
      if (c.id == id) return &c;
    return nullptr;
  }

  std::uint64_t self_;
  int bits_;
  std::size_t k_;
  std::size_t depth_ = 0;
  std::vector<RefContact> contacts_;
  std::uint64_t next_stamp_ = 0;
};

/// Full structural comparison: bucket count matches the split depth, and
/// each bucket holds exactly the reference group's contacts in the same
/// (recency) order with the same liveness flags.
void compare_structure(const KBucketTable& table, const Reference& ref) {
  ASSERT_EQ(table.num_buckets(), ref.depth() + 1);
  ASSERT_EQ(table.size(), ref.size());
  for (const KBucket& b : table.buckets()) {
    // Path tree: the bucket covering self sits at depth L; a far bucket at
    // prefix_len p holds the contacts whose common prefix is exactly p-1.
    const bool covers_self =
        b.prefix_len == 0 ||
        ((table.self() ^ b.prefix) >> (table.bits() - b.prefix_len)) == 0;
    const std::size_t g = covers_self ? ref.depth()
                                      : static_cast<std::size_t>(b.prefix_len) - 1;
    const auto want = ref.members(g);
    ASSERT_EQ(b.contacts.size(), want.size()) << "group " << g;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(b.contacts[i].id, want[i]->id) << "group " << g << " pos " << i;
      EXPECT_EQ(b.contacts[i].live, want[i]->live) << "group " << g;
    }
  }
}

void run_fuzz(std::uint64_t seed, int bits, std::size_t k, int ops) {
  Rng rng(seed);
  const std::uint64_t space_mask = low_mask(bits);
  const std::uint64_t self = rng.bits() & space_mask;
  KBucketTable table(self, bits, k);
  Reference ref(self, bits, k);

  // Ids biased toward long shared prefixes with self, so splits actually
  // trigger; a uniform stream almost never deepens the tree past a few
  // levels.
  const auto gen_id = [&]() -> std::uint64_t {
    const int p = static_cast<int>(rng.index(static_cast<std::size_t>(bits)));
    return (self & ~low_mask(bits - p)) | (rng.bits() & low_mask(bits - p));
  };

  std::vector<std::uint64_t> got, want;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t id = gen_id();
    switch (rng.index(8)) {
      case 0:
      case 1:
      case 2:
      case 3:
        ASSERT_EQ(table.insert(id), ref.insert(id)) << "op " << op;
        break;
      case 4:
        ASSERT_EQ(table.erase(id), ref.erase(id)) << "op " << op;
        break;
      case 5:
        ASSERT_EQ(table.mark_dead(id), ref.set_live(id, false)) << "op " << op;
        break;
      case 6:
        ASSERT_EQ(table.mark_live(id), ref.set_live(id, true)) << "op " << op;
        break;
      default: {
        const std::uint64_t key = rng.bits() & space_mask;
        const std::size_t count = 1 + rng.index(2 * k);
        table.closest(key, count, got);
        ref.closest(key, count, want);
        ASSERT_EQ(got, want) << "op " << op;
        break;
      }
    }
    ASSERT_EQ(table.contains(id), ref.contains(id)) << "op " << op;
    ASSERT_EQ(table.size(), ref.size()) << "op " << op;
    if (op % 64 == 0) {
      ASSERT_TRUE(table.check_structure()) << "op " << op;
      compare_structure(table, ref);
    }
  }
  ASSERT_TRUE(table.check_structure());
  compare_structure(table, ref);
}

TEST(KBucketFuzz, DefaultGeometry) { run_fuzz(1001, 16, 4, 12000); }

TEST(KBucketFuzz, WideBuckets) { run_fuzz(2002, 12, 8, 12000); }

TEST(KBucketFuzz, TinyBucketsDeepSplits) { run_fuzz(3003, 20, 2, 12000); }

TEST(KBucketFuzz, TinySpaceSaturates) {
  // bits = 6 saturates the 64-id space: exercises the cannot-split-anymore
  // eviction path at every level.
  run_fuzz(4004, 6, 3, 8000);
}

}  // namespace
}  // namespace ert::kademlia
