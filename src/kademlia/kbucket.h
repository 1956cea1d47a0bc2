// Classic Kademlia routing table with dynamic bucket split.
//
// The table starts as a single bucket covering the whole id space and
// splits the bucket containing the local id whenever it overflows, so the
// bucket tree is always a path: one dedicated "far" bucket per resolved
// prefix depth plus the self-covering remainder. Replacement follows
// Kademlia's prefer-old-live rule: a full far bucket evicts a contact only
// after it has been marked unresponsive; live long-standing contacts are
// never displaced by newcomers.
//
// This is the maintenance-layer structure the overlay uses for join-time
// contact discovery (src/kademlia/overlay.cpp materializes its buckets
// into elastic routing entries, where bucket index = msb of the XOR
// distance). It is deliberately not pooled/allocation-free — joins may
// allocate; only the per-hop routing path must not.
// tests/kbucket_fuzz_test.cpp differentially fuzzes it against a naive
// reference model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ert::kademlia {

struct Contact {
  std::uint64_t id = 0;
  bool live = true;  ///< cleared by mark_dead (timeout bookkeeping).
};

/// One k-bucket: covers the ids sharing the top `prefix_len` bits with
/// `prefix` (an aligned base value) in a `bits`-wide id space.
struct KBucket {
  std::uint64_t prefix = 0;
  int prefix_len = 0;
  std::vector<Contact> contacts;  ///< oldest first (Kademlia's LRU order).
};

class KBucketTable {
 public:
  KBucketTable(std::uint64_t self, int bits, std::size_t k);

  /// Observes a contact (Kademlia Sec. 2.2 rules):
  ///  - the local id is never stored;
  ///  - a known contact is refreshed (moved to the tail, marked live);
  ///  - a bucket with room appends;
  ///  - a full bucket covering the local id splits, then retries;
  ///  - a full far bucket evicts a dead contact if one exists, otherwise
  ///    the newcomer is rejected.
  /// Returns true when the contact is stored afterwards.
  bool insert(std::uint64_t id);

  /// Drops a contact outright (e.g. an announced departure).
  bool erase(std::uint64_t id);

  bool contains(std::uint64_t id) const;

  /// Timeout bookkeeping: a dead contact stays in its bucket (it may come
  /// back) but becomes the eviction candidate when the bucket overflows.
  bool mark_dead(std::uint64_t id);
  bool mark_live(std::uint64_t id);

  /// The `count` stored contacts closest to `key` in the XOR metric,
  /// ascending by distance, written into `out` (cleared first).
  void closest(std::uint64_t key, std::size_t count,
               std::vector<std::uint64_t>& out) const;

  std::size_t size() const;
  std::size_t num_buckets() const { return buckets_.size(); }
  const std::vector<KBucket>& buckets() const { return buckets_; }

  std::uint64_t self() const { return self_; }
  int bits() const { return bits_; }
  std::size_t bucket_size() const { return k_; }

  /// Structural audit: buckets partition the id space in ascending prefix
  /// order, every contact lies in its bucket's range and is not the local
  /// id, no bucket exceeds k. O(size); for tests. Returns true when
  /// consistent.
  bool check_structure() const;

 private:
  std::size_t bucket_index(std::uint64_t id) const;
  bool covers(const KBucket& b, std::uint64_t id) const;
  void split(std::size_t bi);

  std::uint64_t self_;
  int bits_;
  std::size_t k_;
  std::vector<KBucket> buckets_;
  mutable std::vector<std::pair<std::uint64_t, std::uint64_t>> sort_scratch_;
};

}  // namespace ert::kademlia
