#include "kademlia/kbucket.h"

#include <algorithm>
#include <cassert>

#include "common/bitops.h"

namespace ert::kademlia {

KBucketTable::KBucketTable(std::uint64_t self, int bits, std::size_t k)
    : self_(self), bits_(bits), k_(k) {
  assert(bits >= 1 && bits <= 48);
  assert(k >= 1);
  buckets_.push_back(KBucket{0, 0, {}});
}

bool KBucketTable::covers(const KBucket& b, std::uint64_t id) const {
  const std::uint64_t mask = low_mask(bits_) & ~low_mask(bits_ - b.prefix_len);
  return (id & mask) == b.prefix;
}

std::size_t KBucketTable::bucket_index(std::uint64_t id) const {
  // Buckets are kept sorted by prefix and partition the space, so the scan
  // is over at most bits_+1 buckets.
  for (std::size_t bi = 0; bi < buckets_.size(); ++bi)
    if (covers(buckets_[bi], id)) return bi;
  assert(false && "buckets must partition the id space");
  return 0;
}

void KBucketTable::split(std::size_t bi) {
  KBucket low = std::move(buckets_[bi]);
  assert(low.prefix_len < bits_);
  KBucket high;
  high.prefix_len = ++low.prefix_len;
  high.prefix = low.prefix | (std::uint64_t{1} << (bits_ - low.prefix_len));
  auto keep = low.contacts.begin();
  for (auto it = low.contacts.begin(); it != low.contacts.end(); ++it) {
    if (covers(high, it->id))
      high.contacts.push_back(*it);
    else
      *keep++ = *it;
  }
  low.contacts.erase(keep, low.contacts.end());
  buckets_[bi] = std::move(low);
  buckets_.insert(buckets_.begin() + static_cast<std::ptrdiff_t>(bi) + 1,
                  std::move(high));
}

bool KBucketTable::insert(std::uint64_t id) {
  if (id == self_) return false;
  assert(id < (std::uint64_t{1} << bits_));
  for (;;) {
    const std::size_t bi = bucket_index(id);
    KBucket& b = buckets_[bi];
    const auto it = std::find_if(b.contacts.begin(), b.contacts.end(),
                                 [&](const Contact& c) { return c.id == id; });
    if (it != b.contacts.end()) {
      // Refresh: move to the tail (most recently seen) and revive.
      Contact c = *it;
      c.live = true;
      b.contacts.erase(it);
      b.contacts.push_back(c);
      return true;
    }
    if (b.contacts.size() < k_) {
      b.contacts.push_back(Contact{id, true});
      return true;
    }
    if (covers(b, self_) && b.prefix_len < bits_) {
      split(bi);
      continue;  // retry against the new, finer partition
    }
    const auto dead =
        std::find_if(b.contacts.begin(), b.contacts.end(),
                     [](const Contact& c) { return !c.live; });
    if (dead == b.contacts.end()) return false;  // all old contacts live
    b.contacts.erase(dead);
    b.contacts.push_back(Contact{id, true});
    return true;
  }
}

bool KBucketTable::erase(std::uint64_t id) {
  if (id == self_) return false;
  KBucket& b = buckets_[bucket_index(id)];
  const auto it = std::find_if(b.contacts.begin(), b.contacts.end(),
                               [&](const Contact& c) { return c.id == id; });
  if (it == b.contacts.end()) return false;
  b.contacts.erase(it);
  return true;
}

bool KBucketTable::contains(std::uint64_t id) const {
  if (id == self_) return false;
  const KBucket& b = buckets_[bucket_index(id)];
  return std::any_of(b.contacts.begin(), b.contacts.end(),
                     [&](const Contact& c) { return c.id == id; });
}

bool KBucketTable::mark_dead(std::uint64_t id) {
  if (id == self_) return false;
  KBucket& b = buckets_[bucket_index(id)];
  for (Contact& c : b.contacts)
    if (c.id == id) {
      c.live = false;
      return true;
    }
  return false;
}

bool KBucketTable::mark_live(std::uint64_t id) {
  if (id == self_) return false;
  KBucket& b = buckets_[bucket_index(id)];
  for (Contact& c : b.contacts)
    if (c.id == id) {
      c.live = true;
      return true;
    }
  return false;
}

void KBucketTable::closest(std::uint64_t key, std::size_t count,
                           std::vector<std::uint64_t>& out) const {
  out.clear();
  sort_scratch_.clear();
  for (const KBucket& b : buckets_)
    for (const Contact& c : b.contacts)
      sort_scratch_.emplace_back(c.id ^ key, c.id);
  std::sort(sort_scratch_.begin(), sort_scratch_.end());
  const std::size_t n = std::min(count, sort_scratch_.size());
  for (std::size_t i = 0; i < n; ++i) out.push_back(sort_scratch_[i].second);
}

std::size_t KBucketTable::size() const {
  std::size_t total = 0;
  for (const KBucket& b : buckets_) total += b.contacts.size();
  return total;
}

bool KBucketTable::check_structure() const {
  if (buckets_.empty()) return false;
  std::uint64_t next = 0;
  for (const KBucket& b : buckets_) {
    if (b.prefix != next || b.prefix_len < 0 || b.prefix_len > bits_ ||
        b.contacts.size() > k_)
      return false;
    const std::uint64_t len = std::uint64_t{1} << (bits_ - b.prefix_len);
    for (const Contact& c : b.contacts)
      if (c.id == self_ || c.id < b.prefix || c.id >= b.prefix + len)
        return false;
    next = b.prefix + len;
  }
  return next == (std::uint64_t{1} << bits_);
}

}  // namespace ert::kademlia
