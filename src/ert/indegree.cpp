#include "ert/indegree.h"

#include <algorithm>
#include <cmath>

namespace ert::core {

int IndegreeBudget::initial_target() const {
  return std::max(1, static_cast<int>(std::lround(
                         beta_ * static_cast<double>(max_))));
}

void IndegreeBudget::lower_bound_by(int k) { max_ = std::max(1, max_ - k); }

bool BackwardFingerList::remove(FingerPool& pool, dht::NodeIndex n) {
  const auto fingers = pool.view(ref_);
  for (std::uint32_t i = 0; i < fingers.size(); ++i) {
    if (fingers[i].node == n) {
      pool.erase_at(ref_, i);
      return true;
    }
  }
  return false;
}

bool BackwardFingerList::contains(const FingerPool& pool,
                                  dht::NodeIndex n) const {
  for (const BackwardFinger& f : pool.view(ref_))
    if (f.node == n) return true;
  return false;
}

void BackwardFingerList::pick_evictions(const FingerPool& pool, std::size_t k,
                                        std::vector<std::uint32_t>& scratch,
                                        std::vector<dht::NodeIndex>& out) const {
  const auto fingers = pool.view(ref_);
  const auto size = static_cast<std::uint32_t>(fingers.size());
  k = std::min<std::size_t>(k, size);
  out.clear();
  if (k == 0) return;
  // The paper's order: longest logical distance, then longest physical.
  auto farther = [](const BackwardFinger& x, const BackwardFinger& y) {
    if (x.logical_distance != y.logical_distance)
      return x.logical_distance > y.logical_distance;
    return x.physical_distance > y.physical_distance;
  };
  if (k == 1) {
    // A strict comparison keeps the earliest of equally far fingers.
    const BackwardFinger* best = fingers.data();
    for (const BackwardFinger& f : fingers.subspan(1))
      if (farther(f, *best)) best = &f;
    out.push_back(best->node);
    return;
  }
  // Over list positions, equally far fingers go in list order. That makes
  // the order strict and total, so the selection returns the same fingers,
  // in the same order, as a stable sort by distance.
  auto before = [&](std::uint32_t a, std::uint32_t b) {
    if (farther(fingers[a], fingers[b])) return true;
    return !farther(fingers[b], fingers[a]) && a < b;
  };
  scratch.resize(size);
  for (std::uint32_t p = 0; p < size; ++p) scratch[p] = p;
  const auto kth = scratch.begin() + static_cast<std::ptrdiff_t>(k);
  std::nth_element(scratch.begin(), kth - 1, scratch.end(), before);
  std::sort(scratch.begin(), kth, before);
  for (auto it = scratch.begin(); it != kth; ++it)
    out.push_back(fingers[*it].node);
}

}  // namespace ert::core
