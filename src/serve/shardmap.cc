#include "serve/shardmap.h"

#include <algorithm>

namespace m3::serve {
namespace {

// One 64-bit ring point for (shard address, vnode). Uses the same fixed-seed
// Hasher as the cache keys so ring placement is stable across processes.
std::uint64_t RingPoint(const std::string& shard, int vnode) {
  Hasher h;
  h.Str("m3d/ring/v1").Str(shard).U32(static_cast<std::uint32_t>(vnode));
  const Hash128 d = h.Finish();
  return d.hi ^ d.lo;
}

// Where a key lands on the ring. Folding both words keeps the full 128 bits
// in play (cache keys are already uniform, but cheap insurance).
std::uint64_t KeyPoint(const Hash128& key) { return key.hi ^ (key.lo * 0x9e3779b97f4a7c15ull); }

}  // namespace

HashRing::HashRing(const std::vector<std::string>& shards, int vnodes)
    : num_shards_(shards.size()) {
  const int v = std::max(1, vnodes);
  ring_.reserve(shards.size() * static_cast<std::size_t>(v));
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (int k = 0; k < v; ++k) {
      ring_.emplace_back(RingPoint(shards[s], k), static_cast<int>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
  // A full-collision tie (two shards hashing one vnode to the same point)
  // resolves by shard index via the pair ordering — deterministic either way.
}

int HashRing::Owner(const Hash128& key) const {
  if (ring_.empty()) return -1;
  const std::uint64_t p = KeyPoint(key);
  auto it = std::lower_bound(ring_.begin(), ring_.end(), p,
                             [](const auto& e, std::uint64_t v) { return e.first < v; });
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

std::vector<int> HashRing::Preference(const Hash128& key, std::size_t max_shards) const {
  std::vector<int> pref;
  if (ring_.empty()) return pref;
  const std::size_t want =
      max_shards == 0 ? num_shards_ : std::min(max_shards, num_shards_);
  pref.reserve(want);
  const std::uint64_t p = KeyPoint(key);
  auto it = std::lower_bound(ring_.begin(), ring_.end(), p,
                             [](const auto& e, std::uint64_t v) { return e.first < v; });
  std::vector<char> seen(num_shards_, 0);
  for (std::size_t walked = 0; walked < ring_.size() && pref.size() < want; ++walked) {
    if (it == ring_.end()) it = ring_.begin();
    const int shard = it->second;
    if (!seen[static_cast<std::size_t>(shard)]) {
      seen[static_cast<std::size_t>(shard)] = 1;
      pref.push_back(shard);
    }
    ++it;
  }
  return pref;
}

}  // namespace m3::serve
