// Stable 128-bit content hashing for cache keys.
//
// The serving layer addresses cached results by the hash of everything that
// determines the answer (topology, flows, NetConfig, estimation options,
// model parameters). The hash must therefore be (a) stable across processes
// and runs — no per-process seeding — and (b) well-mixed enough that
// scenarios differing in a single field land in different buckets. This is
// MurmurHash3 x64/128 (public-domain construction) behind a streaming
// `Hasher` that absorbs typed fields; it is NOT cryptographic and must not
// be used where an adversary controls inputs and collisions matter.
//
// All multi-byte values are absorbed in little-endian order; floating-point
// values are absorbed by bit pattern, so two keys are equal exactly when
// every absorbed field is bitwise equal.
//
// Which hash serves what:
//   - `Hasher` (MurmurHash3) computes the model digest (`ParamDigest`),
//     `PathCacheKey`, the router's slot and ring placement (`HashRing`),
//     every hash the tests pin, and the whole of `QueryCacheKey` except its
//     flow table. Its finalizer mixes every key the LRU maps and the ring
//     see.
//   - The query key's flow table, nearly all of a paper-scale key's input,
//     goes through a multiply-fold digest in serve/wire.cc (`FlowDigest`)
//     whose 128-bit result `Hasher` absorbs. MurmurHash3 takes 16 bytes per
//     step and each step waits on the one before, so on 20k flows it cost
//     about three times the digest. Neither is for adversarial inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace m3 {

struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Hash128& a, const Hash128& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Hash128& a, const Hash128& b) { return !(a == b); }
  friend bool operator<(const Hash128& a, const Hash128& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  /// 32 lowercase hex digits, hi first: "3c6e0b8a9c15224a8228b9a98ca1531d".
  std::string ToHex() const;
};

/// Streaming 128-bit hasher. Absorb fields in a fixed documented order, then
/// Finish(). Field order matters: U64(1),U64(2) != U64(2),U64(1).
class Hasher {
 public:
  Hasher() = default;

  Hasher& Bytes(const void* data, std::size_t n);
  Hasher& U8(std::uint8_t v) { return Bytes(&v, 1); }
  Hasher& U32(std::uint32_t v);
  Hasher& U64(std::uint64_t v);
  Hasher& I32(std::int32_t v) { return U32(static_cast<std::uint32_t>(v)); }
  Hasher& I64(std::int64_t v) { return U64(static_cast<std::uint64_t>(v)); }
  Hasher& Bool(bool v) { return U8(v ? 1 : 0); }
  /// Bit pattern of the double (so -0.0 != +0.0 and every NaN payload is
  /// distinct — bitwise identity is exactly the cache's contract).
  Hasher& F64(double v);
  Hasher& F32(float v);
  /// Length-prefixed, so ("ab","c") != ("a","bc").
  Hasher& Str(const std::string& s);

  Hash128 Finish() const;

 private:
  void Absorb(std::uint64_t k1, std::uint64_t k2);

  std::uint64_t h1_ = 0x9368e53c2f6af274ULL;  // fixed seeds: stability across runs
  std::uint64_t h2_ = 0x586dcd208f7cd3fdULL;
  unsigned char buf_[16] = {};
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience.
Hash128 HashBytes(const void* data, std::size_t n);

}  // namespace m3
