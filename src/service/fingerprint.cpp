#include "service/fingerprint.hpp"

#include <algorithm>
#include <cstring>

namespace rectpart::service {
namespace {

// XXH64's primes, round and avalanche (Collet's published specification).
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint64_t rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

constexpr std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  return rotl(acc + word * kP2, 31) * kP1;
}

constexpr std::uint64_t merge(std::uint64_t h, std::uint64_t lane) {
  return (h ^ lane_round(0, lane)) * kP1 + kP4;
}

std::uint64_t load64(const unsigned char* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

/// Four independent multiply-rotate lanes over 32-byte blocks, then a final
/// mix of the total length and the sub-block tail (its last partial word
/// zero-padded: the length already separates inputs that padding aliases).
/// Chainable through `seed`.
std::uint64_t word_hash(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = seed + kP1 + kP2, v2 = seed + kP2, v3 = seed,
                  v4 = seed - kP1;
    for (const unsigned char* const last = end - 32; p <= last; p += 32) {
      v1 = lane_round(v1, load64(p));
      v2 = lane_round(v2, load64(p + 8));
      v3 = lane_round(v3, load64(p + 16));
      v4 = lane_round(v4, load64(p + 24));
    }
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    h = merge(merge(merge(merge(h, v1), v2), v3), v4);
  } else {
    h = seed + kP5;
  }
  h += n;
  while (p < end) {
    const auto k = std::min<std::size_t>(8, static_cast<std::size_t>(end - p));
    std::uint64_t w = 0;
    std::memcpy(&w, p, k);
    p += k;
    h = rotl(h ^ lane_round(0, w), 27) * kP1 + kP4;
  }
  h = (h ^ (h >> 33)) * kP2;
  h = (h ^ (h >> 29)) * kP3;
  return h ^ (h >> 32);
}

}  // namespace

std::uint64_t fingerprint_matrix(const LoadMatrix& a) {
  const std::int64_t dims[2] = {a.rows(), a.cols()};
  const std::uint64_t h = word_hash(dims, sizeof(dims), 0);
  return word_hash(a.data(), a.size() * sizeof(std::int64_t), h);
}

std::uint64_t fingerprint_coo(const CooInstance& coo) {
  std::uint64_t h = word_hash("coo", 3, 0);
  const std::int64_t dims[2] = {coo.n1, coo.n2};
  h = word_hash(dims, sizeof(dims), h);
  return word_hash(coo.entries.data(), coo.entries.size() * sizeof(CooEntry),
                   h);
}

}  // namespace rectpart::service
