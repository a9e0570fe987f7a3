// Content fingerprints for daemon instance caching.
//
// The partition daemon (service/server.hpp) keys its PrefixSum2D cache on
// the *content* of the submitted load matrix, not on any client-supplied
// identifier: a client resubmitting the same cells gets the cached prefix
// structure (and its lazily-built transpose) regardless of request ordering
// or connection identity.  Every solve request, hit or miss, hashes its
// whole payload, so the hash runs at memory speed: a 64-bit word hash with
// four independent multiply-rotate lanes over 32-byte blocks (XXH64's
// round and avalanche, written in-tree, words read through memcpy), whose
// final mix folds in the total length and the sub-block tail.  Over a
// 512 KiB payload (a 256x256 dense matrix, or 32768 COO triples) it takes
// 57 us on a 4-vCPU x86-64 Xeon VM (-O3), against 841 us for the byte-wise
// FNV-1a it replaced and 18 us for a memcpy of the same bytes.
// The key chains the dimensions, then the cells; COO streams put a "coo"
// domain tag ahead of their dimensions.  The value is stable across
// processes and builds (no SIMD branch), so fingerprints can appear in
// logs and BENCH records.
//
// A 64-bit content hash can collide in principle; the cache therefore
// stores the dimensions next to the prefix structure and the server
// cross-checks them on every hit (service/instance_cache.hpp).  Colliding
// payloads of identical shape remain theoretically possible — acceptable
// for a cache whose worst failure is partitioning a stale matrix, and
// vanishingly unlikely at cache capacities of a few dozen entries.
#pragma once

#include <cstdint>

#include "core/matrix.hpp"
#include "prefix/sparse_load.hpp"

namespace rectpart::service {

/// Content fingerprint of a load matrix: dimensions then raw cell words.
/// Equal matrices hash equal on any host of the same endianness (the
/// daemon and its clients share a machine — the transport is a Unix
/// socket — so cross-endian stability is not required).
[[nodiscard]] std::uint64_t fingerprint_matrix(const LoadMatrix& a);

/// Content fingerprint of a COO stream: a format tag, the dimensions, then
/// the raw 16-byte triples in arrival order.  The tag keeps the dense and
/// sparse hash domains apart: a dense payload and a COO payload of
/// identical bytes are different hash inputs.  Entry *order* is part of the
/// identity (the stream is hashed as received, before any CSR
/// normalization).
[[nodiscard]] std::uint64_t fingerprint_coo(const CooInstance& coo);

}  // namespace rectpart::service
