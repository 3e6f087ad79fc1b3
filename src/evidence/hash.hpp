/// \file hash.hpp
/// Content hashing for evidence artifacts, two layers deep:
///
///   * a 64-bit chained record hash — each record cell folds into a
///     running chain (`chain = mix64(chain ^ cell_hash64(cell))`), so
///     records cannot be reordered, dropped or substituted without
///     changing the footer value even when their individual hashes
///     collide by content.  cell_hash64 is an FNV-style multiply-xor over
///     8-byte little-endian lanes (length folded into the seed, zero-
///     padded tail), picked so hashing keeps pace with serialization;
///   * a SHA-256 digest of every byte from the header through the last
///     record, the artifact's identity in sidecars and manifests.
///
/// Both are implemented here with no external dependencies; SHA-256 is
/// the FIPS 180-4 construction, processed 64-byte block at a time with
/// streaming update() calls.  On x86-64 the block compression dispatches
/// at runtime to the SHA-NI instruction path when the CPU has it (an
/// order-of-magnitude throughput win for artifact sealing); the portable
/// scalar path is always compiled in and produces identical digests.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace iecd::evidence {

/// SplitMix64 finalizer: a strong 64-bit avalanche mix.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Initial value of the record hash chain.
inline constexpr std::uint64_t kChainSeed = 0xcbf29ce484222325ULL;

/// Per-cell content hash: FNV-style multiply-xor over 8-byte
/// little-endian lanes with the byte length folded into the seed and a
/// zero-padded tail lane, finished with mix64.  One multiply per 8 bytes
/// instead of one per byte keeps the chain off the writer's critical
/// path; this lane layout is part of the artifact format (the reader
/// recomputes it cell by cell).
inline std::uint64_t cell_hash64(const std::uint8_t* data,
                                 std::size_t size) {
  constexpr std::uint64_t kPrime = 0x00000100000001B3ULL;
  std::uint64_t h = (kChainSeed ^ size) * kPrime;
  while (size >= 8) {
    std::uint64_t lane;
    std::memcpy(&lane, data, 8);
    if constexpr (std::endian::native == std::endian::big) {
      lane = __builtin_bswap64(lane);
    }
    h = (h ^ lane) * kPrime;
    data += 8;
    size -= 8;
  }
  if (size > 0) {
    std::uint64_t lane = 0;
    std::memcpy(&lane, data, size);
    if constexpr (std::endian::native == std::endian::big) {
      lane = __builtin_bswap64(lane);
    }
    h = (h ^ lane) * kPrime;
  }
  return mix64(h);
}

/// Folds one record cell into the chain.
inline std::uint64_t chain_update(std::uint64_t chain,
                                  const std::uint8_t* cell,
                                  std::size_t size) {
  return mix64(chain ^ cell_hash64(cell, size));
}

/// Streaming SHA-256 (FIPS 180-4).
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(const std::uint8_t* data, std::size_t size);
  /// Finalizes and returns the 32-byte digest; the hasher must be
  /// reset() before further use.
  std::array<std::uint8_t, 32> digest();

  /// One-shot convenience.
  static std::array<std::uint8_t, 32> of(const std::uint8_t* data,
                                         std::size_t size);

  /// True when the runtime dispatch selected the hardware (SHA-NI) block
  /// path on this machine.  Informational (bench reporting); digests are
  /// identical either way.
  static bool hardware_accelerated();

 private:
  void process_block(const std::uint8_t* block);
  void process_blocks(const std::uint8_t* data, std::size_t blocks);

  std::uint32_t state_[8];
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Lower-case hex rendering of a digest.
std::string hex(const std::array<std::uint8_t, 32>& digest);
/// Lower-case 16-digit hex of a 64-bit value (chain hashes in sidecars).
std::string hex64(std::uint64_t v);

}  // namespace iecd::evidence
