#include "evidence/hash.hpp"

#include <algorithm>
#include <cstring>

namespace iecd::evidence {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

// ----------------------------------------------------- SHA-NI fast path
// Compiled with a per-function target attribute so the rest of the tree
// keeps the baseline ISA; selected at runtime via __builtin_cpu_supports.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define IECD_SHA_NI_DISPATCH 1
#endif

#ifdef IECD_SHA_NI_DISPATCH
#include <immintrin.h>

namespace {

__attribute__((target("sha,sse4.1,ssse3"))) void process_blocks_hw(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  // Canonical SHA-NI round structure: state packed as ABEF/CDGH lanes,
  // 16 groups of 4 rounds, message schedule kept in four rotating
  // registers.  Round constants are the same kK table the scalar path
  // uses (4 consecutive u32 loads == the packed constant vector).
  const __m128i shuf =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i s1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);  // CDAB
  s1 = _mm_shuffle_epi32(s1, 0x1B);    // EFGH
  __m128i s0 = _mm_alignr_epi8(tmp, s1, 8);  // ABEF
  s1 = _mm_blend_epi16(s1, tmp, 0xF0);       // CDGH

  while (blocks-- > 0) {
    const __m128i abef_save = s0;
    const __m128i cdgh_save = s1;
    __m128i m[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          shuf);
    }
    for (int j = 0; j < 16; ++j) {
      const __m128i k =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * j]));
      __m128i msg = _mm_add_epi32(m[j & 3], k);
      s1 = _mm_sha256rnds2_epu32(s1, s0, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      s0 = _mm_sha256rnds2_epu32(s0, s1, msg);
      if (j < 12) {
        const __m128i t = _mm_alignr_epi8(m[(j + 3) & 3], m[(j + 2) & 3], 4);
        m[j & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(m[j & 3], m[(j + 1) & 3]), t),
            m[(j + 3) & 3]);
      }
    }
    s0 = _mm_add_epi32(s0, abef_save);
    s1 = _mm_add_epi32(s1, cdgh_save);
    data += 64;
  }

  tmp = _mm_shuffle_epi32(s0, 0x1B);   // FEBA
  s1 = _mm_shuffle_epi32(s1, 0xB1);    // DCHG
  s0 = _mm_blend_epi16(tmp, s1, 0xF0); // DCBA
  s1 = _mm_alignr_epi8(s1, tmp, 8);    // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), s0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), s1);
}

bool sha_ni_available() {
  static const bool ok = __builtin_cpu_supports("sha") &&
                         __builtin_cpu_supports("sse4.1") &&
                         __builtin_cpu_supports("ssse3");
  return ok;
}

}  // namespace
#endif  // IECD_SHA_NI_DISPATCH

bool Sha256::hardware_accelerated() {
#ifdef IECD_SHA_NI_DISPATCH
  return sha_ni_available();
#else
  return false;
#endif
}

void Sha256::process_blocks(const std::uint8_t* data, std::size_t blocks) {
#ifdef IECD_SHA_NI_DISPATCH
  if (sha_ni_available()) {
    process_blocks_hw(state_, data, blocks);
    return;
  }
#endif
  for (std::size_t i = 0; i < blocks; ++i) {
    process_block(data + 64 * i);
  }
}

void Sha256::reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::process_block(const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::update(const std::uint8_t* data, std::size_t size) {
  total_bytes_ += size;
  if (buffered_ > 0) {
    const std::size_t take = std::min(size, std::size_t{64} - buffered_);
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    size -= take;
    if (buffered_ == 64) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
  if (size >= 64) {
    const std::size_t blocks = size / 64;
    process_blocks(data, blocks);
    data += blocks * 64;
    size -= blocks * 64;
  }
  if (size > 0) {
    std::memcpy(buffer_, data, size);
    buffered_ = size;
  }
}

std::array<std::uint8_t, 32> Sha256::digest() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  const std::uint8_t pad = 0x80;
  update(&pad, 1);
  const std::uint8_t zero = 0x00;
  while (buffered_ != 56) update(&zero, 1);
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(len_be, 8);

  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::array<std::uint8_t, 32> Sha256::of(const std::uint8_t* data,
                                        std::size_t size) {
  Sha256 h;
  h.update(data, size);
  return h.digest();
}

std::string hex(const std::array<std::uint8_t, 32>& digest) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : digest) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

std::string hex64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

}  // namespace iecd::evidence
