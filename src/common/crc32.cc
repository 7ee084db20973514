#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FABEC_CRC_X86 1
#endif

namespace fabec {
namespace {

// Table 0 is the classic byte-at-a-time table; tables 1..7 extend it so
// eight input bytes fold into the CRC in one step:
//   slice8_[t][b] = crc of byte b followed by t zero bytes.
struct Slice8Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  Slice8Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      for (std::size_t s = 1; s < 8; ++s)
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
  }
};

const Slice8Tables& tables() {
  static const Slice8Tables t;
  return t;
}

// The variants below advance the running (pre-inverted) CRC state over
// `size` bytes; the public entry points apply the initial and final
// inversion.
std::uint32_t slice8_update(std::uint32_t crc, const std::uint8_t* data,
                            std::size_t size) {
  const auto& t = tables().t;
  std::size_t i = 0;
  // Slicing-by-8: consume two 32-bit words per iteration; every table
  // lookup is independent, so the eight loads pipeline instead of the
  // byte-loop's serial dependency chain. Loads go through memcpy, so any
  // alignment is fine (and the little-endian mix below is explicit).
  for (; i + 8 <= size; i += 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, data + i, 4);
    std::memcpy(&hi, data + i + 4, 4);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    lo = __builtin_bswap32(lo);
    hi = __builtin_bswap32(hi);
#endif
    lo ^= crc;
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; i < size; ++i) crc = t[0][(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  return crc;
}

std::uint32_t crc32_slice8(const std::uint8_t* data, std::size_t size) {
  return slice8_update(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

#ifdef FABEC_CRC_X86

// Carry-less-multiply folding in the bit-reflected domain. Four 128-bit
// accumulators each fold forward by 512 bits per 64-byte step, are folded
// into one by 128-bit steps, reduced to 64 and then 32 bits, and finished
// with a Barrett reduction. The constants are the reflected-domain k1..k5,
// P' and mu' of the Intel paper for P = 0x104C11DB7.
constexpr std::size_t kFoldMin = 64;  // one full 4-lane block

inline __m128i load128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// a * x^fold + b, where k holds the fold's two constants (low and high
// 64-bit halves of a are multiplied by the low and high constant).
__attribute__((target("pclmul,sse2"))) inline __m128i fold128(__m128i a,
                                                              __m128i k,
                                                              __m128i b) {
  const __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), b);
}

__attribute__((target("pclmul,sse2"))) std::uint32_t pclmul_update(
    std::uint32_t crc, const std::uint8_t* buf, std::size_t len) {
  // len >= 64 and a multiple of 16.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load128(buf),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load128(buf + 16);
  __m128i x3 = load128(buf + 32);
  __m128i x4 = load128(buf + 48);
  buf += 64;
  len -= 64;
  for (; len >= 64; buf += 64, len -= 64) {
    x1 = fold128(x1, k1k2, load128(buf));
    x2 = fold128(x2, k1k2, load128(buf + 16));
    x3 = fold128(x3, k1k2, load128(buf + 32));
    x4 = fold128(x4, k1k2, load128(buf + 48));
  }
  // Four lanes into one, then any remaining 16-byte blocks.
  x1 = fold128(x1, k3k4, x2);
  x1 = fold128(x1, k3k4, x3);
  x1 = fold128(x1, k3k4, x4);
  for (; len >= 16; buf += 16, len -= 16)
    x1 = fold128(x1, k3k4, load128(buf));

  // 128 -> 64 bits.
  __m128i x0 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x0);
  // 64 -> 32 bits (plus the 32 bits still to reduce).
  x0 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x0);
  // Barrett reduction to the 32-bit remainder.
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x0);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

std::uint32_t crc32_pclmul(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  if (size >= kFoldMin) {
    const std::size_t folded = size & ~std::size_t{15};
    crc = pclmul_update(crc, data, folded);
    data += folded;
    size -= folded;
  }
  return slice8_update(crc, data, size) ^ 0xFFFFFFFFu;
}

#endif  // FABEC_CRC_X86

constexpr Crc32Kernel kSlice8 = {"slice8", crc32_slice8};
#ifdef FABEC_CRC_X86
constexpr Crc32Kernel kPclmul = {"pclmul", crc32_pclmul};
#endif

std::vector<const Crc32Kernel*> detect_compiled() {
  // Ordered worst-to-best; dispatch takes the back.
  std::vector<const Crc32Kernel*> v{&kSlice8};
#ifdef FABEC_CRC_X86
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse2"))
    v.push_back(&kPclmul);
#endif
  return v;
}

}  // namespace

const std::vector<const Crc32Kernel*>& crc32_compiled_kernels() {
  static const std::vector<const Crc32Kernel*> all = detect_compiled();
  return all;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const auto fn = crc32_compiled_kernels().back()->fn;
  return fn(data, size);
}

std::uint32_t crc32_reference(const std::uint8_t* data, std::size_t size) {
  const auto& t0 = tables().t[0];
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    crc = t0[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace fabec
