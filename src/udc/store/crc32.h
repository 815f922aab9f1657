// CRC-32 checksums for WAL and service-log framing.
//
// The durability layer's threat model (DESIGN.md §9) is a hostile disk:
// torn writes, truncations, and bit flips injected at kill time.  A 32-bit
// CRC detects every burst error up to 32 bits — in particular every
// single-byte flip the storage fault layer can script — so a frame whose
// checksum matches is, for our fault model, exactly the frame that was
// appended.
//
// Two polynomials live here, each pinned by a torture-test check value:
//
//   * crc32()  — CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320).
//     crc32("123456789") == 0xCBF43926.
//   * crc32c() — CRC-32C (Castagnoli, reflected, poly 0x82F63B78), used by
//     the WAL frame header because x86 computes it in hardware (SSE4.2
//     `crc32` instruction, ~8 bytes/cycle-chain vs ~2 bytes/cycle for the
//     table walk).  crc32c("123456789") == 0xE3069283.
//
// Software implementation for both: slicing-by-8 (Kounavis & Berry) — the
// table-0 column IS the classic one-table form, so the eight-byte loop is
// bit-identical to the byte-at-a-time reference.  crc32c() dispatches to
// the hardware instruction at runtime when the CPU has it; the WAL torture
// tests cross-check hardware against the table walk on random buffers, so a
// dispatch bug cannot silently fork the on-disk format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define UDC_CRC32C_HW_DISPATCH 1
#endif

namespace udc {

namespace crc32_detail {

struct Tables {
  std::uint32_t t[8][256];
};

// Slicing tables for a reflected polynomial: t[0] is the classic table,
// t[s][i] advances a byte through s additional zero bytes.
template <std::uint32_t kPoly>
inline const Tables& tables() {
  static const Tables tables = [] {
    Tables tb{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
      }
      tb.t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = tb.t[0][i];
      for (int s = 1; s < 8; ++s) {
        c = tb.t[0][c & 0xFFu] ^ (c >> 8);
        tb.t[s][i] = c;
      }
    }
    return tb;
  }();
  return tables;
}

template <std::uint32_t kPoly>
inline std::uint32_t crc_sliced(const void* data, std::size_t len,
                                std::uint32_t seed) {
  const auto& tb = tables<kPoly>().t;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  while (len >= 8) {
    // One 8-byte slice per iteration.  The unaligned loads are spelled as
    // memcpy (compiles to plain loads on every target we build for); the
    // low word folds through tables 7..4, the high word through 3..0.
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = tb[7][lo & 0xFFu] ^ tb[6][(lo >> 8) & 0xFFu] ^
        tb[5][(lo >> 16) & 0xFFu] ^ tb[4][lo >> 24] ^
        tb[3][hi & 0xFFu] ^ tb[2][(hi >> 8) & 0xFFu] ^
        tb[1][(hi >> 16) & 0xFFu] ^ tb[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    c = tb[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

#if defined(UDC_CRC32C_HW_DISPATCH)
// The SSE4.2 path is compiled with a per-function target attribute so the
// translation unit itself needs no -msse4.2; callers must gate on
// crc32c_hw_available() (cached cpuid probe) before taking it.
__attribute__((target("sse4.2"))) inline std::uint32_t crc32c_hw(
    const void* data, std::size_t len, std::uint32_t seed) {
  std::uint64_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  while (len >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
  }
  return static_cast<std::uint32_t>(c) ^ 0xFFFFFFFFu;
}

inline bool crc32c_hw_available() {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}
#endif

}  // namespace crc32_detail

inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t seed = 0) {
  return crc32_detail::crc_sliced<0xEDB88320u>(data, len, seed);
}

// The software table walk for CRC-32C, exposed so tests can cross-check the
// hardware dispatch against it byte for byte.
inline std::uint32_t crc32c_sw(const void* data, std::size_t len,
                               std::uint32_t seed = 0) {
  return crc32_detail::crc_sliced<0x82F63B78u>(data, len, seed);
}

inline std::uint32_t crc32c(const void* data, std::size_t len,
                            std::uint32_t seed = 0) {
#if defined(UDC_CRC32C_HW_DISPATCH)
  if (crc32_detail::crc32c_hw_available()) {
    return crc32_detail::crc32c_hw(data, len, seed);
  }
#endif
  return crc32c_sw(data, len, seed);
}

}  // namespace udc
