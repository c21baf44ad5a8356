#include "durability/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace svr::durability {

namespace {

/// Byte-at-a-time table for the reflected Castagnoli polynomial.
std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0x82f63b78u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

#if defined(__x86_64__)
/// SSE4.2 `crc32` computes this same polynomial: 8 bytes per instruction,
/// then a byte tail. Compiled for SSE4.2 in this function only, so the
/// binary still runs on any x86-64; Crc32c calls it only when the CPU
/// reports the feature.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t c = crc ^ 0xffffffffu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++data, --n) {
    c32 = _mm_crc32_u8(c32, static_cast<unsigned char>(*data));
  }
  return c32 ^ 0xffffffffu;
}
#endif

using CrcFn = uint32_t (*)(uint32_t, const char*, size_t);

/// Picks the path once, from the CPU this process runs on.
CrcFn ChooseCrc32c() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

}  // namespace

uint32_t Crc32cPortable(uint32_t crc, const char* data, size_t n) {
  const std::array<uint32_t, 256>& table = Table();
  uint32_t c = crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ static_cast<unsigned char>(data[i])) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

uint32_t Crc32c(uint32_t crc, const char* data, size_t n) {
  static const CrcFn crc_fn = ChooseCrc32c();
  return crc_fn(crc, data, n);
}

}  // namespace svr::durability
