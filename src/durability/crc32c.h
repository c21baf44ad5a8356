#ifndef SVR_DURABILITY_CRC32C_H_
#define SVR_DURABILITY_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace svr::durability {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41 reflected) over `n` bytes,
/// continuing from `crc` (pass 0 to start). The one checksum of WAL
/// frames, checkpoints and wire frames. On x86-64 CPUs with SSE4.2 it runs
/// the `crc32` instruction, 8 bytes per step; elsewhere it runs
/// Crc32cPortable. Every path computes the same function, so the bytes on
/// disk and on the wire do not depend on the CPU; Crc32cTest.KnownVectors
/// pins the values.
uint32_t Crc32c(uint32_t crc, const char* data, size_t n);

/// The byte-at-a-time table loop: Crc32c's path on CPUs without a CRC32
/// instruction, and the reference the tests check the fast path against.
uint32_t Crc32cPortable(uint32_t crc, const char* data, size_t n);

/// One-shot form.
inline uint32_t Crc32c(const char* data, size_t n) {
  return Crc32c(0, data, n);
}

/// RocksDB-style masking: a CRC stored next to the bytes it covers is
/// itself rotated + offset, so CRC-of-data-containing-CRCs cannot
/// accidentally verify.
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t UnmaskCrc(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8u;
  return (rot << 15) | (rot >> 17);
}

}  // namespace svr::durability

#endif  // SVR_DURABILITY_CRC32C_H_
