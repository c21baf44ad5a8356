#ifndef SVR_COMMON_KEY_CODEC_H_
#define SVR_COMMON_KEY_CODEC_H_

#include <cstdint>
#include <string>

#include "common/slice.h"

namespace svr {

/// Order-preserving key encodings for composite B+-tree keys.
///
/// The storage layer compares keys with memcmp, so every component is
/// encoded big-endian, with sign/descending handled by bit manipulation.
/// The Score method's clustered lists and the relational tables build
/// their keys out of these primitives.

/// Appends `v` so that memcmp order == numeric order.
void PutKeyU32(std::string* dst, uint32_t v);
void PutKeyU64(std::string* dst, uint64_t v);

/// Appends `v` so that memcmp order == *reverse* numeric order.
void PutKeyU32Desc(std::string* dst, uint32_t v);
void PutKeyU64Desc(std::string* dst, uint64_t v);

/// Maps a double (must not be NaN) onto a uint64 whose unsigned order is
/// the numeric order (the sign-flip trick the double keys use).
uint64_t DoubleToOrderedBits(double v);

/// Appends a double (must not be NaN) so memcmp order == numeric order.
/// Handles negative values via the standard sign-flip trick.
void PutKeyDouble(std::string* dst, double v);
/// Descending double order.
void PutKeyDoubleDesc(std::string* dst, double v);

/// Decoders: read the fixed-width component from the front of `*in`,
/// advancing it. Return false on truncation.
bool GetKeyU32(Slice* in, uint32_t* v);
bool GetKeyU64(Slice* in, uint64_t* v);
bool GetKeyU32Desc(Slice* in, uint32_t* v);
bool GetKeyU64Desc(Slice* in, uint64_t* v);
bool GetKeyDouble(Slice* in, double* v);
bool GetKeyDoubleDesc(Slice* in, double* v);

}  // namespace svr

#endif  // SVR_COMMON_KEY_CODEC_H_
