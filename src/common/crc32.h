// CRC-32C (Castagnoli) for storage integrity: WAL record frames and
// store-file blocks carry a checksum that is verified on read, so a torn or
// bit-flipped region of the DFS surfaces as Corruption instead of silently
// wrong data.
#pragma once

#include <cstdint>
#include <string_view>

namespace tfr {

/// CRC-32C of `data`. Every WAL frame is checksummed on append and again
/// when the split decodes it, so this sits on the server-recovery critical
/// path: on x86-64 CPUs with SSE4.2 it runs the `crc32` instruction eight
/// bytes at a time (one runtime check, made once), elsewhere a byte-wise
/// table loop. Both give the same value.
std::uint32_t crc32c(std::string_view data);

/// True iff crc32c runs the `crc32` instruction (an x86-64 build on a CPU
/// with SSE4.2).
bool crc32c_has_instruction();

/// crc32c's byte-wise table loop, the fallback where the instruction is
/// missing; exposed so tests can check it on CPUs that have it.
std::uint32_t crc32c_table(std::string_view data);

}  // namespace tfr
