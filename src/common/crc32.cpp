#include "src/common/crc32.h"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define TFR_CRC32C_INSTRUCTION 1
#else
#define TFR_CRC32C_INSTRUCTION 0
#endif

namespace tfr {

namespace {
constexpr std::uint32_t kPoly = 0x82f63b78;  // reflected CRC-32C polynomial

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

constexpr auto kTable = make_table();

#if TFR_CRC32C_INSTRUCTION
// Built for SSE4.2 on its own, so the rest of the binary keeps the default
// target and runs on CPUs without the instruction.
__attribute__((target("sse4.2"))) std::uint32_t crc_instruction(std::string_view data) {
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc = 0xffffffff;
  // Byte steps up to an 8-byte boundary, then whole words (memcpy: the
  // input has no alignment guarantee), then the tail.
  for (; n > 0 && reinterpret_cast<std::uintptr_t>(p) % 8 != 0; ++p, --n) {
    crc = _mm_crc32_u8(static_cast<std::uint32_t>(crc), static_cast<unsigned char>(*p));
  }
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  for (; n > 0; ++p, --n) {
    crc = _mm_crc32_u8(static_cast<std::uint32_t>(crc), static_cast<unsigned char>(*p));
  }
  return static_cast<std::uint32_t>(crc) ^ 0xffffffff;
}
#endif
}  // namespace

bool crc32c_has_instruction() {
#if TFR_CRC32C_INSTRUCTION
  static const bool has = [] {
    __builtin_cpu_init();  // harmless if the runtime already ran it
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

std::uint32_t crc32c_table(std::string_view data) {
  std::uint32_t crc = 0xffffffff;
  for (unsigned char c : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ c) & 0xff];
  }
  return crc ^ 0xffffffff;
}

std::uint32_t crc32c(std::string_view data) {
#if TFR_CRC32C_INSTRUCTION
  if (crc32c_has_instruction()) return crc_instruction(data);
#endif
  return crc32c_table(data);
}

}  // namespace tfr
