#include "src/common/crc32.h"

#include <gtest/gtest.h>

#include <string>

#include "src/common/random.h"

namespace tfr {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / standard CRC-32C test vectors.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0x00000000u);
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8A9136AAu);
}

TEST(Crc32cTest, SensitiveToSingleBitFlips) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  const auto original = crc32c(data);
  for (std::size_t i = 0; i < data.size(); i += 5) {
    std::string flipped = data;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
    EXPECT_NE(crc32c(flipped), original) << "flip at " << i;
  }
}

TEST(Crc32cTest, DeterministicAcrossCalls) {
  EXPECT_EQ(crc32c("payload"), crc32c("payload"));
}

// CRC-32C one bit at a time, straight from the reflected polynomial.
std::uint32_t bitwise_crc32c(std::string_view data) {
  std::uint32_t crc = 0xffffffff;
  for (unsigned char c : data) {
    crc ^= c;
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78 : 0);
  }
  return crc ^ 0xffffffff;
}

TEST(Crc32Test, MatchesABitwiseReferenceAtEveryLengthAndAlignment) {
#if defined(__x86_64__)
  // crc32c itself must take the instruction path here, or only the table
  // loop would be checked.
  ASSERT_TRUE(crc32c_has_instruction()) << "an x86-64 CPU without SSE4.2";
#endif
  Rng rng(32);
  std::string buffer(1024 + 8, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.next_below(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      const std::string_view data(buffer.data() + offset, length);
      const std::uint32_t want = bitwise_crc32c(data);
      ASSERT_EQ(crc32c(data), want) << "offset " << offset << " length " << length;
      ASSERT_EQ(crc32c_table(data), want) << "offset " << offset << " length " << length;
    }
  }
}

}  // namespace
}  // namespace tfr
