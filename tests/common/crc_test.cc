/**
 * @file
 * Unit tests for common/crc.hh: the RFC 3720 check values, and the
 * dispatched implementation (the SSE4.2 instruction where the CPU
 * has it) against the portable table loop.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "common/crc.hh"
#include "common/random.hh"

namespace kmu
{
namespace
{

struct Vector
{
    std::array<std::uint8_t, 32> bytes;
    std::uint32_t crc;
};

// RFC 3720 appendix B.4 (iSCSI CRC-32C examples).
std::array<Vector, 3>
rfc3720Vectors()
{
    std::array<Vector, 3> v{};
    v[0].bytes.fill(0x00);
    v[0].crc = 0x8A9136AAu;
    v[1].bytes.fill(0xFF);
    v[1].crc = 0x62A8AB43u;
    for (std::size_t i = 0; i < 32; ++i)
        v[2].bytes[i] = std::uint8_t(i);
    v[2].crc = 0x46DD794Eu;
    return v;
}

TEST(CrcTest, Rfc3720Vectors)
{
    for (const Vector &v : rfc3720Vectors()) {
        EXPECT_EQ(crc32c(v.bytes.data(), v.bytes.size()), v.crc);
        EXPECT_EQ(detail::crc32cTable(v.bytes.data(), v.bytes.size()),
                  v.crc);
    }
}

TEST(CrcTest, CheckValue)
{
    const char digits[] = "123456789";
    EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
    EXPECT_EQ(detail::crc32cTable(digits, 9), 0xE3069283u);
}

TEST(CrcTest, EmptyInputIsZero)
{
    EXPECT_EQ(crc32c(nullptr, 0), 0u);
    EXPECT_EQ(detail::crc32cTable(nullptr, 0), 0u);
}

TEST(CrcTest, DispatchedMatchesTableAtEveryLengthAndAlignment)
{
    // Lengths 0..130 cover zero, one and sixteen words plus every
    // tail length; offsets 0..7 every misalignment of the word loads.
    std::array<std::uint8_t, 8 + 130> buf{};
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = std::uint8_t(mix64(i));
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 130; ++len) {
            const std::uint8_t *p = buf.data() + offset;
            ASSERT_EQ(crc32c(p, len), detail::crc32cTable(p, len))
                << "offset " << offset << " length " << len;
        }
    }
}

} // anonymous namespace
} // namespace kmu
