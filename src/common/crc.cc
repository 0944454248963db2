#include "common/crc.hh"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace kmu
{

namespace
{

// Reflected CRC-32C table for the Castagnoli polynomial 0x1EDC6F41
// (reflected form 0x82F63B78), built once at static-init time.
std::array<std::uint32_t, 256>
buildTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

const std::array<std::uint32_t, 256> crcTable = buildTable();

using CrcFn = std::uint32_t (*)(const void *, std::size_t);

#if defined(__x86_64__)
// SSE4.2 `crc32` computes exactly this CRC (reflected Castagnoli),
// eight bytes per instruction; a little-endian word load feeds the
// bytes in the same order as the table loop.
__attribute__((target("sse4.2"))) std::uint32_t
crc32cSse42(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t crc = 0xFFFFFFFFu;
    for (; len >= 8; len -= 8, p += 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof word);
        crc = _mm_crc32_u64(crc, word);
    }
    auto crc32 = std::uint32_t(crc);
    for (; len > 0; --len, ++p)
        crc32 = _mm_crc32_u8(crc32, *p);
    return crc32 ^ 0xFFFFFFFFu;
}
#endif

/** The fastest implementation this CPU runs, chosen once. */
CrcFn
selectCrc()
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2"))
        return crc32cSse42;
#endif
    return detail::crc32cTable;
}

} // anonymous namespace

namespace detail
{

std::uint32_t
crc32cTable(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        crc = crcTable[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

} // namespace detail

std::uint32_t
crc32c(const void *data, std::size_t len)
{
    static const CrcFn impl = selectCrc();
    return impl(data, len);
}

} // namespace kmu
