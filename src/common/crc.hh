/**
 * @file
 * CRC-32C (Castagnoli) — the payload-integrity check of the
 * device↔host exact-data contract.
 *
 * The device computes the CRC of every cache line it serves and
 * carries it in the completion record; the host recomputes it over
 * the DMA-written buffer before trusting the data. A mismatch means
 * the payload was corrupted between the device's backing store and
 * host memory (provoked by the ResponseBitFlip fault site), and the
 * access must be re-issued.
 *
 * This is on the real runtime's software-queue hot path: every read
 * pays two CRCs of a 64-byte line, one on the device thread and one
 * on the host. The bytewise table loop takes ~200 ns per line (gcc
 * 12.2 -O2, x86-64), the SSE4.2 `crc32` instruction over 8-byte
 * words ~18 ns, so crc32c() uses the instruction when the CPU has it
 * (checked once, at first use) and the table loop otherwise.
 */

#ifndef KMU_COMMON_CRC_HH
#define KMU_COMMON_CRC_HH

#include <cstddef>
#include <cstdint>

namespace kmu
{

/** CRC-32C of @p len bytes at @p data (seed/xorout per RFC 3720). */
std::uint32_t crc32c(const void *data, std::size_t len);

namespace detail
{

/** The portable table-driven CRC-32C: crc32c()'s fallback, and the
 *  reference the tests hold the hardware path to. */
std::uint32_t crc32cTable(const void *data, std::size_t len);

} // namespace detail

} // namespace kmu

#endif // KMU_COMMON_CRC_HH
