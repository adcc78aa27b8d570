#ifndef COANE_COMMON_CHECKSUM_H_
#define COANE_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace coane {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum that
/// guards every checkpoint section against torn writes and bit rot. The
/// running-crc overload allows incremental computation over scattered
/// buffers: crc = Crc32(b, n, crc).
uint32_t Crc32(const void* data, size_t size, uint32_t running_crc = 0);

/// Convenience overload for in-memory buffers.
uint32_t Crc32(std::string_view data);

/// One FNV-1a step over the eight little-endian bytes of `v` — the mixer
/// behind every structural fingerprint (graph, attribute mask, mutation
/// chain, shard plan, stream position). Fingerprints persisted in
/// checkpoints, plans, manifests and sidecars depend on its exact output.
uint64_t FnvMix(uint64_t h, uint64_t v);

/// Sealed text: the one CRC grammar every guarded text format uses (the
/// artifact manifest, plan file, round log, `.pub` sidecar, stream state
/// file and embedding files):
///
///   <body># crc32 <8 lowercase hex digits>\n
///
/// where the CRC-32 covers every byte of <body>. A non-empty body ends in
/// '\n', so the footer is always a line of its own.
///
/// Returns `body` with its footer appended.
std::string SealText(std::string body);

/// Verifies a sealed blob and returns a view of its body (no copy; the
/// view aliases `blob`). kDataLoss naming `what` unless the last line is
/// exactly the footer — starting at offset 0 or right after a '\n',
/// eight lowercase hex digits, the blob ending in '\n' — and its CRC
/// matches the body. Anything appended after the footer, a missing final
/// newline, a truncated footer and a case-flipped digit are all rejected.
Result<std::string_view> UnsealText(std::string_view blob,
                                    const std::string& what);

/// True when some line of `text` starts like a footer — how a reader that
/// still accepts unsealed legacy text tells it apart from sealed text
/// that lost or garbled its footer.
bool HasSealFooterLine(std::string_view text);

}  // namespace coane

#endif  // COANE_COMMON_CHECKSUM_H_
