#include "common/checksum.h"

#include <array>

#include "common/string_utils.h"

namespace coane {
namespace {

// Byte-at-a-time table for the reflected CRC-32 polynomial.
std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr std::string_view kFooterPrefix = "# crc32 ";
// "# crc32 " + eight hex digits + "\n".
constexpr size_t kFooterSize = kFooterPrefix.size() + 9;

// Strict lowercase hex: exactly the digits SealText writes, so a
// case-flipped digit is corruption, not the same value.
bool ParseLowerHex32(std::string_view digits, uint32_t* out) {
  uint32_t value = 0;
  for (const char c : digits) {
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a' + 10);
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *out = value;
  return true;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t running_crc) {
  static const std::array<uint32_t, 256> kTable = BuildTable();
  uint32_t c = running_crc ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(std::string_view data) {
  return Crc32(data.data(), data.size());
}

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFULL;
    h *= 1099511628211ULL;  // FNV-1a 64-bit prime
  }
  return h;
}

std::string SealText(std::string body) {
  const std::string crc = Hex32(Crc32(body));
  body.append(kFooterPrefix).append(crc).push_back('\n');
  return body;
}

Result<std::string_view> UnsealText(std::string_view blob,
                                    const std::string& what) {
  if (blob.size() < kFooterSize) {
    return Status::DataLoss(what + ": CRC footer missing (truncated?)");
  }
  const size_t at = blob.size() - kFooterSize;
  const std::string_view footer = blob.substr(at);
  uint32_t recorded = 0;
  if ((at > 0 && blob[at - 1] != '\n') ||
      footer.substr(0, kFooterPrefix.size()) != kFooterPrefix ||
      footer.back() != '\n' ||
      !ParseLowerHex32(footer.substr(kFooterPrefix.size(), 8), &recorded)) {
    return Status::DataLoss(what +
                            ": CRC footer missing or malformed (truncated "
                            "or appended to?)");
  }
  const uint32_t actual = Crc32(blob.data(), at);
  if (recorded != actual) {
    return Status::DataLoss(what + ": CRC mismatch (footer " +
                            Hex32(recorded) + ", content " + Hex32(actual) +
                            ")");
  }
  return blob.substr(0, at);
}

bool HasSealFooterLine(std::string_view text) {
  for (size_t at = text.find(kFooterPrefix); at != std::string_view::npos;
       at = text.find(kFooterPrefix, at + 1)) {
    if (at == 0 || text[at - 1] == '\n') return true;
  }
  return false;
}

}  // namespace coane
