// FNV-1a 64 over a byte string: the one copy of it. Mangled and sugared
// names embed its digits (elab `short_hash`, sugar `type_token`), so it is
// part of the emitted output and must never change. Content stamps use the
// faster elab::source_hash instead.
#pragma once

#include <cstdint>
#include <string_view>

namespace tydi::support {

[[nodiscard]] inline std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace tydi::support
