// The program's two fixed hashes, and one fast unstable one.
//
// FNV-1a 64 over a byte string: the one copy of it. Mangled and sugared
// names embed its digits (elab `short_hash`, sugar `type_token`), so it is
// part of the emitted output and must never change. Content stamps use the
// faster elab::source_hash instead.
//
// splitmix64, the counter-based mixer behind every seeded schedule (sim
// fault plans, journal I/O faults, retry jitter): hashing (seed, site,
// step) instead of stepping an RNG keeps each draw stateless, so one seed
// yields one reproducible schedule. Changing it changes every fault
// schedule.
#pragma once

#include <cstdint>
#include <cstring>
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

[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A fast hash of a short string for in-memory tables (never for output):
/// the length and the first and last eight bytes, one multiply. Strings
/// that share both ends collide and only probe a little further.
[[nodiscard]] inline std::uint64_t short_hash(std::string_view s) {
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
  if (s.size() >= 8) {  // two fixed-size loads
    std::memcpy(&head, s.data(), 8);
    std::memcpy(&tail, s.data() + s.size() - 8, 8);
  } else {
    for (const char c : s) head = head << 8 | static_cast<unsigned char>(c);
    tail = head;
  }
  return ((head ^ (tail << 1) ^ s.size()) * 0x9E3779B97F4A7C15ULL) >> 32;
}

/// The top 53 bits of a hash as a double in [0, 1).
[[nodiscard]] constexpr double unit_interval(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace tydi::support
