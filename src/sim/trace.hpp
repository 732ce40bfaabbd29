// Columnar trace storage for the simulator.
//
// The old representation — one `TraceEvent` struct per delivered packet,
// pushed into a std::vector — was the dominant steady-state allocation of
// long traced runs: every vector growth copied ~100-byte structs (two
// std::string members each), and the post-run name materialization assigned
// a heap string per event. `TraceBuffer` stores the trace as parallel
// columns (time / channel / value / last) in fixed-size slabs:
//
//  - appending touches the allocator once per kSlabEvents events (one slab,
//    four POD arrays), never copies recorded data, and never moves slabs;
//  - the cross-shard canonical merge permutes *indices* and copies 21 bytes
//    per event instead of re-sorting strings;
//  - per-event strings are gone entirely — boundary/port/name information
//    is a per-channel property and lives in `ChannelStats` (channels are
//    few, events are millions).
//
// `write_binary_trace` / `read_binary_trace` serialize the columns plus the
// channel-name table (`tydic --trace-out`), so long runs can dump traces
// without rendering text.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/support/status.hpp"

namespace tydi::sim {

struct SimResult;

class TraceBuffer {
 public:
  /// Events per slab. 4096 events = one ~86 KB allocation.
  static constexpr std::size_t kSlabEvents = 4096;

  TraceBuffer() = default;
  // User-defined moves: the defaulted ones would copy `size_` while
  // emptying `slabs_`, leaving the moved-from buffer claiming N events over
  // zero slabs (any later append/read would index out of bounds).
  TraceBuffer(TraceBuffer&& other) noexcept
      : slabs_(std::move(other.slabs_)), size_(other.size_) {
    other.slabs_.clear();
    other.size_ = 0;
  }
  TraceBuffer& operator=(TraceBuffer&& other) noexcept {
    slabs_ = std::move(other.slabs_);
    size_ = other.size_;
    other.slabs_.clear();
    other.size_ = 0;
    return *this;
  }

  void append(double time_ns, std::int32_t channel, std::int64_t value,
              bool last) {
    std::size_t slot = size_ & kSlabMask;
    if (slot == 0 && (size_ >> kSlabShift) == slabs_.size()) add_slab();
    Slab& slab = *slabs_[size_ >> kSlabShift];
    slab.time_ns[slot] = time_ns;
    slab.channel[slot] = channel;
    slab.value[slot] = value;
    slab.last[slot] = last ? 1 : 0;
    ++size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] double time_ns(std::size_t i) const {
    return slabs_[i >> kSlabShift]->time_ns[i & kSlabMask];
  }
  [[nodiscard]] std::int32_t channel(std::size_t i) const {
    return slabs_[i >> kSlabShift]->channel[i & kSlabMask];
  }
  [[nodiscard]] std::int64_t value(std::size_t i) const {
    return slabs_[i >> kSlabShift]->value[i & kSlabMask];
  }
  [[nodiscard]] bool last(std::size_t i) const {
    return slabs_[i >> kSlabShift]->last[i & kSlabMask] != 0;
  }

  /// True when events are in canonical (time, channel) order already — the
  /// common case for a single kernel without zero-latency channels; the
  /// merge then steals the buffer instead of permuting it.
  [[nodiscard]] bool canonically_sorted() const;

  void clear() {
    slabs_.clear();
    size_ = 0;
  }

  /// Slabs held by this buffer (allocation accounting; every slab any
  /// buffer allocates also counts into `tydi.sim.trace_slabs`).
  [[nodiscard]] std::size_t slab_count() const { return slabs_.size(); }

 private:
  static constexpr std::size_t kSlabShift = 12;
  static constexpr std::size_t kSlabMask = kSlabEvents - 1;
  static_assert(kSlabEvents == (std::size_t{1} << kSlabShift));

  struct Slab {
    double time_ns[kSlabEvents];
    std::int64_t value[kSlabEvents];
    std::int32_t channel[kSlabEvents];
    std::uint8_t last[kSlabEvents];
  };

  /// Appends a slab and counts it (once per kSlabEvents events).
  void add_slab();

  std::vector<std::unique_ptr<Slab>> slabs_;
  std::size_t size_ = 0;
};

/// A binary trace file: the channel-name table + the columns.
struct BinaryTrace {
  std::vector<std::string> channels;  ///< indexed by the channel column
  TraceBuffer trace;
};

/// Writes `result.trace` plus the channel-name table in the TYTR v1 binary
/// format. Returns false on stream failure.
bool write_binary_trace(const SimResult& result, std::ostream& out);
bool write_binary_trace(const SimResult& result, const std::string& path);

/// Reads a TYTR v1 stream. Every header-supplied count and length is
/// bounds-checked against the stream before allocation or use, and every
/// channel column entry is validated against the name table, so truncated
/// or bit-flipped input yields a kCorruptData Status — never an
/// out-of-range index reaching TraceBuffer or a bad_alloc escaping.
[[nodiscard]] support::Status read_binary_trace(std::istream& in,
                                                BinaryTrace& out);

}  // namespace tydi::sim
