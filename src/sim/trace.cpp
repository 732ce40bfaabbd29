#include "src/sim/trace.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "src/sim/engine.hpp"

namespace tydi::sim {

std::atomic<std::uint64_t> TraceBuffer::g_slabs_allocated{0};

bool TraceBuffer::canonically_sorted() const {
  for (std::size_t i = 1; i < size_; ++i) {
    double prev_time = time_ns(i - 1);
    double time = time_ns(i);
    if (time < prev_time) return false;
    if (time == prev_time && channel(i) < channel(i - 1)) return false;
  }
  return true;
}

namespace {

// TYTR v1 layout (host endianness — the dump is a local artifact, not a
// wire format): magic, version, event count, channel count, the channel
// name table (u32 length + bytes each), then the four columns back to back.
constexpr char kMagic[4] = {'T', 'Y', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool read_pod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

support::Status corrupt(std::string what) {
  return support::Status::error(support::StatusCode::kCorruptData, "trace",
                                std::move(what));
}

}  // namespace

bool write_binary_trace(const SimResult& result, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint64_t>(result.trace.size()));
  write_pod(out, static_cast<std::uint32_t>(result.channels.size()));
  for (const ChannelStats& c : result.channels) {
    write_pod(out, static_cast<std::uint32_t>(c.name.size()));
    out.write(c.name.data(), static_cast<std::streamsize>(c.name.size()));
  }
  const TraceBuffer& t = result.trace;
  for (std::size_t i = 0; i < t.size(); ++i) write_pod(out, t.time_ns(i));
  for (std::size_t i = 0; i < t.size(); ++i) write_pod(out, t.channel(i));
  for (std::size_t i = 0; i < t.size(); ++i) write_pod(out, t.value(i));
  for (std::size_t i = 0; i < t.size(); ++i) {
    write_pod(out, static_cast<std::uint8_t>(t.last(i) ? 1 : 0));
  }
  return static_cast<bool>(out);
}

bool write_binary_trace(const SimResult& result, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  return write_binary_trace(result, out);
}

support::Status read_binary_trace(std::istream& in, BinaryTrace& out) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return corrupt("not a TYTR trace file");
  }
  std::uint32_t version = 0;
  if (!read_pod(in, version) || version != kVersion) {
    return corrupt("unsupported trace version");
  }
  std::uint64_t events = 0;
  std::uint32_t channels = 0;
  if (!read_pod(in, events) || !read_pod(in, channels)) {
    return corrupt("truncated trace header");
  }
  // Sanity-cap the header-supplied sizes against the remaining stream
  // length (when seekable) before allocating: a corrupt count must yield
  // the documented false+error, not a bad_alloc escaping the function.
  std::uint64_t remaining = ~std::uint64_t{0};
  std::streampos here = in.tellg();
  if (here >= 0) {
    in.seekg(0, std::ios::end);
    std::streampos stream_end = in.tellg();
    in.seekg(here);
    if (stream_end >= here) {
      remaining = static_cast<std::uint64_t>(stream_end - here);
    }
  }
  constexpr std::uint64_t kBytesPerEvent =
      sizeof(double) + sizeof(std::int32_t) + sizeof(std::int64_t) + 1;
  if (events > remaining / kBytesPerEvent || channels > remaining) {
    return corrupt("trace header sizes exceed the file length");
  }
  out.channels.clear();
  out.channels.reserve(channels);
  for (std::uint32_t i = 0; i < channels; ++i) {
    std::uint32_t length = 0;
    if (!read_pod(in, length)) return corrupt("truncated channel table");
    if (length > remaining) {
      return corrupt("channel name length exceeds the file length");
    }
    std::string name(length, '\0');
    in.read(name.data(), length);
    if (!in) return corrupt("truncated channel table");
    out.channels.push_back(std::move(name));
  }
  std::vector<double> times(events);
  std::vector<std::int32_t> chans(events);
  std::vector<std::int64_t> values(events);
  std::vector<std::uint8_t> lasts(events);
  for (auto& v : times) {
    if (!read_pod(in, v)) return corrupt("truncated time column");
  }
  for (auto& v : chans) {
    if (!read_pod(in, v)) return corrupt("truncated channel column");
  }
  for (auto& v : values) {
    if (!read_pod(in, v)) return corrupt("truncated value column");
  }
  for (auto& v : lasts) {
    if (!read_pod(in, v)) return corrupt("truncated last column");
  }
  // A channel column entry outside the name table would index out of
  // bounds in every consumer (trace_event, per-channel grouping); reject
  // the file instead of handing the corruption downstream.
  for (std::uint64_t i = 0; i < events; ++i) {
    if (chans[i] < 0 ||
        static_cast<std::uint32_t>(chans[i]) >= channels) {
      return corrupt("channel column entry " + std::to_string(i) +
                     " out of range (" + std::to_string(chans[i]) + " of " +
                     std::to_string(channels) + " channels)");
    }
  }
  out.trace.clear();
  for (std::uint64_t i = 0; i < events; ++i) {
    out.trace.append(times[i], chans[i], values[i], lasts[i] != 0);
  }
  return support::Status::ok();
}

}  // namespace tydi::sim
