#include "src/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/obs/metrics.hpp"

namespace tydi::obs {

namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

SpanTracer::SpanTracer(std::size_t ring_capacity)
    : id_(next_tracer_id()),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

SpanTracer& SpanTracer::global() {
  static SpanTracer* g = new SpanTracer();  // immortal
  return *g;
}

std::int64_t SpanTracer::now_ns() {
  // Anchored at first use so exported timestamps are small positive
  // offsets (Chrome's viewer prefers that over raw steady_clock epochs).
  static const auto anchor = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - anchor)
      .count();
}

SpanTracer::Ring& SpanTracer::this_thread_ring() {
  // One-entry thread_local cache keyed by tracer identity: the global
  // tracer (and any single test tracer) hits the cache after the first
  // span; alternating tracers on one thread re-register, which only
  // costs the rings_mu_ lock.
  thread_local std::uint64_t cached_owner = 0;
  thread_local std::shared_ptr<Ring> cached_ring;
  if (cached_owner == id_ && cached_ring != nullptr) return *cached_ring;

  std::lock_guard lock(rings_mu_);
  auto ring = std::make_shared<Ring>(
      next_tid_.fetch_add(1, std::memory_order_relaxed), ring_capacity_);
  rings_.push_back(ring);
  cached_owner = id_;
  cached_ring = std::move(ring);
  return *cached_ring;
}

void SpanTracer::record(std::string_view name, std::int64_t start_ns,
                        std::int64_t dur_ns, std::string args) {
  Ring& ring = this_thread_ring();
  SpanRecord rec;
  rec.name = std::string(name);
  rec.args = std::move(args);
  rec.start_ns = start_ns;
  rec.dur_ns = dur_ns;
  rec.tid = ring.tid;
  std::lock_guard lock(ring.mu);  // uncontended except during export
  if (ring.records.size() < ring.capacity) {
    ring.records.push_back(std::move(rec));
  } else {
    ring.records[ring.next] = std::move(rec);
    ring.next = (ring.next + 1) % ring.capacity;
  }
}

std::vector<SpanRecord> SpanTracer::snapshot() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard lock(rings_mu_);
    rings = rings_;
  }
  std::vector<SpanRecord> out;
  for (const auto& ring : rings) {
    std::lock_guard lock(ring->mu);
    out.insert(out.end(), ring->records.begin(), ring->records.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.name < b.name;
            });
  return out;
}

std::string SpanTracer::export_chrome_json() const {
  const std::vector<SpanRecord> spans = snapshot();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const SpanRecord& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, s.name);
    out += ",\"cat\":\"tydi\",\"ph\":\"X\",\"ts\":";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(s.start_ns) / 1000.0);
    out += buf;
    out += ",\"dur\":";
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(s.dur_ns) / 1000.0);
    out += buf;
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(s.tid);
    if (!s.args.empty()) {
      out += ",\"args\":{";
      out += s.args;
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::size_t SpanTracer::size() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard lock(rings_mu_);
    rings = rings_;
  }
  std::size_t n = 0;
  for (const auto& ring : rings) {
    std::lock_guard lock(ring->mu);
    n += ring->records.size();
  }
  return n;
}

std::size_t SpanTracer::ring_count() const {
  std::lock_guard lock(rings_mu_);
  return rings_.size();
}

void SpanTracer::clear() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard lock(rings_mu_);
    // A ring only the tracer holds lost its thread_local reference (the
    // thread exited or moved to another tracer), so no thread can record
    // into it again; references are only copied under rings_mu_.
    std::erase_if(rings_, [](const std::shared_ptr<Ring>& ring) {
      return ring.use_count() == 1;
    });
    rings = rings_;
  }
  for (const auto& ring : rings) {
    std::lock_guard lock(ring->mu);
    ring->records.clear();
    ring->next = 0;
  }
}

Span& Span::arg(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return *this;
  if (!args_.empty()) args_ += ',';
  append_json_string(args_, key);
  args_ += ':';
  append_json_string(args_, value);
  return *this;
}

Span& Span::arg(std::string_view key, std::int64_t value) {
  if (tracer_ == nullptr) return *this;
  if (!args_.empty()) args_ += ',';
  append_json_string(args_, key);
  args_ += ':';
  args_ += std::to_string(value);
  return *this;
}

}  // namespace tydi::obs
