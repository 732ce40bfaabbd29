#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <mutex>

namespace tydi::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_.resize(bounds_.size() + 1);
}

void Histogram::observe(double v) {
  // Branchless-ish: lower_bound over the (short, fixed) bounds vector.
  // Values past the last bound land in the overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_.add(v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i].get();
    out[i] = cum;
  }
  return out;
}

void Histogram::reset() {
  for (auto& b : buckets_) b = 0;
  count_ = 0;
  sum_.set(0.0);
}

const std::vector<double>& default_ms_bounds() {
  static const std::vector<double> kBounds = {
      0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
      1000, 2500, 5000};
  return kBounds;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* g = new MetricsRegistry();  // immortal
  return *g;
}

namespace {

/// shared-lock find -> exclusive double-checked emplace. The map's node
/// stability keeps returned references valid across later insertions.
template <typename Map, typename Make>
typename Map::mapped_type::element_type& find_or_create(
    std::shared_mutex& mu, Map& map, std::string_view name, Make make) {
  {
    std::shared_lock lock(mu);
    auto it = map.find(name);
    if (it != map.end()) return *it->second;
  }
  std::unique_lock lock(mu);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), make()).first;
  }
  return *it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  return find_or_create(mu_, counters_, name,
                        [] { return std::make_unique<Counter>(); });
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return find_or_create(mu_, gauges_, name,
                        [] { return std::make_unique<Gauge>(); });
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<double>& bounds) {
  return find_or_create(mu_, histograms_, name, [&] {
    return std::make_unique<Histogram>(bounds);
  });
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<std::int64_t>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string MetricsRegistry::render_json() const {
  std::shared_lock lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += json_number(g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":";
    out += std::to_string(h->count());
    out += ",\"sum\":";
    out += json_number(h->sum());
    out += ",\"buckets\":[";
    const auto& bounds = h->bounds();
    const auto cum = h->bucket_counts();
    for (std::size_t i = 0; i < cum.size(); ++i) {
      if (i != 0) out += ',';
      out += "{\"le\":";
      out += i < bounds.size() ? json_number(bounds[i]) : std::string("\"inf\"");
      out += ",\"count\":";
      out += std::to_string(cum[i]);
      out += '}';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace tydi::obs
