// The upsert behind the BENCH_*.json trajectory files.
//
// A file is a JSON array of benchmark sections, one object each (channel
// sweep events/sec, shard scaling, compile pipeline, ...). Each bench
// *upserts* its own sections — objects containing the section's marker
// are replaced, everything else is preserved — so the benches can run in
// any order without clobbering each other. Sections are written by
// harness::write_section. The splitting is a brace-depth scan, not a JSON
// parser: the file is machine-written by these benches only.
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace benchjson {

/// Top-level objects of a JSON array file (also accepts the legacy
/// single-object format). Missing/unreadable file -> empty.
inline std::vector<std::string> read_objects(const std::string& path) {
  std::vector<std::string> objects;
  std::ifstream in(path, std::ios::binary);
  if (!in) return objects;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  int depth = 0;
  std::size_t start = std::string::npos;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0 && start != std::string::npos) {
        objects.push_back(text.substr(start, i - start + 1));
        start = std::string::npos;
      }
    }
  }
  return objects;
}

/// Replaces every object containing `marker` with `object` (appended last)
/// and writes the array back. Returns false when the file cannot be
/// written.
inline bool upsert_section(const std::string& path, const std::string& marker,
                           const std::string& object) {
  std::vector<std::string> objects = read_objects(path);
  std::vector<std::string> kept;
  for (std::string& existing : objects) {
    if (existing.find(marker) == std::string::npos) {
      kept.push_back(std::move(existing));
    }
  }
  kept.push_back(object);
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (!kept[i].empty() && kept[i].front() == '{') out << "  ";
    out << kept[i] << (i + 1 < kept.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return static_cast<bool>(out);
}

}  // namespace benchjson
