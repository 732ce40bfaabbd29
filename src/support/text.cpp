#include "src/support/text.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace tydi::support {

void CodeWriter::new_chunk() {
  chunks_.emplace_back();
  chunks_.back().reserve(next_chunk_bytes_);
  next_chunk_bytes_ = std::min(kChunkBytes, next_chunk_bytes_ * 8);
}

void CodeWriter::put_slow(std::string_view text) {
  // total_ was already advanced by put(). Fill the current chunk to its
  // reserved capacity, then roll into fresh chunks for the remainder.
  while (true) {
    if (chunks_.empty() ||
        chunks_.back().size() == chunks_.back().capacity()) {
      new_chunk();
    }
    std::string& back = chunks_.back();
    const std::size_t n =
        std::min(back.capacity() - back.size(), text.size());
    back.append(text.data(), n);
    text.remove_prefix(n);
    if (text.empty()) return;
  }
}

void CodeWriter::grow_indent_cache(std::size_t want) {
  while (indent_cache_.size() < want) indent_cache_ += indent_unit_;
}

void CodeWriter::append(CodeWriter&& other) {
  total_ += other.total_;
  next_chunk_bytes_ = std::max(next_chunk_bytes_, other.next_chunk_bytes_);
  chunks_.reserve(chunks_.size() + other.chunks_.size());
  for (std::string& chunk : other.chunks_) {
    chunks_.push_back(std::move(chunk));
  }
  other.chunks_.clear();
  other.total_ = 0;
  other.next_chunk_bytes_ = kFirstChunkBytes;
}

std::string CodeWriter::take() {
  std::string out;
  if (chunks_.size() == 1) {
    // Single-chunk fast path: hand the chunk over without copying.
    out = std::move(chunks_.front());
  } else {
    out.reserve(total_);
    for (const std::string& chunk : chunks_) out += chunk;
  }
  chunks_.clear();
  total_ = 0;
  return out;
}

namespace {

// Removes /* ... */ block comments (non-nesting, as in the Tydi-lang
// grammar); unterminated blocks are stripped to end of input.
std::string strip_block_comments(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  std::size_t i = 0;
  while (i < text.size()) {
    if (i + 1 < text.size() && text[i] == '/' && text[i + 1] == '*') {
      std::size_t end = text.find("*/", i + 2);
      // Keep newlines so line structure (and LoC of surrounding code) holds.
      std::size_t stop = (end == std::string_view::npos) ? text.size() : end + 2;
      for (std::size_t j = i; j < stop; ++j) {
        if (text[j] == '\n') out += '\n';
      }
      i = stop;
    } else {
      out += text[i];
      ++i;
    }
  }
  return out;
}

}  // namespace

std::size_t count_loc(std::string_view text,
                      const std::vector<std::string_view>& comment_prefixes) {
  std::string stripped = strip_block_comments(text);
  std::size_t count = 0;
  for (std::string_view line : split_lines(stripped)) {
    // Trim whitespace.
    std::size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string_view::npos) continue;  // blank line
    std::string_view body = line.substr(b);
    bool comment_only = false;
    for (std::string_view p : comment_prefixes) {
      if (body.substr(0, p.size()) == p) {
        comment_only = true;
        break;
      }
    }
    if (!comment_only) ++count;
  }
  return count;
}

std::size_t count_tydi_loc(std::string_view text) {
  return count_loc(text, {"//"});
}

std::size_t count_vhdl_loc(std::string_view text) {
  return count_loc(text, {"--"});
}

void TextTable::header(std::vector<std::string> cells) {
  header_ = std::move(cells);
}

void TextTable::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths;
  auto widen = [&widths](const std::vector<std::string>& cells) {
    if (widths.size() < cells.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  std::ostringstream out;
  auto emit = [&out, &widths](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out << cells[i];
      if (i + 1 < cells.size()) {
        out << std::string(widths[i] - cells[i].size() + 2, ' ');
      }
    }
    out << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::vector<std::string> rule;
    rule.reserve(header_.size());
    for (std::size_t i = 0; i < header_.size(); ++i) {
      rule.push_back(std::string(widths[i], '-'));
    }
    emit(rule);
  }
  for (const auto& r : rows_) emit(r);
  return out.str();
}

std::string format_fixed(double value, int digits) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(digits);
  out << value;
  return out.str();
}

void append_general(std::string& out, double value) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%g", value);
  out.append(buf, static_cast<std::size_t>(n));
}

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      if (start < text.size()) out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

std::vector<std::string_view> split_nonempty(std::string_view text,
                                             char sep) {
  std::vector<std::string_view> out;
  while (!text.empty()) {
    const std::size_t end = std::min(text.find(sep), text.size());
    if (end > 0) out.push_back(text.substr(0, end));
    text.remove_prefix(std::min(end + 1, text.size()));
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string sanitize_identifier(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  bool last_underscore = false;
  for (char c : name) {
    char mapped;
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      mapped = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      mapped = '_';
    }
    if (mapped == '_') {
      if (last_underscore) continue;
      last_underscore = true;
    } else {
      last_underscore = false;
    }
    out += mapped;
  }
  // VHDL identifiers cannot start or end with '_' nor start with a digit.
  while (!out.empty() && out.front() == '_') out.erase(out.begin());
  while (!out.empty() && out.back() == '_') out.pop_back();
  if (out.empty() || (std::isdigit(static_cast<unsigned char>(out[0])) != 0)) {
    out.insert(out.begin(), 'x');
  }
  return out;
}

}  // namespace tydi::support
