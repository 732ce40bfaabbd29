// Text utilities used across the toolchain: a rope-backed indenting code
// writer for the IR/VHDL emitters, a LoC counter matching the paper's
// counting rules, and a plain-text table renderer for the bench harnesses.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace tydi::support {

/// Streaming code writer with indentation management. Both the Tydi-IR and
/// the VHDL emitters build their output through this class so generated code
/// is consistently formatted (and therefore LoC counts are deterministic).
/// `vhdl::emit` writes a whole file into one writer (cached blocks through
/// `write()`, the structural architectures in place) and returns `take()`.
///
/// Storage is a rope: a vector of fixed-capacity `std::string` chunks, each
/// reserved once. Appending never re-copies previously written text (no
/// single-buffer doubling), and `take()` concatenates into an
/// exactly-reserved string in one pass. `line()` accepts any number of
/// `string_view`-convertible pieces, which are copied straight into the
/// current chunk — a multi-piece line allocates no intermediate temporaries,
/// and the indent prefix is served from a shared grow-only cache.
class CodeWriter {
 public:
  /// Steady-state bytes reserved per rope chunk. Multi-MB outputs allocate
  /// `~total / kChunkBytes` chunks instead of log2(total) doubling copies.
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 16;
  /// First chunk of a writer (ramping up 8x per chunk to kChunkBytes), so
  /// the many small sub-writers — per-impl blocks, instance lines, RTL
  /// bodies — do not each pin a full 64 KiB chunk.
  static constexpr std::size_t kFirstChunkBytes = std::size_t{1} << 10;

  explicit CodeWriter(std::string indent_unit = "  ", int depth = 0)
      : indent_unit_(std::move(indent_unit)), depth_(depth < 0 ? 0 : depth) {}

  /// Writes one full line at the current indentation: indent prefix, every
  /// piece in order, newline. No arguments (or all-empty pieces) writes a
  /// blank line with no trailing spaces.
  template <typename... Parts>
  void line(const Parts&... parts) {
    const std::array<std::string_view, sizeof...(Parts)> views{
        std::string_view(parts)...};
    std::size_t len = 0;
    for (std::string_view v : views) len += v.size();
    if (len > 0) {
      put_indent();
      for (std::string_view v : views) put(v);
    }
    put("\n");
  }
  void line() { put("\n"); }

  /// Writes a line and increases the indent (e.g. "begin").
  template <typename... Parts>
  void open(const Parts&... parts) {
    line(parts...);
    indent();
  }

  /// Decreases the indent and writes a line (e.g. "end;").
  template <typename... Parts>
  void close(const Parts&... parts) {
    dedent();
    line(parts...);
  }

  /// Raw append: no indent, no newline. Use for splicing pre-formatted text.
  void write(std::string_view text) { put(text); }

  void indent() { ++depth_; }
  void dedent() {
    if (depth_ > 0) --depth_;
  }

  /// Splices another writer's buffer onto this one by moving its chunks
  /// (no byte copying). `other` is left empty; its indent state is ignored.
  void append(CodeWriter&& other);

  [[nodiscard]] std::size_t bytes() const { return total_; }
  [[nodiscard]] bool empty() const { return total_ == 0; }
  [[nodiscard]] int depth() const { return depth_; }

  /// Concatenates into one exactly-reserved string and clears the writer.
  [[nodiscard]] std::string take();

 private:
  /// Hot path: the piece fits in the current chunk (inline); anything else
  /// (first write, chunk rollover, oversized piece) goes out of line.
  /// Chunks fill to their reserved capacity, never beyond — appends inside
  /// capacity cannot reallocate, so chunk addresses stay stable.
  void put(std::string_view text) {
    total_ += text.size();
    if (!chunks_.empty()) {
      std::string& back = chunks_.back();
      if (back.size() + text.size() <= back.capacity()) {
        back.append(text.data(), text.size());
        return;
      }
    }
    put_slow(text);
  }
  void put_indent() {
    if (depth_ <= 0) return;
    const std::size_t want =
        static_cast<std::size_t>(depth_) * indent_unit_.size();
    if (want > indent_cache_.size()) grow_indent_cache(want);
    put(std::string_view(indent_cache_.data(), want));
  }
  void put_slow(std::string_view text);
  void grow_indent_cache(std::size_t want);
  void new_chunk();

  std::vector<std::string> chunks_;
  std::size_t total_ = 0;
  std::size_t next_chunk_bytes_ = kFirstChunkBytes;
  std::string indent_unit_;
  /// `indent_unit_` repeated at least `depth_` times (grow-only, shared by
  /// every line — indent prefixes never build temporaries).
  std::string indent_cache_;
  int depth_ = 0;
};

/// Counts non-empty, non-comment-only lines — the LoC rule used for Table IV.
/// `comment_prefixes` lists line-comment introducers ("//" for Tydi-lang,
/// "--" for VHDL). Block comments /* */ are stripped first.
[[nodiscard]] std::size_t count_loc(
    std::string_view text,
    const std::vector<std::string_view>& comment_prefixes);

/// LoC for Tydi-lang sources (strips // and /* */ comments).
[[nodiscard]] std::size_t count_tydi_loc(std::string_view text);

/// LoC for VHDL sources (strips -- comments).
[[nodiscard]] std::size_t count_vhdl_loc(std::string_view text);

/// Renders rows as an aligned plain-text table with a header rule, e.g.
///
///   Query     LoC   Ratio
///   -----     ---   -----
///   TPC-H 1   284   26.57
class TextTable {
 public:
  void header(std::vector<std::string> cells);
  void row(std::vector<std::string> cells);
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` places (used by the bench tables).
[[nodiscard]] std::string format_fixed(double value, int digits);

/// Appends `value` the way `std::ostream << value` prints it by default
/// (`%g`, precision 6), without a stream.
void append_general(std::string& out, double value);

/// Splits on '\n' (keeps empty segments, drops the trailing empty one).
[[nodiscard]] std::vector<std::string_view> split_lines(std::string_view text);

/// Splits on `sep`, dropping empty fields ("a,,b," -> {"a", "b"}): the
/// comma-separated source lists of FILE requests and batch manifests.
[[nodiscard]] std::vector<std::string_view> split_nonempty(
    std::string_view text, char sep);

/// Joins `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Sanitizes an arbitrary mangled name into a VHDL-safe identifier:
/// lowercases, maps non-alphanumerics to '_', collapses runs of '_'.
[[nodiscard]] std::string sanitize_identifier(std::string_view name);

}  // namespace tydi::support
