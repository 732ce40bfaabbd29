// Source management: files, buffers and source locations.
//
// Every token and AST node carries a `Loc` so diagnostics can point at the
// offending Tydi-lang source. A `SourceManager` owns all loaded buffers for
// the lifetime of a compilation, so `Loc` can stay a small value type
// (file id + offset) without lifetime headaches.
#pragma once

#include <sys/stat.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/support/status.hpp"

namespace tydi::support {

/// Reads the whole regular file at `path` into `out` (replacing it): open,
/// fstat, then `read` into an exactly-sized string, looping on short reads
/// and EINTR; a file that grew since the fstat is finished through a small
/// stack buffer. Anything that is not a readable regular file (missing,
/// unreadable, a directory, a FIFO) is kIoError "cannot read <path>", with
/// errno left as the failing call set it (EISDIR for a directory). With
/// `identity`, the fstat of the fd the bytes came from is stored there. The
/// one way the toolchain reads a file whole.
[[nodiscard]] Status read_file(const std::string& path, std::string& out,
                               struct stat* identity = nullptr);

/// Identifies a buffer registered with a SourceManager. Id 0 is reserved for
/// "unknown" (synthesized nodes such as sugared duplicators).
struct FileId {
  std::uint32_t value = 0;

  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(FileId, FileId) = default;
};

/// A position inside a registered buffer, stored as a byte offset. Line and
/// column are computed lazily by the SourceManager (offsets are cheap to
/// carry around; line tables are only needed when a diagnostic fires).
struct Loc {
  FileId file{};
  std::uint32_t offset = 0;

  [[nodiscard]] bool valid() const { return file.valid(); }
  friend bool operator==(Loc, Loc) = default;

  /// Location for synthesized constructs with no source text.
  static Loc synthesized() { return Loc{}; }
};

/// Human-readable expansion of a Loc: 1-based line and column plus file name.
struct LineCol {
  std::string_view file_name;
  std::uint32_t line = 0;    ///< 1-based; 0 when the Loc is synthesized.
  std::uint32_t column = 0;  ///< 1-based; 0 when the Loc is synthesized.
};

/// Owns source buffers and maps Locs back to line/column. Buffers are never
/// removed, so string_views into them remain valid for the manager lifetime.
class SourceManager {
 public:
  /// Registers `text` under `name` and returns its id. The text is copied.
  FileId add(std::string name, std::string text);

  /// Loads a file from disk (read_file); returns an invalid FileId if it
  /// cannot be read.
  FileId add_file(const std::string& path);

  [[nodiscard]] std::string_view text(FileId id) const;
  [[nodiscard]] std::string_view name(FileId id) const;

  /// Expands a Loc to line/column. Synthesized Locs yield {"<synthesized>",0,0}.
  [[nodiscard]] LineCol line_col(Loc loc) const;

  /// Renders "file:line:col" (or "<synthesized>") for diagnostics.
  [[nodiscard]] std::string describe(Loc loc) const;

 private:
  struct File {
    std::string name;
    std::string text;
    /// Byte offset of each line start; built lazily on the first
    /// line_col() for this file (diagnostic rendering is single-threaded).
    mutable std::vector<std::uint32_t> line_starts;
  };
  std::vector<File> files_;

  [[nodiscard]] const File* get(FileId id) const;
};

}  // namespace tydi::support
