#include "src/support/source.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace tydi::support {

namespace {

/// read(2), retried on EINTR.
ssize_t read_retrying(int fd, char* buf, std::size_t len) {
  ssize_t n = 0;
  do {
    n = ::read(fd, buf, len);
  } while (n < 0 && errno == EINTR);
  return n;
}

}  // namespace

Status read_file(const std::string& path, std::string& out,
                 struct stat* identity) {
  out.clear();
  const auto fail = [&](int fd) {
    const int saved = errno;
    if (fd >= 0) ::close(fd);
    errno = saved;
    out.clear();
    return Status::error(StatusCode::kIoError, "read", "cannot read " + path);
  };
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return fail(fd);
  struct stat local {};
  struct stat& st = identity != nullptr ? *identity : local;
  if (::fstat(fd, &st) != 0) return fail(fd);
  if (!S_ISREG(st.st_mode)) {
    errno = S_ISDIR(st.st_mode) ? EISDIR : EINVAL;
    return fail(fd);
  }
  out.resize(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = read_retrying(fd, out.data() + got, out.size() - got);
    if (n < 0) return fail(fd);
    if (n == 0) break;  // shrank since the fstat
    got += static_cast<std::size_t>(n);
  }
  out.resize(got);
  // Grew since the fstat (or the size was not known, as for /proc files):
  // the rest goes through a stack buffer, so a file that did not grow costs
  // one empty read and never a speculative larger string.
  char tail[1024];
  for (;;) {
    const ssize_t n = read_retrying(fd, tail, sizeof tail);
    if (n < 0) return fail(fd);
    if (n == 0) break;
    out.append(tail, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return Status::ok();
}

FileId SourceManager::add(std::string name, std::string text) {
  File f;
  f.name = std::move(name);
  f.text = std::move(text);
  // The line table is built lazily by line_col(): registration is on the
  // compile hot path, line/column expansion only happens when a diagnostic
  // actually renders.
  files_.push_back(std::move(f));
  return FileId{static_cast<std::uint32_t>(files_.size())};
}

FileId SourceManager::add_file(const std::string& path) {
  std::string text;
  if (!read_file(path, text).is_ok()) return FileId{};
  return add(path, std::move(text));
}

const SourceManager::File* SourceManager::get(FileId id) const {
  if (!id.valid() || id.value > files_.size()) return nullptr;
  return &files_[id.value - 1];
}

std::string_view SourceManager::text(FileId id) const {
  const File* f = get(id);
  return f ? std::string_view(f->text) : std::string_view{};
}

std::string_view SourceManager::name(FileId id) const {
  const File* f = get(id);
  return f ? std::string_view(f->name) : std::string_view{};
}

LineCol SourceManager::line_col(Loc loc) const {
  const File* f = get(loc.file);
  if (f == nullptr) return LineCol{"<synthesized>", 0, 0};
  if (f->line_starts.empty()) {
    f->line_starts.push_back(0);
    for (std::uint32_t i = 0; i < f->text.size(); ++i) {
      if (f->text[i] == '\n') f->line_starts.push_back(i + 1);
    }
  }
  // Find the last line start <= offset.
  auto it = std::upper_bound(f->line_starts.begin(), f->line_starts.end(),
                             loc.offset);
  auto line_index = static_cast<std::uint32_t>(it - f->line_starts.begin());
  std::uint32_t line_start = f->line_starts[line_index - 1];
  return LineCol{f->name, line_index, loc.offset - line_start + 1};
}

std::string SourceManager::describe(Loc loc) const {
  LineCol lc = line_col(loc);
  if (lc.line == 0) return "<synthesized>";
  return std::string(lc.file_name) + ":" + std::to_string(lc.line) + ":" +
         std::to_string(lc.column);
}

}  // namespace tydi::support
