#include "src/support/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "src/support/hash.hpp"
#include "src/support/source.hpp"

namespace tydi::support {

namespace {

Status io_error(const std::string& what) {
  return Status::error(StatusCode::kIoError, "journal",
                       what + ": " + std::strerror(errno));
}

/// CRC32C lookup table (reflected polynomial 0x82F63B78), built once.
const std::array<std::uint32_t, 256>& crc32c_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

std::uint64_t site_hash(std::uint64_t seed, std::uint32_t site,
                        std::uint64_t step) {
  return splitmix64(seed ^
                    splitmix64(static_cast<std::uint64_t>(site) << 32 | step));
}

void put_u32le(char* out, std::uint32_t v) {
  out[0] = static_cast<char>(v & 0xFF);
  out[1] = static_cast<char>((v >> 8) & 0xFF);
  out[2] = static_cast<char>((v >> 16) & 0xFF);
  out[3] = static_cast<char>((v >> 24) & 0xFF);
}

std::uint32_t get_u32le(const char* in) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(in[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[3])) << 24;
}

/// One framed record: length + crc + payload.
std::string frame_record(std::string_view payload) {
  std::string frame(kRecordHeaderBytes + payload.size(), '\0');
  put_u32le(frame.data(), static_cast<std::uint32_t>(payload.size()));
  put_u32le(frame.data() + 4, crc32c(payload));
  std::memcpy(frame.data() + kRecordHeaderBytes, payload.data(),
              payload.size());
  return frame;
}

/// Writes the whole buffer, retrying on EINTR / short writes. Returns the
/// number of bytes that actually landed (== data.size() on success).
std::size_t write_all(int fd, std::string_view data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  return written;
}

/// fsyncs the directory containing `path`, so a rename into it is durable.
Status fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return io_error("open dir " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return io_error("fsync dir " + dir);
  return Status::ok();
}

}  // namespace

std::uint32_t crc32c(std::string_view data) {
  const auto& table = crc32c_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (char c : data) {
    crc = (crc >> 8) ^
          table[(crc ^ static_cast<unsigned char>(c)) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

IoFaultPlan IoFaultPlan::from_seed(std::uint64_t seed) {
  IoFaultPlan plan;
  plan.seed = seed;
  if (seed == 0) return plan;
  auto p = [seed](std::uint32_t salt) {
    return 0.05 + 0.35 * unit_interval(site_hash(seed, salt, 0));
  };
  plan.torn_append_p = p(101);
  plan.bit_flip_p = p(102);
  plan.enospc_p = p(103);
  return plan;
}

bool IoFaultInjector::fires(Site site) {
  const auto index = static_cast<std::uint32_t>(site);
  const std::uint64_t step = steps_[index]++;
  if (plan_.seed == 0) return false;
  double probability = 0.0;
  switch (site) {
    case Site::kTornAppend:
      probability = plan_.torn_append_p;
      break;
    case Site::kBitFlip:
      probability = plan_.bit_flip_p;
      break;
    case Site::kEnospc:
      probability = plan_.enospc_p;
      break;
  }
  if (probability <= 0.0) return false;
  return unit_interval(site_hash(plan_.seed, index, step)) < probability;
}

std::uint64_t IoFaultInjector::pick(Site site, std::uint64_t bound) const {
  if (bound == 0) return 0;
  const auto index = static_cast<std::uint32_t>(site);
  // steps_[index] was already advanced by the fires() that triggered this
  // pick; hash the firing step with a salt so the pick decorrelates from
  // the fire decision.
  const std::uint64_t step = steps_[index] == 0 ? 0 : steps_[index] - 1;
  return site_hash(plan_.seed ^ 0xA5A5A5A5u, index, step) % bound;
}

Status recover_journal(const std::string& path, RecoveredJournal& out) {
  out = RecoveredJournal{};
  std::string bytes;
  if (!read_file(path, bytes).is_ok()) {
    if (errno == ENOENT) return Status::ok();  // first boot: empty journal
    return io_error("cannot read " + path);
  }
  out.total_bytes = bytes.size();

  // Header: anything short of the magic recovers cold (valid_bytes 0 — the
  // repair path rewrites a fresh header).
  if (bytes.size() < kJournalHeaderBytes ||
      std::memcmp(bytes.data(), kJournalMagic, kJournalHeaderBytes) != 0) {
    return Status::ok();
  }
  std::size_t offset = kJournalHeaderBytes;
  out.valid_bytes = offset;

  // Scan records forward; the first frame that does not validate ends the
  // journal (torn tail or corruption — everything after it is untrusted,
  // because record boundaries downstream of a bad length are unknowable).
  while (offset + kRecordHeaderBytes <= bytes.size()) {
    const std::uint32_t length = get_u32le(bytes.data() + offset);
    const std::uint32_t crc = get_u32le(bytes.data() + offset + 4);
    if (length > kMaxRecordBytes) break;                      // garbage length
    if (offset + kRecordHeaderBytes + length > bytes.size()) break;  // torn
    const std::string_view payload(bytes.data() + offset + kRecordHeaderBytes,
                                   length);
    if (crc32c(payload) != crc) break;  // flipped bits
    out.records.emplace_back(payload);
    offset += kRecordHeaderBytes + length;
    out.valid_bytes = offset;
  }
  return Status::ok();
}

Status truncate_journal(const std::string& path, std::uint64_t valid_bytes) {
  if (valid_bytes < kJournalHeaderBytes) {
    // Corrupt beyond salvage (or not a journal): start fresh.
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return io_error("create " + path);
    Status status = Status::ok();
    if (write_all(fd, std::string_view(kJournalMagic,
                                       kJournalHeaderBytes)) !=
        kJournalHeaderBytes) {
      status = io_error("write header " + path);
    } else if (::fsync(fd) != 0) {
      status = io_error("fsync " + path);
    }
    ::close(fd);
    return status;
  }
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return io_error("truncate " + path);
  }
  return Status::ok();
}

Status write_snapshot_atomic(const std::string& path,
                             const std::vector<std::string>& records,
                             IoFaultInjector* injector) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return io_error("create " + tmp);

  std::string image(kJournalMagic, kJournalHeaderBytes);
  for (const std::string& record : records) image += frame_record(record);

  const bool crash_mid =
      injector != nullptr && injector->plan().crash_mid_snapshot;
  const std::string_view to_write =
      crash_mid ? std::string_view(image).substr(0, image.size() / 2)
                : std::string_view(image);
  const std::size_t written = write_all(fd, to_write);
  if (crash_mid) {
    // Simulated death mid-snapshot: temp partially written, never renamed.
    // The live journal at `path` must be untouched.
    ::close(fd);
    return Status::error(StatusCode::kIoError, "journal",
                         "simulated crash mid-snapshot");
  }
  if (written != image.size()) {
    const Status status = io_error("write " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  }
  if (::fsync(fd) != 0) {
    const Status status = io_error("fsync " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  }
  ::close(fd);
  if (injector != nullptr && injector->plan().crash_before_rename) {
    // Simulated death between fsync and rename: complete temp file on
    // disk, live journal untouched. A later snapshot overwrites the temp.
    return Status::error(StatusCode::kIoError, "journal",
                         "simulated crash before rename");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status status = io_error("rename " + tmp + " -> " + path);
    ::unlink(tmp.c_str());
    return status;
  }
  // The rename is only durable once the directory entry is — fsync the
  // parent so a crash right after this call still boots the new snapshot.
  return fsync_parent_dir(path);
}

Status JournalWriter::open(const std::string& path) {
  close();
  crashed_ = false;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return io_error("open " + path);
  path_ = path;
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    const Status status = io_error("stat " + path);
    close();
    return status;
  }
  bytes_ = static_cast<std::uint64_t>(st.st_size);
  if (bytes_ < kJournalHeaderBytes) {
    // Fresh (or header-repaired) journal: write the magic.
    if (write_all(fd_, std::string_view(kJournalMagic,
                                        kJournalHeaderBytes)) !=
        kJournalHeaderBytes) {
      const Status status = io_error("write header " + path);
      close();
      return status;
    }
    bytes_ = kJournalHeaderBytes;
  }
  return Status::ok();
}

void JournalWriter::set_fault_plan(const IoFaultPlan& plan) {
  injector_ = IoFaultInjector(plan);
}

Status JournalWriter::append(std::string_view payload) {
  if (crashed_) {
    return Status::error(StatusCode::kIoError, "journal",
                         "writer crashed (simulated)");
  }
  if (fd_ < 0) {
    return Status::error(StatusCode::kIoError, "journal", "writer not open");
  }
  if (payload.size() > kMaxRecordBytes) {
    return Status::error(StatusCode::kInvalidArgument, "journal",
                         "record too large");
  }
  std::string frame = frame_record(payload);

  if (injector_.fires(IoFaultInjector::Site::kBitFlip)) {
    // Silent corruption: one bit of the frame flips on the way to disk.
    // The append reports success — exactly what failing media does.
    const std::uint64_t bit =
        injector_.pick(IoFaultInjector::Site::kBitFlip, frame.size() * 8);
    frame[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(frame[bit / 8]) ^ (1u << (bit % 8)));
    if (write_all(fd_, frame) != frame.size()) {
      return io_error("write " + path_);
    }
    bytes_ += frame.size();
    return Status::ok();
  }

  if (injector_.fires(IoFaultInjector::Site::kTornAppend)) {
    // Simulated process death mid-write: a prefix lands, then the writer is
    // dead. No repair — recovery on the next boot truncates the tear.
    const std::uint64_t keep =
        injector_.pick(IoFaultInjector::Site::kTornAppend, frame.size());
    (void)write_all(fd_, std::string_view(frame).substr(0, keep));
    (void)::fsync(fd_);
    crashed_ = true;
    return Status::error(StatusCode::kIoError, "journal",
                         "simulated crash mid-append");
  }

  const bool enospc = injector_.fires(IoFaultInjector::Site::kEnospc);
  std::size_t written;
  if (enospc) {
    // ENOSPC after a partial write. Unlike a crash the process is alive to
    // repair the tear, so the journal must stay valid for future appends.
    written = write_all(
        fd_, std::string_view(frame).substr(
                 0, injector_.pick(IoFaultInjector::Site::kEnospc,
                                   frame.size())));
  } else {
    written = write_all(fd_, frame);
  }
  if (enospc || written != frame.size()) {
    // Repair the torn tail: truncate back to the last good offset so the
    // next append (when space frees up) lands on a valid journal.
    if (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0) {
      crashed_ = true;  // cannot repair: stop appending to a torn file
      return io_error("ftruncate " + path_);
    }
    (void)::fsync(fd_);
    return enospc ? Status::error(StatusCode::kIoError, "journal",
                                  "no space left on device (simulated)")
                  : io_error("write " + path_);
  }
  // No fsync: the record is in the page cache, which a killed process
  // cannot lose. Only a kernel crash or power loss can drop the tail
  // written since the last compaction, and a lost record costs one cold
  // compile, never a wrong answer.
  bytes_ += frame.size();
  return Status::ok();
}

void JournalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  bytes_ = 0;
  path_.clear();
}

}  // namespace tydi::support
