#include "campaign/journal.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/crc32.h"
#include "util/rng.h"
#include "util/wire.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define LAZYEYE_HAVE_FSYNC 1
#endif

namespace lazyeye::campaign {

namespace {

constexpr char kMagic[4] = {'L', 'Z', 'Y', 'J'};
constexpr std::uint16_t kVersion = 1;
// magic(4) + version(2) + identity(8) + begin(8) + end(8) + crc(4)
constexpr std::size_t kHeaderSize = 34;
// type(1) + len(4) + crc(4)
constexpr std::size_t kRecordOverhead = 9;
constexpr std::uint32_t kMaxRecordPayload = 1u << 28;  // 256 MiB sanity cap

enum RecordType : std::uint8_t {
  kCell = 1,
  kQuarantine = 2,
  kSnapshot = 3,
  kComplete = 4,
};

std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view part : parts) out.append(part);
  return out;
}

[[noreturn]] void fail(const std::string& path, std::uint64_t offset,
                       std::string_view what) {
  throw JournalError(cat({"journal '", path, "' at offset ",
                          std::to_string(offset), ": ", what}));
}

std::string read_whole_file(const std::string& path, bool& exists) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    exists = false;
    return {};
  }
  exists = true;
  std::string data;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, n);
  std::fclose(f);
  return data;
}

}  // namespace

std::uint64_t journal_identity(std::string_view stream_id, std::uint64_t cells,
                               std::uint64_t seed) {
  // FNV-1a over the stream id, then SplitMix64 folds in shape and seed so
  // any single-field change flips the identity.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : stream_id) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  SplitMix64 mix{h ^ (cells * 0x9e3779b97f4a7c15ULL)};
  const std::uint64_t a = mix.next();
  SplitMix64 mix2{a ^ (seed * 0xd6e8feb86659fd93ULL)};
  return mix2.next();
}

JournalLoad load_journal(const std::string& path) {
  JournalLoad load;
  std::string data = read_whole_file(path, load.exists);
  if (!load.exists) return load;
  const std::string_view view{data};

  if (view.size() < kHeaderSize) {
    fail(path, 0, "truncated header (file smaller than the header frame)");
  }
  if (std::memcmp(view.data(), kMagic, sizeof kMagic) != 0) {
    fail(path, 0, "bad magic (not a campaign journal)");
  }
  if (wire::get_u16(view, 4) != kVersion) {
    fail(path, 4, "unsupported journal version");
  }
  const std::uint32_t header_crc = wire::get_u32(view, kHeaderSize - 4);
  if (util::crc32(view.substr(0, kHeaderSize - 4)) != header_crc) {
    fail(path, 0, "header CRC mismatch");
  }
  load.identity = wire::get_u64(view, 6);
  load.cell_begin = wire::get_u64(view, 14);
  load.cell_end = wire::get_u64(view, 22);
  if (load.cell_end < load.cell_begin) {
    fail(path, 14, "header cell range is inverted");
  }

  std::size_t pos = kHeaderSize;
  load.valid_bytes = pos;
  load.snapshot_valid_bytes = pos;
  while (pos < view.size()) {
    // A record that does not fully fit — length frame or declared payload
    // running past EOF — can only be the torn tail of a crashed append.
    const bool frame_fits = view.size() - pos >= kRecordOverhead;
    std::uint32_t len = 0;
    bool body_fits = false;
    if (frame_fits) {
      len = wire::get_u32(view, pos + 1);
      body_fits = len <= kMaxRecordPayload &&
                  view.size() - pos - kRecordOverhead >= len;
    }
    if (!frame_fits || !body_fits) {
      load.torn_tail = true;
      break;
    }
    const std::string_view framed = view.substr(pos, 5 + len);
    const std::uint32_t want_crc = wire::get_u32(view, pos + 5 + len);
    if (util::crc32(framed) != want_crc) {
      // Only the FINAL record may be damaged (torn mid-write). A bad CRC
      // with more records behind it means real corruption: refuse.
      if (pos + kRecordOverhead + len < view.size()) {
        fail(path, pos, "record CRC mismatch before end of file (corrupt "
                        "journal; refusing to resume)");
      }
      load.torn_tail = true;
      break;
    }
    const std::uint8_t type = static_cast<unsigned char>(view[pos]);
    const std::string_view payload = view.substr(pos + 5, len);
    switch (type) {
      case kCell: {
        if (len < 8) fail(path, pos, "cell record shorter than its index");
        JournalLoad::Cell cell;
        cell.index = wire::get_u64(payload, 0);
        cell.payload.assign(payload.substr(8));
        if (cell.index != load.resume_index()) {
          fail(path, pos,
               "cell record out of order (journal must be an in-order "
               "prefix; refusing to resume)");
        }
        load.cells.push_back(std::move(cell));
        break;
      }
      case kQuarantine: {
        if (len < 13) fail(path, pos, "quarantine record too short");
        JournalLoad::Cell cell;
        cell.index = wire::get_u64(payload, 0);
        cell.quarantined = true;
        cell.attempts = static_cast<int>(wire::get_u32(payload, 8));
        cell.timed_out = payload[12] != 0;
        cell.payload.assign(payload.substr(13));  // error text
        if (cell.index != load.resume_index()) {
          fail(path, pos, "quarantine record out of order");
        }
        load.cells.push_back(std::move(cell));
        break;
      }
      case kSnapshot: {
        if (len < 8) fail(path, pos, "snapshot record too short");
        load.snapshot_cells = wire::get_u64(payload, 0);
        load.snapshot_state.assign(payload.substr(8));
        if (load.snapshot_cells > load.cells.size()) {
          fail(path, pos, "snapshot claims more cells than journaled");
        }
        load.snapshot_valid_bytes = pos + kRecordOverhead + len;
        break;
      }
      case kComplete: {
        if (len != 8) fail(path, pos, "complete record malformed");
        if (wire::get_u64(payload, 0) != load.cells.size() ||
            load.resume_index() != load.cell_end) {
          fail(path, pos, "complete record disagrees with journaled cells");
        }
        load.complete = true;
        break;
      }
      default:
        fail(path, pos, "unknown record type");
    }
    pos += kRecordOverhead + len;
    load.valid_bytes = pos;
  }
  if (load.resume_index() > load.cell_end) {
    fail(path, load.valid_bytes, "journal holds cells past its declared range");
  }
  return load;
}

// ---- JournalWriter ---------------------------------------------------------

JournalWriter JournalWriter::create(const std::string& path,
                                    std::uint64_t identity,
                                    std::uint64_t cell_begin,
                                    std::uint64_t cell_end,
                                    JournalFsync fsync) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw JournalError(cat({"cannot create journal '", path, "'"}));
  }
  std::string header;
  header.reserve(kHeaderSize);
  header.append(kMagic, sizeof kMagic);
  wire::put_u16(header, kVersion);
  wire::put_u64(header, identity);
  wire::put_u64(header, cell_begin);
  wire::put_u64(header, cell_end);
  wire::put_u32(header, util::crc32(header));
  if (std::fwrite(header.data(), 1, header.size(), f) != header.size()) {
    std::fclose(f);
    throw JournalError(cat({"cannot write journal header to '", path, "'"}));
  }
  JournalWriter writer{f, fsync};
  writer.sync();  // the header must be durable before any cell runs
  return writer;
}

JournalWriter JournalWriter::append(const std::string& path,
                                    std::uint64_t valid_bytes,
                                    JournalFsync fsync) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) {
    throw JournalError(cat({"cannot reopen journal '", path, "'"}));
  }
#if LAZYEYE_HAVE_FSYNC
  // Drop a torn tail before appending: new records must start exactly at
  // the end of the last intact one.
  if (ftruncate(fileno(f), static_cast<off_t>(valid_bytes)) != 0) {
    std::fclose(f);
    throw JournalError(cat({"cannot truncate torn tail of '", path, "'"}));
  }
#endif
  if (std::fseek(f, static_cast<long>(valid_bytes), SEEK_SET) != 0) {
    std::fclose(f);
    throw JournalError(cat({"cannot seek to append position in '", path, "'"}));
  }
  return JournalWriter{f, fsync};
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fsync_{other.fsync_} {
  util::MutexLock lock{other.mutex_};
  file_ = other.file_;
  other.file_ = nullptr;
}

JournalWriter::~JournalWriter() {
  util::MutexLock lock{mutex_};
  if (file_ != nullptr) {
    (void)flush_locked(fsync_ != JournalFsync::kNone);  // nowhere to report
    std::fclose(file_);
    file_ = nullptr;
  }
}

void JournalWriter::append_record(std::uint8_t type, std::string_view payload,
                                  bool force_sync) {
  std::string framed;
  framed.reserve(kRecordOverhead + payload.size());
  framed.push_back(static_cast<char>(type));
  wire::put_u32(framed, static_cast<std::uint32_t>(payload.size()));
  framed.append(payload);
  wire::put_u32(framed, util::crc32(framed));

  util::MutexLock lock{mutex_};
  if (file_ == nullptr) throw JournalError("journal writer already closed");
  if (std::fwrite(framed.data(), 1, framed.size(), file_) != framed.size()) {
    throw JournalError("journal append failed (disk full?)");
  }
  if (!flush_locked(force_sync || fsync_ == JournalFsync::kEveryRecord)) {
    throw JournalError(cat({"journal flush failed: ", std::strerror(errno)}));
  }
}

bool JournalWriter::flush_locked(bool want_fsync) {
  // fwrite only fills the stdio buffer: ENOSPC / EIO surface here.
  if (std::fflush(file_) != 0) return false;
#if LAZYEYE_HAVE_FSYNC
  // EINVAL means the file cannot be synced at all (a pipe or character
  // device); the bytes still reached the OS, so that is not a failure.
  if (want_fsync && fsync(fileno(file_)) != 0 && errno != EINVAL) return false;
#else
  (void)want_fsync;
#endif
  return true;
}

void JournalWriter::append_cell(std::uint64_t index, std::string_view payload) {
  std::string body;
  body.reserve(8 + payload.size());
  wire::put_u64(body, index);
  body.append(payload);
  append_record(kCell, body, /*force_sync=*/false);
}

void JournalWriter::append_quarantine(std::uint64_t index, int attempts,
                                      bool timed_out, std::string_view error) {
  std::string body;
  body.reserve(13 + error.size());
  wire::put_u64(body, index);
  wire::put_u32(body, static_cast<std::uint32_t>(attempts));
  body.push_back(timed_out ? '\1' : '\0');
  body.append(error);
  append_record(kQuarantine, body, /*force_sync=*/false);
}

void JournalWriter::append_snapshot(std::uint64_t cells_delivered,
                                    std::string_view state) {
  std::string body;
  body.reserve(8 + state.size());
  wire::put_u64(body, cells_delivered);
  body.append(state);
  append_record(kSnapshot, body,
                /*force_sync=*/fsync_ == JournalFsync::kSnapshot);
}

void JournalWriter::append_complete(std::uint64_t cells_delivered) {
  std::string body;
  wire::put_u64(body, cells_delivered);
  append_record(kComplete, body,
                /*force_sync=*/fsync_ != JournalFsync::kNone);
}

void JournalWriter::sync() {
  util::MutexLock lock{mutex_};
  if (file_ != nullptr && !flush_locked(true)) {
    throw JournalError(cat({"journal sync failed: ", std::strerror(errno)}));
  }
}

}  // namespace lazyeye::campaign
