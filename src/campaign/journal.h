// CellJournal: crash-safe, append-only record of campaign progress.
//
// A journaled campaign writes one CRC-framed record per *delivered* cell,
// through the ordered delivery path (reorder.h): the record for cell i is
// appended only after cells [begin, i] have all been emitted to the sink,
// so the journal is always an in-order prefix of the cell range it covers.
// That single invariant is what makes resume trivial and exact — on
// restart, the journal IS the set of finished cells, and the remaining work
// is a contiguous tail.
//
// File layout (all integers big-endian, matching util/bytes.h):
//
//   header:  magic "LZYJ" | u16 version | u64 identity
//          | u64 cell_begin | u64 cell_end | u32 crc(header bytes)
//   record:  u8 type | u32 payload_len | payload | u32 crc(type|len|payload)
//
// Record types:
//   kCell        u64 index | result bytes   (empty in snapshot-only mode)
//   kQuarantine  u64 index | u32 attempts | u8 timed_out | error text
//   kSnapshot    u64 cells_delivered | opaque sink-state blob
//   kComplete    u64 cells_delivered       (the range finished cleanly)
//
// `identity` fingerprints the spec stream (journal_identity() hashes the
// stream id, grid shape, and seed); a journal is only ever resumed against
// the stream that wrote it — mismatches refuse loudly (JournalError).
//
// Recovery semantics (tested by tests/journal_test.cc):
//   - torn final record (partial append at the crash point): dropped; the
//     cell re-runs on resume. Recoverable by construction.
//   - CRC-corrupt or malformed record that is NOT the final one: the file
//     is damaged, not torn — load_journal throws. Never silently skipped.
//   - truncated/corrupt header: throws. A journal that cannot prove its
//     identity cannot be trusted to skip work.
#pragma once

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lazyeye::campaign {

class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what) : std::runtime_error(what) {}
};

/// Fingerprints a spec stream for the journal header: a pure hash of the
/// stream's name, its grid shape (cell count), and the campaign seed.
std::uint64_t journal_identity(std::string_view stream_id, std::uint64_t cells,
                               std::uint64_t seed);

enum class JournalFsync : std::uint8_t {
  kNone,      // fflush only: survives process death (SIGKILL), not power loss
  kSnapshot,  // + fsync on snapshot/complete records (default)
  kEveryRecord,
};

/// Parsed journal contents (load_journal).
struct JournalLoad {
  bool exists = false;  // false: no file — fresh campaign, nothing else set
  std::uint64_t identity = 0;
  std::uint64_t cell_begin = 0;
  std::uint64_t cell_end = 0;

  struct Cell {
    std::uint64_t index = 0;
    std::string payload;  // encoded result ("" in snapshot-only mode)
    bool quarantined = false;
    int attempts = 0;      // quarantine records only
    bool timed_out = false;
  };
  /// In journal order == spec order; indices are contiguous from cell_begin.
  std::vector<Cell> cells;

  /// Latest snapshot record, if any.
  std::string snapshot_state;
  std::uint64_t snapshot_cells = 0;
  /// File offset just past the last snapshot record (== end of header when
  /// none). Snapshot-mode resume truncates here: cell records past the
  /// snapshot carry no payload, so their cells re-run from restored state.
  std::uint64_t snapshot_valid_bytes = 0;

  bool complete = false;   // a kComplete record was present
  bool torn_tail = false;  // a partial/corrupt FINAL record was dropped
  std::uint64_t valid_bytes = 0;  // file offset after the last intact record

  /// First cell that still has to run: cell_begin + cells.size().
  std::uint64_t resume_index() const {
    return cell_begin + static_cast<std::uint64_t>(cells.size());
  }
};

/// Reads and validates a journal. Missing file -> exists=false. A torn
/// final record is dropped (recoverable); any other damage throws
/// JournalError with the offending offset.
JournalLoad load_journal(const std::string& path);

/// Appends CRC-framed records to a journal file. Writes are serialised by
/// an internal mutex (the ordered delivery path already serialises callers,
/// but the annotation makes the contract checkable and TSan-visible).
class JournalWriter {
 public:
  /// Creates/truncates `path` and writes a fresh header.
  static JournalWriter create(const std::string& path, std::uint64_t identity,
                              std::uint64_t cell_begin, std::uint64_t cell_end,
                              JournalFsync fsync = JournalFsync::kSnapshot);

  /// Reopens an existing journal for appending, truncating a torn tail
  /// first (`valid_bytes` from load_journal).
  static JournalWriter append(const std::string& path,
                              std::uint64_t valid_bytes,
                              JournalFsync fsync = JournalFsync::kSnapshot);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&&) = delete;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  void append_cell(std::uint64_t index, std::string_view payload)
      EXCLUDES(mutex_);
  void append_quarantine(std::uint64_t index, int attempts, bool timed_out,
                         std::string_view error) EXCLUDES(mutex_);
  void append_snapshot(std::uint64_t cells_delivered, std::string_view state)
      EXCLUDES(mutex_);
  void append_complete(std::uint64_t cells_delivered) EXCLUDES(mutex_);

  /// Flushes to the OS and fsyncs regardless of policy.
  ///
  /// sync(), every append_* and create() throw JournalError when the flush
  /// or fsync fails (ENOSPC, EIO): a record is never reported durable when
  /// it is not. Only the destructor swallows such errors.
  void sync() EXCLUDES(mutex_);

 private:
  JournalWriter(std::FILE* file, JournalFsync fsync)
      : fsync_{fsync}, file_{file} {}

  void append_record(std::uint8_t type, std::string_view payload,
                     bool force_sync) EXCLUDES(mutex_);
  /// fflush (+ fsync when asked); false on failure with errno set.
  [[nodiscard]] bool flush_locked(bool want_fsync) REQUIRES(mutex_);

  const JournalFsync fsync_;
  mutable util::Mutex mutex_;
  std::FILE* file_ GUARDED_BY(mutex_) = nullptr;
};

}  // namespace lazyeye::campaign
