// Journaled campaign execution: crash-safe runs that resume exactly.
//
// run_journaled() wraps any CampaignRunner campaign in a CellJournal
// (journal.h): every delivered cell appends one record through the ordered
// delivery path, so the journal is always an in-order prefix of the cell
// range and a crashed run resumes from "first unjournaled cell".
//
// Resume is codec replay: each cell record carries the result encoded by
// the campaign's JournalCodec, and a resumed run decodes and re-delivers
// every journaled cell, beside the spec SpecStream::at() gives for its
// index, to a fresh sink before running the tail. The sink therefore sees
// exactly the cell stream an uninterrupted run would deliver, so its output
// (CollectingSink bytes, a verdict table, running totals) is identical at
// any worker count, wherever the crash fell.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "campaign/journal.h"
#include "campaign/runner.h"
#include "campaign/scenario.h"
#include "campaign/sink.h"
#include "campaign/spec_stream.h"

namespace lazyeye::campaign {

/// Result byte codec for journaled campaigns. encode() must be a pure
/// function of (spec, outcome); decode() returns nullopt on malformed bytes
/// (which fails the resume loudly — never silently skips a cell).
template <typename R>
struct JournalCodec {
  std::function<std::string(const ScenarioSpec&, const R&)> encode;
  std::function<std::optional<R>(std::string_view)> decode;
};

struct JournalOptions {
  std::string path;
  /// journal_identity() of the spec stream; a resumed journal must match.
  std::uint64_t identity = 0;
  /// Cell range [cell_begin, cell_end) this journal covers — the whole
  /// stream by default (cell_end 0 means specs.size()); shards set a
  /// sub-range (shard.h).
  std::uint64_t cell_begin = 0;
  std::uint64_t cell_end = 0;
};

/// What a journaled run did.
struct JournaledRun {
  bool resumed = false;           // an intact journal was found
  bool already_complete = false;  // journal had kComplete: nothing ran
  std::uint64_t cells_replayed = 0;  // delivered from the journal
  std::uint64_t cells_run = 0;       // executed by this process
};

/// Sink wrapper that appends one journal record per delivered cell, AFTER
/// forwarding to the wrapped sink — a record therefore proves its cell was
/// emitted (the in-order-prefix invariant). Calls arrive serialised under
/// the reorder mutex like any sink's; the writer has its own lock for the
/// thread-safety analysis (journal.h).
template <typename R>
class JournalingSink final : public ResultSink<R> {
 public:
  JournalingSink(ResultSink<R>& inner, JournalWriter& writer,
                 const JournalCodec<R>& codec, std::uint64_t next_index)
      : inner_{inner}, writer_{writer}, codec_{codec}, next_index_{next_index} {}

  /// begin()/end() are driven by run_journaled on the wrapped sink directly
  /// (replay happens between begin() and the tail run).
  void begin(std::size_t) override {}
  void end() override {}

  void cell(const ScenarioSpec& spec, R outcome) override {
    const std::string payload = codec_.encode(spec, outcome);
    inner_.cell(spec, std::move(outcome));
    writer_.append_cell(next_index_++, payload);
  }

 private:
  ResultSink<R>& inner_;
  JournalWriter& writer_;
  const JournalCodec<R>& codec_;
  std::uint64_t next_index_;
};

namespace journal_detail {

/// Re-delivers every journaled cell to the sink, exactly as the original
/// run did. Throws JournalError on undecodable bytes.
template <typename R>
std::uint64_t replay_journal(const JournalLoad& load, const SpecStream& specs,
                             ResultSink<R>& sink,
                             const JournalCodec<R>& codec) {
  std::uint64_t replayed = 0;
  for (const JournalLoad::Cell& cell : load.cells) {
    std::optional<R> outcome = codec.decode(cell.payload);
    if (!outcome.has_value()) {
      throw JournalError(
          "journal cell record failed to decode (result schema changed?); "
          "refusing to resume");
    }
    sink.cell(specs.at(cell.index), std::move(*outcome));
    ++replayed;
  }
  return replayed;
}

}  // namespace journal_detail

/// Runs cells [cell_begin, cell_end) of the stream with a crash journal at
/// options.path, resuming any intact journal found there by codec replay.
/// The wrapped sink receives the full begin / cells-in-order / end
/// lifecycle whether or not a resume happened.
template <typename R>
JournaledRun run_journaled(const CampaignRunner& runner,
                           const SpecStream& specs,
                           const std::function<R(const ScenarioSpec&)>& executor,
                           ResultSink<R>& sink, const JournalOptions& options,
                           const JournalCodec<R>& codec) {
  const std::uint64_t cell_begin = options.cell_begin;
  const std::uint64_t cell_end =
      options.cell_end == 0 ? specs.size() : options.cell_end;
  if (cell_begin > cell_end || cell_end > specs.size()) {
    throw JournalError("journal cell range outside the spec stream");
  }
  const std::uint64_t range = cell_end - cell_begin;

  JournaledRun out;
  const JournalLoad load = load_journal(options.path);
  if (load.exists) {
    if (load.identity != options.identity) {
      throw JournalError(
          "journal identity mismatch: this journal was written by a "
          "different spec stream (id/shape/seed changed); refusing to skip "
          "cells it cannot vouch for");
    }
    if (load.cell_begin != cell_begin || load.cell_end != cell_end) {
      throw JournalError(
          "journal covers a different cell range than this run");
    }
    out.resumed = true;
  }

  sink.begin(static_cast<std::size_t>(range));

  std::uint64_t resume = cell_begin;
  if (load.exists) {
    out.cells_replayed =
        journal_detail::replay_journal<R>(load, specs, sink, codec);
    resume = load.resume_index();
  }

  if (load.complete) {
    out.already_complete = true;
    sink.end();
    return out;
  }

  JournalWriter writer =
      load.exists ? JournalWriter::append(options.path, load.valid_bytes)
                  : JournalWriter::create(options.path, options.identity,
                                          cell_begin, cell_end);

  if (resume < cell_end) {
    JournalingSink<R> journaling{sink, writer, codec, resume};
    runner.run_range<R>(specs, static_cast<std::size_t>(resume),
                        static_cast<std::size_t>(cell_end), executor,
                        journaling);
    out.cells_run = cell_end - resume;
  }

  writer.append_complete(range);
  sink.end();
  return out;
}

}  // namespace lazyeye::campaign
