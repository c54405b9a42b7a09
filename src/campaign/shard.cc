#include "campaign/shard.h"

#include <initializer_list>

namespace lazyeye::campaign {

namespace {

std::string cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view part : parts) out.append(part);
  return out;
}

}  // namespace

std::vector<ShardRange> shard_plan(std::uint64_t cells, int shards) {
  if (shards < 1) shards = 1;
  const auto n = static_cast<std::uint64_t>(shards);
  const std::uint64_t base = cells / n;
  const std::uint64_t extra = cells % n;
  std::vector<ShardRange> plan;
  plan.reserve(n);
  std::uint64_t at = 0;
  for (int s = 0; s < shards; ++s) {
    ShardRange range;
    range.shard = s;
    range.begin = at;
    at += base + (static_cast<std::uint64_t>(s) < extra ? 1 : 0);
    range.end = at;
    plan.push_back(range);
  }
  return plan;
}

std::string shard_journal_path(std::string_view base, int shard) {
  return cat({base, ".shard", std::to_string(shard), ".journal"});
}

void merge_shard_journals(
    std::string_view base, int shards, std::uint64_t identity,
    std::uint64_t cells,
    const std::function<void(std::uint64_t, std::string_view)>& on_cell) {
  // Shards are contiguous ranges in plan order, and each journal's cells
  // are in-order and contiguous from its cell_begin (load_journal enforces
  // both), so walking the plan IS spec order. A complete journal holds
  // every cell of its range, so the plan's ranges cover [0, cells).
  for (const ShardRange& range : shard_plan(cells, shards)) {
    const std::string path = shard_journal_path(base, range.shard);
    const JournalLoad load = load_journal(path);
    if (!load.exists) {
      throw JournalError(cat({"shard journal missing: ", path}));
    }
    if (load.identity != identity) {
      throw JournalError(
          cat({"shard journal identity mismatch (different spec stream): ",
               path}));
    }
    if (load.cell_begin != range.begin || load.cell_end != range.end) {
      throw JournalError(
          cat({"shard journal covers a different cell range than the plan: ",
               path}));
    }
    if (!load.complete) {
      throw JournalError(
          cat({"shard journal incomplete (shard still has cells to run; "
               "resume it before merging): ",
               path}));
    }
    for (const JournalLoad::Cell& cell : load.cells) {
      on_cell(cell.index, cell.payload);
    }
  }
}

}  // namespace lazyeye::campaign
