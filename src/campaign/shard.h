// Multi-process campaign sharding: index-range partitioning plus journal
// merge.
//
// A shard is a contiguous cell range [begin, end) of one spec stream, run
// as its own journaled campaign (journal_sink.h) in its own OS process,
// whose WorkerPool::shared() starts its threads after the fork. The shard process is the campaign's only isolation
// unit: the runner fails a campaign on the first executor throw (runner.h),
// so a throwing, wedged or crashed cell takes down only its shard, which
// leaves an incomplete journal behind and resumes from it once rerun.
// Because every cell's world derives from its spec alone and delivery
// within a shard is in spec order, the concatenation of the shard journals
// in plan order reproduces exactly the cell stream a single-process run
// would deliver: merge then re-establishes spec order by walking the
// shards' (already in-order, contiguous) records.
//
// The driver lives in tools/lazyeye_shard; this header is the
// process-agnostic core (partitioning, paths, merge) so tests can exercise
// it without forking.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/journal.h"

namespace lazyeye::campaign {

struct ShardRange {
  int shard = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  // exclusive

  std::uint64_t cells() const { return end - begin; }
};

/// Contiguous near-equal partition of [0, cells) into `shards` ranges (the
/// first cells % shards ranges get one extra cell). Deterministic; empty
/// ranges appear only when shards > cells.
std::vector<ShardRange> shard_plan(std::uint64_t cells, int shards);

/// Journal path for one shard: "<base>.shard<k>.journal".
std::string shard_journal_path(std::string_view base, int shard);

/// Validates and merges the per-shard journals of a completed sharded run,
/// emitting every cell in global spec order. Each journal must exist, be
/// complete, match `identity`, and cover exactly its planned range —
/// anything else throws JournalError (a merge must never fabricate or skip
/// cells). `on_cell(index, payload)` receives the result bytes of every
/// cell.
void merge_shard_journals(
    std::string_view base, int shards, std::uint64_t identity,
    std::uint64_t cells,
    const std::function<void(std::uint64_t, std::string_view)>& on_cell);

}  // namespace lazyeye::campaign
