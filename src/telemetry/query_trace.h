#ifndef SVR_TELEMETRY_QUERY_TRACE_H_
#define SVR_TELEMETRY_QUERY_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// \brief Per-query stage trace (docs/observability.md).
///
/// A QueryTrace rides through ShardedSvrEngine::Search/SearchAt as an
/// opt-in out-param: pass one and the engine fills the gather/join wall
/// times and one span per shard of the scatter. The same trace is what
/// the slow-query log captures when `total_us` crosses the threshold.

namespace svr::telemetry {

/// One shard's leg of a scatter-gather query.
struct ShardSpan {
  uint32_t shard = 0;
  uint64_t latency_us = 0;  // that shard's SearchAt wall time
  uint64_t hits = 0;        // results it contributed to the gather
};

struct QueryTrace {
  // --- identity -------------------------------------------------------
  std::string keywords;
  uint64_t k = 0;
  bool conjunctive = true;
  /// Commit timestamp of the snapshot the query ran against (the
  /// cross-shard watermark on the sharded engine).
  uint64_t commit_ts = 0;

  // --- stage wall times, microseconds ---------------------------------
  uint64_t gather_us = 0;  // global ids, top-k merge, winners' homes
  uint64_t join_us = 0;    // the winners' rows, copied at the view
  uint64_t total_us = 0;   // whole SearchAt call

  // --- scatter: one span per shard ------------------------------------
  std::vector<ShardSpan> shards;

  uint64_t results = 0;

  /// One-line rendering for logs ("keywords='a b' k=10 ... total=1234us
  /// gather=... join=... shards=2 [shard 0: ...]").
  std::string ToString() const;
};

}  // namespace svr::telemetry

#endif  // SVR_TELEMETRY_QUERY_TRACE_H_
