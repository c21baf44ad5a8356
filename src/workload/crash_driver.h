#ifndef SVR_WORKLOAD_CRASH_DRIVER_H_
#define SVR_WORKLOAD_CRASH_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "durability/fault_injection.h"
#include "durability/options.h"
#include "index/index_factory.h"
#include "relational/value.h"

namespace svr::workload {

/// One pre-generated DML statement of the deterministic churn script.
/// The script is a pure function of the config seed, so after a crash
/// the driver can re-execute exactly the recovered prefix into a fresh
/// in-memory shadow engine and demand bit-identical query answers.
struct CrashOp {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  std::string table;
  relational::Row row;  // kInsert / kUpdate
  int64_t pk = 0;       // kDelete
};

/// One kill-and-recover run (docs/durability.md, "Fault matrix"):
/// load a corpus into a durable single-shard ShardedSvrEngine, arm a
/// fault injector, churn until the simulated machine death, recover from
/// the on-disk bytes alone, and validate the recovered state against a
/// shadow replay and the brute-force oracle.
struct CrashRecoveryConfig {
  /// Durability directory. The driver WIPES it before the run.
  std::string dir;
  index::Method method = index::Method::kChunk;

  uint32_t initial_docs = 150;
  uint32_t vocab = 400;
  uint32_t terms_per_doc = 12;
  double term_zipf = 1.0;
  double max_score = 100000.0;
  double score_zipf = 0.75;

  /// Length of the deterministic churn script, split by percentage into
  /// document inserts / deletes / content updates; the rest are score
  /// updates. (Content churn is redirected into score churn for
  /// *-TermScore methods — same stale-term-score carve-out as the
  /// concurrent driver.)
  uint32_t churn_ops = 300;
  double insert_pct = 15.0;
  double delete_pct = 10.0;
  double content_pct = 15.0;

  /// Crash point: armed right after setup, the (crash_after_ops+1)-th
  /// operation of kind `crash_op` trips the injector — that op fails
  /// and every write/sync after it fails too (machine death).
  durability::FaultInjector::Op crash_op =
      durability::FaultInjector::Op::kWrite;
  uint64_t crash_after_ops = 40;
  /// The tripping write persists a prefix of its buffer first — the
  /// torn-frame tail recovery must truncate.
  bool short_write = false;

  /// Call CheckpointNow after this many acked churn ops (0 = never).
  /// Arming the crash point just before it crashes mid-checkpoint.
  uint32_t checkpoint_after_ops = 0;
  /// Background checkpoint trigger, forwarded to DurabilityOptions.
  uint64_t checkpoint_interval_statements = 0;

  /// Post-recovery validation: this many 2-term queries, each compared
  /// three ways (recovered Search vs shadow Search; recovered index
  /// TopKAt vs BruteForceOracle at the recovered snapshot).
  uint32_t validate_queries = 25;
  uint32_t top_k = 10;

  uint64_t seed = 2005;
};

struct CrashRecoveryResult {
  /// Churn ops whose durability ack returned OK before the crash. The
  /// durability contract: all of these survive recovery.
  uint64_t acked_ops = 0;
  /// Whether the injector actually tripped (a run whose crash point
  /// lies beyond the workload never crashes — callers usually assert).
  bool crashed = false;
  durability::RecoveryStats recovery;
  /// Churn ops the recovered engine reconstructed (>= acked_ops; ops
  /// in flight at the crash may or may not survive).
  uint64_t recovered_ops = 0;
  uint64_t oracle_checks = 0;
  /// Divergences between recovered engine, shadow replay and oracle.
  /// The whole point: must be 0.
  uint64_t mismatches = 0;
};

/// Runs one kill-and-recover cycle. Returns an error if the durability
/// contract broke (an acked op missing after recovery), if recovery
/// itself failed, or on any engine error unrelated to the injected
/// fault; result.mismatches reports query-level divergence.
Result<CrashRecoveryResult> RunKillRecover(
    const CrashRecoveryConfig& config);

/// Deletes every regular file in `dir` (no-op if absent). Exposed for
/// tests that manage durability directories themselves.
Status WipeDirectory(const std::string& dir);

}  // namespace svr::workload

#endif  // SVR_WORKLOAD_CRASH_DRIVER_H_
