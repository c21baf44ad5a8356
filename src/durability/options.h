#ifndef SVR_DURABILITY_OPTIONS_H_
#define SVR_DURABILITY_OPTIONS_H_

#include <cstdint>
#include <string>

#include "durability/log_writer.h"
#include "durability/wal_file.h"

namespace svr::durability {

/// Engine-level durability configuration, embedded in
/// ShardedSvrEngineOptions (the one durability owner; one shard is the
/// single-node setup). Disabled by default: the reproduction's benches
/// run in-memory unless a run opts into persistence.
struct DurabilityOptions {
  bool enabled = false;
  /// Directory holding WAL segments and checkpoints. Created on Open if
  /// missing. Recovery runs automatically when it already holds logs.
  std::string dir;
  SyncMode sync_mode = SyncMode::kGroupCommit;
  /// Trigger a background checkpoint once this many statements have been
  /// logged since the last one. 0 disables background checkpoints
  /// (CheckpointNow can still be called explicitly).
  uint64_t checkpoint_interval_statements = 0;
  /// Poll cadence of the background checkpoint thread.
  uint64_t checkpoint_poll_ms = 20;
  /// Opens every durable file (WAL segments and checkpoints). Defaults
  /// to OpenPosixWalFile; tests install FaultInjectingFactory, the bench
  /// a LatencyWalFile wrapper.
  WalFileFactory file_factory;
};

/// What recovery did during Open, for tests and operators.
struct RecoveryStats {
  bool ran = false;
  bool used_checkpoint = false;
  /// Statement seq the loaded checkpoint covers (replay skips <= this).
  uint64_t checkpoint_seq = 0;
  uint64_t wal_records_replayed = 0;
  /// Highest statement seq reconstructed (checkpoint or WAL). The
  /// engine's next statement is recovered_seq + 1.
  uint64_t recovered_seq = 0;
  /// Statements whose re-execution returned an error. Only successful
  /// statements are logged, so replay of an intact log should see zero;
  /// recovery counts and skips rather than aborting.
  uint64_t replay_errors = 0;
  uint64_t torn_tail_bytes = 0;
  uint64_t segments_read = 0;
};

}  // namespace svr::durability

#endif  // SVR_DURABILITY_OPTIONS_H_
