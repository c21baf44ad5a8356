#ifndef SVR_DURABILITY_FAULT_INJECTION_H_
#define SVR_DURABILITY_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "durability/wal_file.h"

namespace svr::durability {

/// \brief Shared fault-injection control block.
///
/// One injector is shared by every WAL file a test wires it into.
/// Arm it with FailAfter: the (n+1)-th operation of that kind *trips*
/// the injector — that operation fails, and from then on the injector
/// is "crashed": every subsequent write or sync on every attached file
/// fails too. That models a machine dying mid-run: the engine's
/// in-memory state keeps going until it notices, but nothing more
/// reaches the disk. The kill-and-recover driver then discards the
/// engine object (the crash) and recovers a fresh one from the on-disk
/// bytes alone.
///
/// `short_write` additionally makes the tripping write persist a prefix
/// of its buffer before failing, producing exactly the torn-frame tail
/// ScanWal must truncate.
class FaultInjector {
 public:
  enum class Op { kWrite, kSync };

  /// Arms the injector: `n` more operations of kind `op` succeed, then
  /// the next one trips. Overwrites any previous arming.
  void FailAfter(Op op, uint64_t n, bool short_write = false) EXCLUDES(mu_);
  /// Disarms and clears the crashed state.
  void Reset() EXCLUDES(mu_);

  bool crashed() const EXCLUDES(mu_);
  /// Total write/sync operations observed — lets a driver first measure
  /// how many ops a workload performs, then pick a random crash point.
  uint64_t ops_observed() const EXCLUDES(mu_);

  /// Called by attached files before performing `op`. Returns OK to
  /// proceed; kIOError when the op must fail. Sets `*short_write` when
  /// the tripping write should persist a prefix first.
  Status BeforeOp(Op op, bool* short_write) EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  bool armed_ GUARDED_BY(mu_) = false;
  Op armed_op_ GUARDED_BY(mu_) = Op::kWrite;
  uint64_t remaining_ GUARDED_BY(mu_) = 0;
  bool short_write_ GUARDED_BY(mu_) = false;
  bool crashed_ GUARDED_BY(mu_) = false;
  uint64_t ops_observed_ GUARDED_BY(mu_) = 0;
};

/// WalFile decorator consulting a FaultInjector on every Append/Sync.
/// A tripped short write persists the first half of the buffer (at least
/// one byte) before reporting failure.
class FaultInjectingWalFile : public WalFile {
 public:
  FaultInjectingWalFile(std::unique_ptr<WalFile> base,
                        std::shared_ptr<FaultInjector> injector)
      : base_(std::move(base)), injector_(std::move(injector)) {}

  Status Append(const Slice& data) override;
  Status Sync() override;
  Status Close() override { return base_->Close(); }
  const std::string& path() const override { return base_->path(); }

 private:
  std::unique_ptr<WalFile> base_;
  std::shared_ptr<FaultInjector> injector_;
};

/// Returns a WalFileFactory that opens real POSIX files wrapped in
/// FaultInjectingWalFile sharing `injector`. Because the engine opens
/// WAL segments *and* checkpoint files through its factory, one injector
/// covers crash points in both paths.
WalFileFactory FaultInjectingFactory(std::shared_ptr<FaultInjector> injector);

}  // namespace svr::durability

#endif  // SVR_DURABILITY_FAULT_INJECTION_H_
