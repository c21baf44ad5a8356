#include "durability/fault_injection.h"

namespace svr::durability {

void FaultInjector::FailAfter(Op op, uint64_t n, bool short_write) {
  MutexLock lk(mu_);
  armed_ = true;
  armed_op_ = op;
  remaining_ = n;
  short_write_ = short_write;
  crashed_ = false;
}

void FaultInjector::Reset() {
  MutexLock lk(mu_);
  armed_ = false;
  crashed_ = false;
  remaining_ = 0;
  short_write_ = false;
}

bool FaultInjector::crashed() const {
  MutexLock lk(mu_);
  return crashed_;
}

uint64_t FaultInjector::ops_observed() const {
  MutexLock lk(mu_);
  return ops_observed_;
}

Status FaultInjector::BeforeOp(Op op, bool* short_write) {
  *short_write = false;
  MutexLock lk(mu_);
  ++ops_observed_;
  if (crashed_) {
    return Status::IOError("fault injection: post-crash I/O");
  }
  if (!armed_ || op != armed_op_) return Status::OK();
  if (remaining_ > 0) {
    --remaining_;
    return Status::OK();
  }
  crashed_ = true;
  *short_write = short_write_ && op == Op::kWrite;
  return Status::IOError("fault injection: tripped");
}

Status FaultInjectingWalFile::Append(const Slice& data) {
  bool short_write = false;
  const Status st = injector_->BeforeOp(FaultInjector::Op::kWrite,
                                        &short_write);
  if (st.ok()) return base_->Append(data);
  if (short_write && data.size() > 1) {
    // Persist a prefix so the on-disk tail is torn mid-frame.
    (void)base_->Append(Slice(data.data(), data.size() / 2));
  }
  return st;
}

Status FaultInjectingWalFile::Sync() {
  bool short_write = false;
  const Status st = injector_->BeforeOp(FaultInjector::Op::kSync,
                                        &short_write);
  if (!st.ok()) return st;
  return base_->Sync();
}

WalFileFactory FaultInjectingFactory(
    std::shared_ptr<FaultInjector> injector) {
  return [injector](const std::string& path,
                    std::unique_ptr<WalFile>* out) -> Status {
    std::unique_ptr<WalFile> base;
    SVR_RETURN_NOT_OK(OpenPosixWalFile(path, &base));
    *out = std::make_unique<FaultInjectingWalFile>(std::move(base),
                                                   injector);
    return Status::OK();
  };
}

}  // namespace svr::durability
