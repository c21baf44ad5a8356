#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_engine.h"
#include "core/svr_engine.h"
#include "durability/checkpoint.h"
#include "durability/crc32c.h"
#include "durability/fault_injection.h"
#include "durability/log_writer.h"
#include "durability/wal_file.h"
#include "durability/wal_format.h"
#include "fuzz/standalone_driver.h"
#include "storage/page_store.h"
#include "workload/crash_driver.h"

namespace svr::test {
namespace {

using durability::AppendFrame;
using durability::FaultInjector;
using durability::ScanWal;
using durability::StatementKind;
using durability::WalScan;
using durability::WalStatement;
using relational::Schema;
using relational::Value;
using relational::ValueType;

/// Fresh empty directory under the test's working directory.
std::string TestDir(const std::string& name) {
  const std::string dir = "durability_test_" + name;
  EXPECT_TRUE(workload::WipeDirectory(dir).ok());
  EXPECT_TRUE(durability::EnsureDirectory(dir).ok());
  return dir;
}

// --- CRC-32C ------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // The canonical check value of CRC-32C ("123456789" -> 0xE3069283).
  EXPECT_EQ(durability::Crc32c("123456789", 9), 0xE3069283u);
  // 32 zero bytes -> 0x8A9136AA (RFC 3720 appendix B.4 test vector).
  const std::string zeros(32, '\0');
  EXPECT_EQ(durability::Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data = "structured value ranking";
  const uint32_t whole = durability::Crc32c(data.data(), data.size());
  uint32_t split = durability::Crc32c(data.data(), 7);
  split = durability::Crc32c(split, data.data() + 7, data.size() - 7);
  EXPECT_EQ(split, whole);
}

TEST(Crc32cTest, MatchesPortableReference) {
  // Crc32c takes the CPU's CRC32 instruction where it has one; the byte
  // loop is the reference. On a CPU without SSE4.2, Crc32c is that loop,
  // and this case compares the loop with itself.
  std::string buf(65539 + 8, '\0');
  uint32_t x = 0x9e3779b9u;
  for (char& c : buf) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  lengths.push_back(65539);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n : lengths) {
      const char* p = buf.data() + offset;
      ASSERT_EQ(durability::Crc32c(p, n), durability::Crc32cPortable(0, p, n))
          << "offset " << offset << ", length " << n;
    }
  }
  // Continuation: Crc32c(Crc32c(a), b) == Crc32c(a + b) at every split.
  const size_t total = 300;
  const uint32_t whole = durability::Crc32cPortable(0, buf.data(), total);
  for (size_t split = 0; split <= total; ++split) {
    const uint32_t head = durability::Crc32c(buf.data(), split);
    ASSERT_EQ(durability::Crc32c(head, buf.data() + split, total - split),
              whole)
        << "split " << split;
  }
}

TEST(Crc32cTest, MaskRoundTrips) {
  for (uint32_t crc : {0u, 1u, 0xE3069283u, 0xFFFFFFFFu, 0xDEADBEEFu}) {
    EXPECT_EQ(durability::UnmaskCrc(durability::MaskCrc(crc)), crc);
    EXPECT_NE(durability::MaskCrc(crc), crc);
  }
}

// --- statement encoding -------------------------------------------------

std::vector<WalStatement> SampleStatements() {
  std::vector<WalStatement> stmts;
  {
    WalStatement s;
    s.kind = StatementKind::kCreateTable;
    s.seq = 1;
    s.commit_ts = 1;
    s.table = "docs";
    s.schema =
        Schema({{"id", ValueType::kInt64}, {"text", ValueType::kString}}, 0);
    stmts.push_back(s);
  }
  {
    WalStatement s;
    s.kind = StatementKind::kInsert;
    s.seq = 2;
    s.commit_ts = 2;
    s.table = "docs";
    s.row = {Value::Int(7), Value::String("alpha beta gamma"),
             Value::Double(3.25), Value::Null()};
    stmts.push_back(s);
  }
  {
    WalStatement s;
    s.kind = StatementKind::kCreateTextIndex;
    s.seq = 3;
    s.commit_ts = 3;
    s.table = "docs";
    s.text_column = "text";
    s.specs = {{"S1", "scores", "id", "val",
                relational::AggregateKind::kValue}};
    s.agg_weights = {1.0, 0.5};
    stmts.push_back(s);
  }
  {
    WalStatement s;
    s.kind = StatementKind::kUpdate;
    s.seq = 4;
    s.commit_ts = 5;
    s.table = "scores";
    s.row = {Value::Int(-12), Value::Double(99.5)};
    stmts.push_back(s);
  }
  {
    WalStatement s;
    s.kind = StatementKind::kDelete;
    s.seq = 5;
    s.commit_ts = 6;
    s.table = "docs";
    s.pk = -42;
    stmts.push_back(s);
  }
  {
    WalStatement s;
    s.kind = StatementKind::kCheckpointHeader;
    s.header_seq = 5;
    s.header_ts = 6;
    stmts.push_back(s);
  }
  {
    WalStatement s;
    s.kind = StatementKind::kCheckpointFooter;
    s.footer_records = 5;
    stmts.push_back(s);
  }
  return stmts;
}

void ExpectStatementsEqual(const WalStatement& a, const WalStatement& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.commit_ts, b.commit_ts);
  EXPECT_EQ(a.table, b.table);
  EXPECT_EQ(a.pk, b.pk);
  EXPECT_EQ(a.text_column, b.text_column);
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(a.agg_weights, b.agg_weights);
  EXPECT_EQ(a.header_seq, b.header_seq);
  EXPECT_EQ(a.header_ts, b.header_ts);
  EXPECT_EQ(a.footer_records, b.footer_records);
  ASSERT_EQ(a.specs.size(), b.specs.size());
  for (size_t i = 0; i < a.specs.size(); ++i) {
    EXPECT_EQ(a.specs[i].name, b.specs[i].name);
    EXPECT_EQ(a.specs[i].source_table, b.specs[i].source_table);
    EXPECT_EQ(a.specs[i].match_column, b.specs[i].match_column);
    EXPECT_EQ(a.specs[i].value_column, b.specs[i].value_column);
    EXPECT_EQ(a.specs[i].kind, b.specs[i].kind);
  }
  ASSERT_EQ(a.schema.num_columns(), b.schema.num_columns());
  EXPECT_EQ(a.schema.pk_index(), b.schema.pk_index());
  for (size_t i = 0; i < a.schema.num_columns(); ++i) {
    EXPECT_EQ(a.schema.column(i).name, b.schema.column(i).name);
    EXPECT_EQ(a.schema.column(i).type, b.schema.column(i).type);
  }
}

TEST(WalFormatTest, StatementRoundTrip) {
  for (const WalStatement& stmt : SampleStatements()) {
    std::string payload;
    durability::EncodeStatement(stmt, &payload);
    WalStatement back;
    ASSERT_TRUE(durability::DecodeStatement(Slice(payload), &back).ok());
    ExpectStatementsEqual(stmt, back);
  }
}

TEST(WalFormatTest, FramedLogRoundTrip) {
  std::string log;
  const std::vector<WalStatement> stmts = SampleStatements();
  for (const WalStatement& stmt : stmts) {
    std::string payload;
    durability::EncodeStatement(stmt, &payload);
    AppendFrame(&log, Slice(payload));
  }
  WalScan scan;
  ScanWal(Slice(log), &scan);
  EXPECT_TRUE(scan.tail.ok()) << scan.tail.ToString();
  EXPECT_EQ(scan.clean_bytes, log.size());
  ASSERT_EQ(scan.records.size(), stmts.size());
  for (size_t i = 0; i < stmts.size(); ++i) {
    ExpectStatementsEqual(stmts[i], scan.records[i]);
  }
}

// The scan-level crash contract: EVERY byte prefix of a valid log either
// ends exactly on a frame boundary (tail OK) or reports kDataLoss at the
// last boundary — and the records before the cut are untouched.
TEST(WalFormatTest, EveryPrefixReplaysCleanlyOrReportsDataLoss) {
  std::string log;
  std::vector<size_t> boundaries = {0};
  const std::vector<WalStatement> stmts = SampleStatements();
  for (const WalStatement& stmt : stmts) {
    std::string payload;
    durability::EncodeStatement(stmt, &payload);
    AppendFrame(&log, Slice(payload));
    boundaries.push_back(log.size());
  }
  for (size_t p = 0; p <= log.size(); ++p) {
    WalScan scan;
    ScanWal(Slice(log.data(), p), &scan);
    // Number of whole frames inside the prefix.
    size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= p) {
      ++whole;
    }
    ASSERT_EQ(scan.records.size(), whole) << "prefix " << p;
    ASSERT_EQ(scan.clean_bytes, boundaries[whole]) << "prefix " << p;
    if (p == boundaries[whole]) {
      EXPECT_TRUE(scan.tail.ok()) << "prefix " << p;
    } else {
      EXPECT_TRUE(scan.tail.IsDataLoss())
          << "prefix " << p << ": " << scan.tail.ToString();
    }
  }
}

// A bit flip inside a COMPLETE frame is corruption, not a torn tail —
// recovery must stop hard rather than silently truncate history.
TEST(WalFormatTest, BitFlipInCompleteFrameIsCorruption) {
  std::string log;
  for (const WalStatement& stmt : SampleStatements()) {
    std::string payload;
    durability::EncodeStatement(stmt, &payload);
    AppendFrame(&log, Slice(payload));
  }
  // Flip one bit in the payload area of the middle frame. (Flipping
  // length-prefix bytes can also masquerade as a torn tail, which is an
  // acceptable outcome for a *tail* frame only — here we target payload
  // bytes of an interior frame, which must always be caught.)
  WalScan clean;
  ScanWal(Slice(log), &clean);
  ASSERT_TRUE(clean.tail.ok());
  for (size_t pos : {9ul, log.size() / 2, log.size() - 1}) {
    std::string flipped = log;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x40);
    WalScan scan;
    ScanWal(Slice(flipped), &scan);
    EXPECT_FALSE(scan.tail.ok()) << "bit flip at " << pos;
    EXPECT_LT(scan.records.size(), clean.records.size());
  }
}

// --- group commit -------------------------------------------------------

TEST(LogWriterTest, GroupCommitAcksEveryStatementDurably) {
  const std::string dir = TestDir("group_commit");
  const std::string path = dir + "/wal-0-00000001.log";
  std::unique_ptr<durability::WalFile> file;
  ASSERT_TRUE(durability::OpenPosixWalFile(path, &file).ok());
  durability::LogWriter writer(std::move(file),
                               durability::SyncMode::kGroupCommit);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        WalStatement stmt;
        stmt.kind = StatementKind::kDelete;
        stmt.seq = static_cast<uint64_t>(t * kPerThread + i + 1);
        stmt.commit_ts = stmt.seq;
        stmt.table = "docs";
        stmt.pk = stmt.seq;
        std::string payload, frame;
        durability::EncodeStatement(stmt, &payload);
        AppendFrame(&frame, Slice(payload));
        const uint64_t ticket = writer.Append(Slice(frame));
        if (!writer.WaitDurable(ticket).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(writer.Stop().ok());

  WalScan scan;
  ASSERT_TRUE(durability::ReadWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.tail.ok());
  EXPECT_EQ(scan.records.size(),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST(LogWriterTest, ErrorsAreSticky) {
  auto injector = std::make_shared<FaultInjector>();
  const std::string dir = TestDir("sticky");
  auto factory = durability::FaultInjectingFactory(injector);
  std::unique_ptr<durability::WalFile> file;
  ASSERT_TRUE(factory(dir + "/wal-0-00000001.log", &file).ok());
  durability::LogWriter writer(std::move(file),
                               durability::SyncMode::kSyncEachStatement);
  ASSERT_TRUE(writer.WaitDurable(writer.Append(Slice("ok"))).ok());
  injector->FailAfter(FaultInjector::Op::kWrite, 0);
  EXPECT_FALSE(writer.WaitDurable(writer.Append(Slice("boom"))).ok());
  // Dead for good, even though the injector would now allow the IO.
  injector->Reset();
  EXPECT_FALSE(writer.WaitDurable(writer.Append(Slice("after"))).ok());
  EXPECT_FALSE(writer.Stop().ok());
}

// --- fault injection + torn-tail repair --------------------------------

TEST(FaultInjectionTest, ShortWriteLeavesTornTailThatRecoveryTruncates) {
  auto injector = std::make_shared<FaultInjector>();
  const std::string dir = TestDir("torn");
  const std::string path = durability::WalSegmentPath(dir, 0, 1);
  auto factory = durability::FaultInjectingFactory(injector);
  std::unique_ptr<durability::WalFile> file;
  ASSERT_TRUE(factory(path, &file).ok());
  std::string frame;
  {
    WalStatement stmt;
    stmt.kind = StatementKind::kDelete;
    stmt.seq = 1;
    stmt.commit_ts = 1;
    stmt.table = "docs";
    stmt.pk = 1;
    std::string payload;
    durability::EncodeStatement(stmt, &payload);
    AppendFrame(&frame, Slice(payload));
  }
  ASSERT_TRUE(file->Append(Slice(frame)).ok());
  // Second append tears mid-frame: a prefix lands, then the crash.
  injector->FailAfter(FaultInjector::Op::kWrite, 0, /*short_write=*/true);
  ASSERT_FALSE(file->Append(Slice(frame)).ok());
  (void)file->Close();
  injector->Reset();

  durability::WalRecovery rec;
  std::vector<durability::SegmentInfo> segs = {{0, 1, path}};
  ASSERT_TRUE(durability::RecoverWalRecords(segs, 0, &rec).ok());
  EXPECT_EQ(rec.records.size(), 1u);
  EXPECT_GT(rec.torn_tail_bytes, 0u);
  // After truncation the file scans clean.
  WalScan scan;
  ASSERT_TRUE(durability::ReadWalFile(path, &scan).ok());
  EXPECT_TRUE(scan.tail.ok());
  EXPECT_EQ(scan.records.size(), 1u);
}

// --- Stop() hardening -------------------------------------------------

/// Durable engines in this file are ShardedSvrEngines: the sharded layer
/// is the one durability owner, and one shard is the single-node setup.
core::ShardedSvrEngineOptions ShardedDurableOptions(const std::string& dir,
                                                    uint32_t shards) {
  core::ShardedSvrEngineOptions options;
  options.num_shards = shards;
  options.durability.enabled = true;
  options.durability.dir = dir;
  return options;
}

TEST(EngineLifecycleTest, StopIsIdempotentAndSafeBeforeStart) {
  {
    auto r = core::SvrEngine::Open(core::SvrEngineOptions());
    ASSERT_TRUE(r.ok());
    auto engine = std::move(r).value();
    engine->Stop();  // never started — must be a no-op, not a crash
    engine->Stop();  // and idempotent
    ASSERT_TRUE(engine
                    ->CreateTable("t", Schema({{"id", ValueType::kInt64}}, 0))
                    .ok());
    ASSERT_TRUE(engine->Insert("t", {Value::Int(1)}).ok());
    engine->Stop();
  }
  // The durable engine: Stop flushes and closes the WAL; DML after it
  // still executes but is no longer logged.
  auto r = core::ShardedSvrEngine::Open(
      ShardedDurableOptions(TestDir("stop_twice"), 1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto engine = std::move(r).value();
  engine->Stop();
  engine->Stop();
  ASSERT_TRUE(engine
                  ->CreateTable("t", Schema({{"id", ValueType::kInt64}}, 0))
                  .ok());
  ASSERT_TRUE(engine->Insert("t", {Value::Int(1)}).ok());
  engine->Stop();
}

TEST(EngineLifecycleTest, DurabilityRejectsCustomAggFunctions) {
  auto r = core::ShardedSvrEngine::Open(
      ShardedDurableOptions(TestDir("custom_agg"), 1));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto engine = std::move(r).value();
  ASSERT_TRUE(engine
                  ->CreateTable("docs", Schema({{"id", ValueType::kInt64},
                                                {"text", ValueType::kString}},
                                               0))
                  .ok());
  ASSERT_TRUE(engine
                  ->CreateTable("scores", Schema({{"id", ValueType::kInt64},
                                                  {"val", ValueType::kDouble}},
                                                 0))
                  .ok());
  const Status st = engine->CreateTextIndex(
      "docs", "text",
      {{"S1", "scores", "id", "val", relational::AggregateKind::kValue}},
      relational::AggFunction::Custom(
          [](const std::vector<double>& vs) { return vs[0]; }));
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
  engine->Stop();
}

// --- clean persist -> recover cycles -----------------------------------

/// No-crash RunKillRecover: the crash point lies beyond the workload, so
/// every op acks, the engine restarts from disk, and the recovered state
/// must match the shadow replay and the oracle.
TEST(RecoveryTest, CleanRestartRecoversEverything) {
  workload::CrashRecoveryConfig config;
  config.dir = TestDir("clean_restart");
  config.crash_after_ops = 1u << 30;  // never trips
  auto r = workload::RunKillRecover(config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.value().crashed);
  EXPECT_EQ(r.value().acked_ops, r.value().recovered_ops);
  EXPECT_EQ(r.value().mismatches, 0u);
  EXPECT_GT(r.value().oracle_checks, 0u);
  EXPECT_FALSE(r.value().recovery.used_checkpoint);
}

TEST(RecoveryTest, CheckpointCoversPrefixAndRecoveryUsesIt) {
  workload::CrashRecoveryConfig config;
  config.dir = TestDir("with_checkpoint");
  config.crash_after_ops = 1u << 30;
  config.checkpoint_after_ops = 100;  // explicit CheckpointNow mid-churn
  auto r = workload::RunKillRecover(config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().mismatches, 0u);
  EXPECT_TRUE(r.value().recovery.used_checkpoint);
  // The checkpoint supersedes the covered WAL prefix, so replay touches
  // only the suffix.
  EXPECT_LT(r.value().recovery.wal_records_replayed,
            r.value().recovered_ops);
}

TEST(RecoveryTest, BackgroundCheckpointThreadCoversTheLog) {
  workload::CrashRecoveryConfig config;
  config.dir = TestDir("bg_checkpoint");
  config.crash_after_ops = 1u << 30;
  config.checkpoint_interval_statements = 150;
  auto r = workload::RunKillRecover(config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().mismatches, 0u);
}

// --- sharded persist -> recover ----------------------------------------

Status LoadShardedFixture(core::ShardedSvrEngine* engine, int docs) {
  SVR_RETURN_NOT_OK(engine->CreateTable(
      "docs",
      Schema({{"id", ValueType::kInt64}, {"text", ValueType::kString}}, 0)));
  SVR_RETURN_NOT_OK(engine->CreateTable(
      "scores",
      Schema({{"id", ValueType::kInt64}, {"val", ValueType::kDouble}}, 0)));
  for (int d = 0; d < docs; ++d) {
    const std::string text =
        "w" + std::to_string(d % 7) + " w" + std::to_string(d % 13) +
        " common";
    SVR_RETURN_NOT_OK(
        engine->Insert("docs", {Value::Int(d), Value::String(text)}));
    SVR_RETURN_NOT_OK(engine->Insert(
        "scores", {Value::Int(d), Value::Double(1000.0 - d)}));
  }
  SVR_RETURN_NOT_OK(engine->CreateTextIndex(
      "docs", "text",
      {{"S1", "scores", "id", "val", relational::AggregateKind::kValue}},
      relational::AggFunction::WeightedSum({1.0})));
  // Post-index churn so the WAL holds every statement kind.
  for (int d = 0; d < docs; d += 5) {
    SVR_RETURN_NOT_OK(engine->Update(
        "scores", {Value::Int(d), Value::Double(5000.0 + d)}));
  }
  for (int d = 3; d < docs; d += 11) {
    SVR_RETURN_NOT_OK(engine->Delete("docs", d));
  }
  return Status::OK();
}

std::vector<std::pair<int64_t, double>> TopDocs(
    core::ShardedSvrEngine* engine, const std::string& q, size_t k) {
  auto r = engine->Search(q, k);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::pair<int64_t, double>> out;
  if (!r.ok()) return out;
  for (const auto& row : r.value()) out.emplace_back(row.pk, row.score);
  return out;
}

TEST(ShardedRecoveryTest, RecoversAcrossRestartEvenWithDifferentShardCount) {
  const std::string dir = TestDir("sharded");
  constexpr int kDocs = 120;
  std::vector<std::pair<int64_t, double>> before;
  {
    auto r = core::ShardedSvrEngine::Open(ShardedDurableOptions(dir, 3));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto engine = std::move(r).value();
    ASSERT_TRUE(LoadShardedFixture(engine.get(), kDocs).ok());
    ASSERT_TRUE(engine->CheckpointNow().ok());
    // More churn after the checkpoint: recovery must stitch checkpoint
    // + WAL suffix together.
    for (int d = 1; d < kDocs; d += 9) {
      if (d % 11 == 3) continue;  // deleted above
      ASSERT_TRUE(engine
                      ->Update("scores",
                               {Value::Int(d), Value::Double(9000.0 + d)})
                      .ok());
    }
    before = TopDocs(engine.get(), "common", 15);
    engine->Stop();
  }
  ASSERT_FALSE(before.empty());
  for (uint32_t shards : {3u, 5u}) {
    auto r =
        core::ShardedSvrEngine::Open(ShardedDurableOptions(dir, shards));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto engine = std::move(r).value();
    EXPECT_TRUE(engine->recovery_stats().used_checkpoint);
    EXPECT_EQ(TopDocs(engine.get(), "common", 15), before)
        << "shards=" << shards;
    // The recovered engine keeps working: route a fresh insert.
    const Status fresh = engine->Insert(
        "docs", {Value::Int(100000 + shards), Value::String("common")});
    ASSERT_TRUE(fresh.ok()) << "shards=" << shards << ": "
                            << fresh.ToString();
    engine->Stop();
    // Leave the directory as this instance wrote it for the next count.
  }
}

TEST(ShardedRecoveryTest, KillAndRecoverMidChurn) {
  const std::string dir = TestDir("sharded_kill");
  auto injector = std::make_shared<FaultInjector>();
  core::ShardedSvrEngineOptions options = ShardedDurableOptions(dir, 3);
  options.durability.file_factory =
      durability::FaultInjectingFactory(injector);
  constexpr int kDocs = 100;
  uint64_t acked = 0;
  {
    auto r = core::ShardedSvrEngine::Open(options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto engine = std::move(r).value();
    ASSERT_TRUE(LoadShardedFixture(engine.get(), kDocs).ok());
    injector->FailAfter(FaultInjector::Op::kWrite, 120,
                        /*short_write=*/true);
    for (int d = 0;; d = (d + 1) % kDocs) {
      if (d % 11 == 3) continue;
      const Status st = engine->Update(
          "scores",
          {Value::Int(d), Value::Double(100.0 + acked)});
      if (!st.ok()) break;
      ++acked;
      ASSERT_LT(acked, 100000u) << "injector never tripped";
    }
    ASSERT_TRUE(injector->crashed());
    engine->Stop();
  }
  injector->Reset();
  auto r = core::ShardedSvrEngine::Open(options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto engine = std::move(r).value();
  const auto& stats = engine->recovery_stats();
  // Setup statements: 3 DDL + 2*kDocs inserts + kDocs/5 updates +
  // ceil((kDocs-3)/11) deletes; every acked churn op must be there too.
  const uint64_t setup = 3 + 2ull * kDocs + (kDocs + 4) / 5 + 9;
  EXPECT_GE(stats.recovered_seq, setup + acked);
  engine->Stop();
}

// --- the kill-and-recover sweep ----------------------------------------

/// >= 20 randomized crash points across all five query methods and every
/// fault class: WAL write, WAL fsync, torn (short) write, mid-checkpoint,
/// background-checkpoint races. Every run must recover all acked ops and
/// answer queries exactly like the shadow replay AND the brute-force
/// oracle. This is the acceptance gate of the durability subsystem.
TEST(KillRecoverSweepTest, AllMethodsAllFaultClasses) {
  const index::Method kMethods[] = {
      index::Method::kId,          index::Method::kIdTermScore,
      index::Method::kChunk,       index::Method::kChunkTermScore,
      index::Method::kScoreThreshold,
  };
  struct FaultCase {
    FaultInjector::Op op;
    uint64_t after;
    bool short_write;
    uint32_t checkpoint_after;
  };
  const FaultCase kFaults[] = {
      {FaultInjector::Op::kWrite, 17, false, 0},   // early WAL write
      {FaultInjector::Op::kWrite, 173, true, 0},   // torn frame tail
      {FaultInjector::Op::kSync, 61, false, 0},    // fsync death
      {FaultInjector::Op::kWrite, 140, false, 60}, // mid/near checkpoint
  };
  int crashes = 0;
  for (index::Method method : kMethods) {
    for (size_t f = 0; f < sizeof(kFaults) / sizeof(kFaults[0]); ++f) {
      const FaultCase& fault = kFaults[f];
      workload::CrashRecoveryConfig config;
      config.dir = TestDir("sweep");
      config.method = method;
      config.seed = 2005 + 37 * f +
                    static_cast<uint64_t>(method) * 1009;
      config.crash_op = fault.op;
      config.crash_after_ops = fault.after;
      config.short_write = fault.short_write;
      config.checkpoint_after_ops = fault.checkpoint_after;
      auto r = workload::RunKillRecover(config);
      ASSERT_TRUE(r.ok())
          << index::MethodName(method) << " fault " << f << ": "
          << r.status().ToString();
      const auto& result = r.value();
      EXPECT_TRUE(result.crashed)
          << index::MethodName(method) << " fault " << f
          << " never tripped";
      EXPECT_EQ(result.mismatches, 0u)
          << index::MethodName(method) << " fault " << f;
      EXPECT_GT(result.oracle_checks, 0u);
      EXPECT_GE(result.recovered_ops, result.acked_ops);
      if (result.crashed) ++crashes;
    }
  }
  EXPECT_GE(crashes, 20);
}

// Regression (PR 7 static-analysis sweep): last_checkpoint_error() used
// to reach ckpt_mu_ through a const_cast on a plain std::mutex — legal
// by accident, invisible to any checker. It now takes a real MutexLock
// on a mutable annotated Mutex; this polls it from other threads while
// the checkpointer runs against live DML, so the TSan/ASan legs cover
// the access pattern the const_cast hid.
TEST(EngineLifecycleTest, CheckpointErrorReadableWhileCheckpointing) {
  core::ShardedSvrEngineOptions options =
      ShardedDurableOptions(TestDir("ckpt_error_probe"), 1);
  options.durability.checkpoint_interval_statements = 25;
  options.durability.checkpoint_poll_ms = 1;
  auto r = core::ShardedSvrEngine::Open(options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto engine = std::move(r).value();
  ASSERT_TRUE(engine
                  ->CreateTable("t", Schema({{"id", ValueType::kInt64}}, 0))
                  .ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> probes;
  for (int t = 0; t < 2; ++t) {
    probes.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EXPECT_TRUE(engine->last_checkpoint_error().ok());
      }
    });
  }
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(engine->Insert("t", {Value::Int(i)}).ok());
  }
  ASSERT_TRUE(engine->CheckpointNow().ok());
  stop.store(true, std::memory_order_relaxed);
  for (auto& p : probes) p.join();
  EXPECT_TRUE(engine->last_checkpoint_error().ok());
  engine->Stop();
}

// --- fuzz-derived properties (fuzz/fuzz_wal_frame.cc) -------------------
//
// The WAL fuzz harness checks these as trap-on-violation invariants; the
// tests below pin the same contract in the regular suite with the
// harness's deterministic mutator, so a decoder regression fails tier-1
// without needing the fuzz leg.

TEST(WalFuzzPropertyTest, FramedPayloadScansExactlyOrRejects) {
  // Any byte string framed as a payload either replays as one record
  // (payload parses) or stops the scan with kCorruption — never a
  // partial read, never a crash.
  uint64_t rng = 0x5eedf00ddeadbeefULL;
  std::string payload;
  {
    WalStatement s;
    s.kind = StatementKind::kInsert;
    s.seq = 9;
    s.table = "docs";
    durability::EncodeStatement(s, &payload);
  }
  for (int i = 0; i < 500; ++i) {
    svr::fuzz::Mutate(&payload, &rng);
    std::string framed;
    AppendFrame(&framed, Slice(payload));
    ASSERT_EQ(durability::FramedSize(payload.size()), framed.size());
    WalStatement decoded;
    const Status decode_st =
        durability::DecodeStatement(Slice(payload), &decoded);
    WalScan full;
    ScanWal(Slice(framed), &full);
    if (decode_st.ok()) {
      EXPECT_TRUE(full.tail.ok());
      EXPECT_EQ(full.records.size(), 1u);
      EXPECT_EQ(full.clean_bytes, framed.size());
    } else {
      EXPECT_TRUE(full.tail.IsCorruption());
      EXPECT_TRUE(full.records.empty());
    }
  }
}

TEST(WalFuzzPropertyTest, TornFramePrefixIsNeverCorruption) {
  // A strict byte prefix of a single frame can tear it but must never
  // mis-checksum it: the scan reports a clean empty log or kDataLoss.
  std::string payload = "arbitrary payload bytes \x00\x7f\xff";
  std::string framed;
  AppendFrame(&framed, Slice(payload));
  for (size_t cut = 0; cut < framed.size(); ++cut) {
    WalScan scan;
    ScanWal(Slice(framed.data(), cut), &scan);
    EXPECT_TRUE(scan.tail.ok() || scan.tail.IsDataLoss()) << "cut=" << cut;
    EXPECT_TRUE(scan.records.empty()) << "cut=" << cut;
    EXPECT_EQ(scan.clean_bytes, 0u) << "cut=" << cut;
  }
}

TEST(WalFuzzPropertyTest, MutatedLogScanStaysInBounds) {
  // clean_bytes never exceeds the input, and every accepted record
  // re-encodes (checkpoints re-emit recovered statements verbatim).
  std::string log;
  for (const WalStatement& s : SampleStatements()) {
    std::string payload;
    durability::EncodeStatement(s, &payload);
    AppendFrame(&log, Slice(payload));
  }
  uint64_t rng = 0x0123456789abcdefULL;
  for (int i = 0; i < 500; ++i) {
    std::string mutated = log;
    for (int s = 0; s < 1 + i % 8; ++s) svr::fuzz::Mutate(&mutated, &rng);
    WalScan scan;
    ScanWal(Slice(mutated), &scan);
    ASSERT_LE(scan.clean_bytes, mutated.size());
    for (const WalStatement& r : scan.records) {
      std::string reencoded;
      durability::EncodeStatement(r, &reencoded);
      EXPECT_FALSE(reencoded.empty());
    }
  }
}

}  // namespace
}  // namespace svr::test
