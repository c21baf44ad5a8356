// Telemetry tests (docs/observability.md):
//  - Log-bucketed histogram invariants: bucket boundaries and the
//    <=6.25% quantization bound, empty snapshots, merge associativity,
//    and a multi-threaded ShardedHistogram fold equal to a
//    single-threaded reference over the same values.
//  - The metrics registry's JSON and Prometheus dumps, including
//    additive gauge registration.
//  - Engine plumbing, all through ShardedSvrEngine (the one telemetry
//    lifecycle owner; one shard = the single-node setup): a traced
//    Search returns result-for-result what an untraced one does with one
//    span per shard, slow queries land in the ring with a complete stage
//    trace, DumpMetrics round-trips both formats, the periodic dump
//    stops with the engine, and a durable engine records its WAL-wait
//    and checkpoint histograms. (A TSan target in ci.sh.)

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/sharded_engine.h"
#include "telemetry/histogram.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/query_trace.h"
#include "telemetry/slow_query_log.h"
#include "workload/concurrent_driver.h"
#include "workload/crash_driver.h"

namespace svr {
namespace {

using telemetry::HistBucketIndex;
using telemetry::HistBucketUpperBound;
using telemetry::HistogramSnapshot;
using telemetry::LocalHistogram;
using telemetry::ShardedHistogram;

// --- bucket scheme -----------------------------------------------------

TEST(HistogramBucketsTest, LinearRangeIsExact) {
  for (uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(HistBucketIndex(v), static_cast<size_t>(v));
    EXPECT_EQ(HistBucketUpperBound(static_cast<size_t>(v)), v);
  }
}

TEST(HistogramBucketsTest, IndexIsMonotoneAndBoundsAreTight) {
  size_t prev = 0;
  for (uint64_t v = 0; v < 100000; v += 13) {
    const size_t b = HistBucketIndex(v);
    EXPECT_GE(b, prev) << "index must be monotone in v (v=" << v << ")";
    prev = b;
    const uint64_t upper = HistBucketUpperBound(b);
    EXPECT_GE(upper, v) << "reported edge must never understate v";
    EXPECT_EQ(HistBucketIndex(upper), b)
        << "upper edge must map back to its own bucket";
    if (v >= 32) {
      // The sub-bucket split bounds relative quantization error by 1/16.
      EXPECT_LE(static_cast<double>(upper - v), static_cast<double>(v) / 16.0 + 1.0)
          << "v=" << v << " upper=" << upper;
    }
  }
}

TEST(HistogramBucketsTest, HugeValuesClampIntoLastBucket) {
  const size_t last = telemetry::kHistNumBuckets - 1;
  EXPECT_EQ(HistBucketIndex(~0ull), last);
  LocalHistogram h;
  h.Record(~0ull);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.max, ~0ull) << "max keeps the true value past the clamp";
}

// --- snapshots and merging --------------------------------------------

TEST(HistogramSnapshotTest, EmptySnapshot) {
  LocalHistogram h;
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.ValueAtPercentile(50.0), 0u);
  // Merging an empty snapshot is the identity.
  HistogramSnapshot other;
  other.Merge(s);
  EXPECT_TRUE(other.empty());
}

TEST(HistogramSnapshotTest, MergeIsAssociativeAndEqualsOneBigFold) {
  Random rng(11);
  LocalHistogram a, b, c, all;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t v = rng.Uniform(1u << 20);
    all.Record(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).Record(v);
  }
  HistogramSnapshot left = a.Snapshot();   // (a + b) + c
  left.Merge(b.Snapshot());
  left.Merge(c.Snapshot());
  HistogramSnapshot bc = b.Snapshot();     // a + (b + c)
  bc.Merge(c.Snapshot());
  HistogramSnapshot right = a.Snapshot();
  right.Merge(bc);
  const HistogramSnapshot ref = all.Snapshot();
  for (const HistogramSnapshot* s : {&left, &right}) {
    EXPECT_EQ(s->count, ref.count);
    EXPECT_EQ(s->sum, ref.sum);
    EXPECT_EQ(s->max, ref.max);
    EXPECT_EQ(s->buckets, ref.buckets);
  }
}

TEST(HistogramSnapshotTest, PercentilesWithinQuantizationBound) {
  LocalHistogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  for (double p : {50.0, 95.0, 99.0}) {
    const uint64_t exact = static_cast<uint64_t>(p / 100.0 * 10000.0);
    const uint64_t got = s.ValueAtPercentile(p);
    EXPECT_GE(got, exact) << "p" << p;
    EXPECT_LE(static_cast<double>(got),
              static_cast<double>(exact) * (1.0 + 1.0 / 16.0) + 1.0)
        << "p" << p;
  }
  EXPECT_EQ(s.ValueAtPercentile(100.0), s.ValueAtPercentile(99.999));
}

TEST(ShardedHistogramTest, ConcurrentRecordMatchesSingleThreadReference) {
  // N threads hammer one ShardedHistogram with deterministic per-thread
  // streams; a LocalHistogram records the identical multiset single-
  // threaded. The folds must agree exactly — nothing lost, nothing
  // double-counted.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  ShardedHistogram sharded;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sharded, t] {
      Random rng(1000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        sharded.Record(rng.Uniform(1u << 22));
      }
    });
  }
  for (auto& t : threads) t.join();

  LocalHistogram reference;
  for (int t = 0; t < kThreads; ++t) {
    Random rng(1000 + t);
    for (int i = 0; i < kPerThread; ++i) {
      reference.Record(rng.Uniform(1u << 22));
    }
  }
  const HistogramSnapshot got = sharded.Snapshot();
  const HistogramSnapshot want = reference.Snapshot();
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.sum, want.sum);
  EXPECT_EQ(got.max, want.max);
  EXPECT_EQ(got.buckets, want.buckets);
}

// --- registry dumps ----------------------------------------------------

TEST(MetricsRegistryTest, JsonAndPrometheusDumps) {
  telemetry::MetricsRegistry reg;
  reg.GetCounter("test.ops")->Increment(7);
  reg.GetHistogram("test.latency_us")->Record(100);
  reg.GetHistogram("test.latency_us")->Record(200);
  // Additive gauges: two registrations under one name sum at dump time
  // (how per-shard engines sharing a registry aggregate).
  reg.RegisterGauge("test.depth", [] { return 2.0; });
  reg.RegisterGauge("test.depth", [] { return 3.0; });

  const std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.ops\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"test.depth\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"test.latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 300"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);

  const std::string prom = reg.DumpPrometheus();
  EXPECT_NE(prom.find("# TYPE svr_test_ops counter"), std::string::npos);
  EXPECT_NE(prom.find("svr_test_ops 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE svr_test_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("svr_test_depth 5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE svr_test_latency_us summary"),
            std::string::npos);
  EXPECT_NE(prom.find("svr_test_latency_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("svr_test_latency_us_count 2"), std::string::npos);
}

TEST(MetricsRegistryTest, PeriodicDumpDeliversAndStops) {
  telemetry::MetricsRegistry reg;
  reg.GetCounter("tick")->Increment();
  std::atomic<int> dumps{0};
  reg.StartPeriodicDump(5, telemetry::DumpFormat::kJson,
                        [&dumps](const std::string& s) {
                          EXPECT_NE(s.find("\"tick\""), std::string::npos);
                          dumps.fetch_add(1);
                        });
  while (dumps.load() < 2) std::this_thread::yield();
  reg.StopPeriodicDump();
  const int after_stop = dumps.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(dumps.load(), after_stop) << "no dumps after stop";
}

// --- slow-query log ----------------------------------------------------

TEST(SlowQueryLogTest, ThresholdAndRingEviction) {
  telemetry::SlowQueryLog log(/*capacity=*/2, /*threshold_us=*/100);
  telemetry::QueryTrace t;
  t.total_us = 99;
  EXPECT_FALSE(log.MaybeRecord(t));
  for (uint64_t us : {100, 200, 300}) {
    t.total_us = us;
    t.keywords = "q" + std::to_string(us);
    EXPECT_TRUE(log.MaybeRecord(t));
  }
  EXPECT_EQ(log.total_recorded(), 3u);
  const auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u) << "capacity evicts oldest";
  EXPECT_EQ(entries[0].keywords, "q200");
  EXPECT_EQ(entries[1].keywords, "q300");
}

// --- engine plumbing ---------------------------------------------------
// Every engine here is a ShardedSvrEngine — the one telemetry lifecycle
// owner; one shard is the single-node setup.

workload::ConcurrentChurnConfig SmallConfig() {
  workload::ConcurrentChurnConfig cfg;
  cfg.initial_docs = 400;
  cfg.vocab = 300;
  cfg.terms_per_doc = 12;
  return cfg;
}

std::unique_ptr<core::ShardedSvrEngine> OpenEngine(
    const core::ShardedSvrEngineOptions& opt) {
  auto engine_r = workload::SetupShardedChurnEngine(opt, SmallConfig());
  EXPECT_TRUE(engine_r.ok()) << engine_r.status().ToString();
  return engine_r.ok() ? std::move(engine_r).value() : nullptr;
}

TEST(EngineTelemetryTest, SlowQueryLandsInLogWithCompleteTrace) {
  core::ShardedSvrEngineOptions opt;
  opt.shard.telemetry.enabled = true;
  // Threshold 0: every query "crosses" it, so the capture path is
  // exercised deterministically.
  opt.shard.telemetry.slow_query_threshold_us = 0;
  opt.shard.telemetry.slow_query_log_capacity = 4;
  auto engine = OpenEngine(opt);
  ASSERT_NE(engine, nullptr);

  auto r = engine->Search("t1 t2", 5);
  ASSERT_TRUE(r.ok());
  telemetry::SlowQueryLog* log = engine->slow_query_log();
  ASSERT_NE(log, nullptr);
  EXPECT_EQ(log->total_recorded(), 1u) << "one query, one capture";
  const auto entries = log->Entries();
  ASSERT_FALSE(entries.empty());
  const telemetry::QueryTrace& t = entries.back();
  EXPECT_EQ(t.keywords, "t1 t2");
  EXPECT_EQ(t.k, 5u);
  EXPECT_EQ(t.results, r.value().size());
  EXPECT_EQ(t.shards.size(), 1u);
  EXPECT_FALSE(t.ToString().empty());
  // The slow counter moved with it; shards keep no slow log of their own.
  const std::string json = engine->DumpMetrics(telemetry::DumpFormat::kJson);
  EXPECT_NE(json.find("\"sharded.query.slow\""), std::string::npos);
  EXPECT_EQ(json.find("\"query.slow\""), std::string::npos);
  engine->Stop();
}

TEST(EngineTelemetryTest, DumpMetricsRoundTripsBothFormats) {
  core::ShardedSvrEngineOptions opt;
  opt.shard.telemetry.enabled = true;
  auto engine = OpenEngine(opt);
  ASSERT_NE(engine, nullptr);
  ASSERT_TRUE(engine->Search("t1", 10).ok());

  const std::string json = engine->DumpMetrics(telemetry::DumpFormat::kJson);
  for (const char* key :
       {"\"histograms\"", "\"query.total_us\"", "\"sharded.query_total_us\"",
        "\"dml.apply_us\"", "\"dml.publish_us\"",
        "\"epoch.reclaim_pending\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  const std::string prom =
      engine->DumpMetrics(telemetry::DumpFormat::kPrometheus);
  for (const char* key :
       {"# TYPE svr_query_total_us summary", "svr_query_total_us_count",
        "# TYPE svr_epoch_reclaim_pending gauge"}) {
    EXPECT_NE(prom.find(key), std::string::npos) << key;
  }
  engine->Stop();
}

TEST(EngineTelemetryTest, DisabledTelemetryHasNoSurface) {
  auto engine = OpenEngine({});  // telemetry off by default
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->metrics_registry(), nullptr);
  EXPECT_EQ(engine->slow_query_log(), nullptr);
  EXPECT_TRUE(engine->DumpMetrics(telemetry::DumpFormat::kJson).empty());
  // A trace passed anyway is still filled (caller opted in explicitly).
  telemetry::QueryTrace trace;
  auto r = engine->Search("t1 t2", 10, true, &trace);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(trace.keywords, "t1 t2");
  EXPECT_EQ(trace.results, r.value().size());
  engine->Stop();
}

// A traced Search returns result-for-result what an untraced one does,
// with one span per shard, at every shard count.
class ShardedTraceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ShardedTraceTest, TraceCarriesOneSpanPerShard) {
  const uint32_t shards = GetParam();
  core::ShardedSvrEngineOptions opt;
  opt.num_shards = shards;
  opt.shard.telemetry.enabled = true;
  opt.shard.telemetry.slow_query_threshold_us = 0;
  auto engine = OpenEngine(opt);
  ASSERT_NE(engine, nullptr);

  for (const std::string q : {"t1 t2", "t3", "t0 t1 t4"}) {
    auto plain = engine->Search(q, 10);
    telemetry::QueryTrace trace;
    auto traced = engine->Search(q, 10, true, &trace);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();
    const auto& a = plain.value();
    const auto& b = traced.value();
    ASSERT_EQ(a.size(), b.size()) << q;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].pk, b[i].pk) << q << " @" << i;
      EXPECT_EQ(a[i].score, b[i].score) << q << " @" << i;
    }
    EXPECT_EQ(trace.keywords, q);
    EXPECT_EQ(trace.k, 10u);
    EXPECT_EQ(trace.results, b.size());
    EXPECT_GE(trace.total_us, trace.gather_us + trace.join_us) << q;
    ASSERT_EQ(trace.shards.size(), shards);
    uint64_t span_hits = 0;
    for (size_t s = 0; s < trace.shards.size(); ++s) {
      EXPECT_EQ(trace.shards[s].shard, s);
      span_hits += trace.shards[s].hits;
    }
    EXPECT_GE(span_hits, trace.results)
        << "shards offer at least what the gather kept";
  }

  // The end-to-end queries crossed the zero threshold.
  ASSERT_NE(engine->slow_query_log(), nullptr);
  EXPECT_EQ(engine->slow_query_log()->total_recorded(), 6u);
  // One registry serves shards and the sharded layer.
  const std::string json = engine->DumpMetrics(telemetry::DumpFormat::kJson);
  EXPECT_NE(json.find("\"sharded.query_total_us\""), std::string::npos);
  EXPECT_NE(json.find("\"sharded.scatter_shard_us\""), std::string::npos);
  EXPECT_NE(json.find("\"query.total_us\""), std::string::npos)
      << "per-shard instruments share the registry";
  engine->Stop();
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedTraceTest,
                         ::testing::Values(1u, 3u));

// The periodic dump belongs to the engine that started it: the sink
// fires while the engine runs and never again once Stop() returns.
TEST(ShardedTelemetryTest, PeriodicDumpStopsWithEngine) {
  std::atomic<int> dumps{0};
  core::ShardedSvrEngineOptions opt;
  opt.shard.telemetry.enabled = true;
  opt.shard.telemetry.dump_interval_ms = 5;
  opt.shard.telemetry.dump_sink = [&dumps](const std::string& s) {
    EXPECT_NE(s.find("\"epoch.reclaim_pending\""), std::string::npos);
    dumps.fetch_add(1);
  };
  auto engine = OpenEngine(opt);
  ASSERT_NE(engine, nullptr);
  while (dumps.load() < 2) {
    ASSERT_TRUE(engine->Search("t1 t2", 10).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine->Stop();
  const int after_stop = dumps.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(dumps.load(), after_stop) << "no dumps after Stop()";
}

// The WAL histograms live at the durability owner: a durable 1-shard
// engine records the group-commit wait of every logged statement and
// the duration of every checkpoint.
TEST(ShardedTelemetryTest, DurableEngineRecordsWalWaitAndCheckpoint) {
  const std::string dir = "telemetry_test_durable";
  ASSERT_TRUE(workload::WipeDirectory(dir).ok());
  core::ShardedSvrEngineOptions opt;
  opt.shard.telemetry.enabled = true;
  opt.durability.enabled = true;
  opt.durability.dir = dir;
  auto engine = OpenEngine(opt);
  ASSERT_NE(engine, nullptr);
  ASSERT_TRUE(engine
                  ->Update("scores", {relational::Value::Int(0),
                                      relational::Value::Double(42.0)})
                  .ok());
  ASSERT_TRUE(engine->CheckpointNow().ok());

  telemetry::MetricsRegistry* registry = engine->metrics_registry();
  ASSERT_NE(registry, nullptr);
  for (const char* name : {"dml.wait_durable_us", "checkpoint.duration_us"}) {
    EXPECT_GT(registry->GetHistogram(name)->Snapshot().count, 0u) << name;
  }
  engine->Stop();
  EXPECT_TRUE(workload::WipeDirectory(dir).ok());
}

TEST(ShardedTelemetryTest, StatsTotalsSumEveryField) {
  core::ShardedSvrEngineOptions opt;
  opt.num_shards = 3;
  auto engine = OpenEngine(opt);
  ASSERT_NE(engine, nullptr);
  for (const std::string q : {"t1 t2", "t0", "t3 t4"}) {
    ASSERT_TRUE(engine->Search(q, 10).ok());
  }
  const core::ShardedEngineStats stats = engine->GetStats();
  ASSERT_EQ(stats.shards.size(), 3u);
  // Field-wise: the total of every u64 counter — including the cursor
  // counters the old hand-written sum dropped — equals the shard sum.
  index::IndexStats want;
  for (const core::EngineStats& s : stats.shards) {
#define SVR_INDEX_STATS_SUM(name) want.name += s.index.name;
    SVR_INDEX_STATS_FIELDS(SVR_INDEX_STATS_SUM)
#undef SVR_INDEX_STATS_SUM
  }
#define SVR_INDEX_STATS_CHECK(name) \
  EXPECT_EQ(stats.total.index.name, want.name) << #name;
  SVR_INDEX_STATS_FIELDS(SVR_INDEX_STATS_CHECK)
#undef SVR_INDEX_STATS_CHECK
  EXPECT_GT(stats.total.index.queries, 0u);
  engine->Stop();
}

}  // namespace
}  // namespace svr
