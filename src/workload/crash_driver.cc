#include "workload/crash_driver.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "core/sharded_engine.h"
#include "durability/checkpoint.h"
#include "workload/concurrent_driver.h"
#include "workload/score_generator.h"

namespace svr::workload {

namespace {

std::string MakeToken(size_t rank) { return "t" + std::to_string(rank); }

std::string MakeDocText(const ZipfDistribution& terms, uint32_t n,
                        Random* rng) {
  std::string text;
  for (uint32_t i = 0; i < n; ++i) {
    if (!text.empty()) text.push_back(' ');
    text += MakeToken(terms.Sample(rng));
  }
  return text;
}

double DrawScore(const CrashRecoveryConfig& config, Random* rng) {
  return config.max_score /
         std::pow(1.0 + rng->Uniform(1000), config.score_zipf);
}

/// The full deterministic workload: setup rows (applied before the
/// injector arms) and the churn script (one engine statement per entry,
/// valid by construction so every statement succeeds on a healthy
/// engine — which makes "ops applied" equal "statements executed" and
/// lets the shadow replay cut the script at an exact statement count).
struct Script {
  std::vector<std::string> doc_texts;  // setup: docs 0..initial_docs-1
  std::vector<double> doc_scores;
  std::vector<CrashOp> churn;
};

Script GenerateScript(const CrashRecoveryConfig& config, bool with_ts) {
  Script script;
  Random rng(config.seed);
  ZipfDistribution terms(config.vocab, config.term_zipf);
  script.doc_texts.reserve(config.initial_docs);
  for (uint32_t d = 0; d < config.initial_docs; ++d) {
    script.doc_texts.push_back(
        MakeDocText(terms, config.terms_per_doc, &rng));
  }
  script.doc_scores = GenerateScores(config.initial_docs, config.max_score,
                                     config.score_zipf, config.seed);

  // Same stale-term-score carve-out as RunShardedChurn: content
  // updates under a *-TermScore method leave build-time term scores
  // stale by design, so redirect that share into score churn.
  const double content_pct = with_ts ? 0.0 : config.content_pct;

  using relational::Value;
  Random churn_rng(config.seed ^ 0xD00D5ull);
  std::vector<bool> alive(config.initial_docs, true);
  uint32_t live_count = config.initial_docs;
  auto pick_alive = [&]() -> int64_t {
    if (live_count == 0) return -1;
    for (int tries = 0; tries < 64; ++tries) {
      const size_t d = churn_rng.Uniform(alive.size());
      if (alive[d]) return static_cast<int64_t>(d);
    }
    return -1;
  };
  script.churn.reserve(config.churn_ops);
  while (script.churn.size() < config.churn_ops) {
    const double roll = churn_rng.NextDouble() * 100.0;
    CrashOp op;
    if (roll < config.insert_pct) {
      const int64_t id = static_cast<int64_t>(alive.size());
      op.kind = CrashOp::Kind::kInsert;
      op.table = "docs";
      op.row = {Value::Int(id),
                Value::String(MakeDocText(terms, config.terms_per_doc,
                                          &churn_rng))};
      script.churn.push_back(std::move(op));
      CrashOp score_op;
      score_op.kind = CrashOp::Kind::kInsert;
      score_op.table = "scores";
      score_op.row = {Value::Int(id),
                      Value::Double(DrawScore(config, &churn_rng))};
      script.churn.push_back(std::move(score_op));
      alive.push_back(true);
      ++live_count;
    } else if (roll < config.insert_pct + config.delete_pct) {
      const int64_t id = pick_alive();
      if (id < 0) continue;
      op.kind = CrashOp::Kind::kDelete;
      op.table = "docs";
      op.pk = id;
      script.churn.push_back(std::move(op));
      alive[id] = false;
      --live_count;
    } else if (roll < config.insert_pct + config.delete_pct + content_pct) {
      const int64_t id = pick_alive();
      if (id < 0) continue;
      op.kind = CrashOp::Kind::kUpdate;
      op.table = "docs";
      op.row = {Value::Int(id),
                Value::String(MakeDocText(terms, config.terms_per_doc,
                                          &churn_rng))};
      script.churn.push_back(std::move(op));
    } else {
      const int64_t id = pick_alive();
      if (id < 0) continue;
      op.kind = CrashOp::Kind::kUpdate;
      op.table = "scores";
      op.row = {Value::Int(id),
                Value::Double(DrawScore(config, &churn_rng))};
      script.churn.push_back(std::move(op));
    }
  }
  return script;
}

Status ApplyOp(core::ShardedSvrEngine* engine, const CrashOp& op) {
  switch (op.kind) {
    case CrashOp::Kind::kInsert:
      return engine->Insert(op.table, op.row);
    case CrashOp::Kind::kUpdate:
      return engine->Update(op.table, op.row);
    case CrashOp::Kind::kDelete:
      return engine->Delete(op.table, op.pk);
  }
  return Status::InvalidArgument("unknown op kind");
}

/// Creates the churn schema, loads the setup rows and builds the index.
/// Exactly 3 + 2 * initial_docs statements — the count the driver uses
/// to convert recovered_seq into a churn-script position.
Status SetupEngine(core::ShardedSvrEngine* engine,
                   const CrashRecoveryConfig& config, const Script& script) {
  using relational::Schema;
  using relational::Value;
  using relational::ValueType;
  SVR_RETURN_NOT_OK(engine->CreateTable(
      "docs",
      Schema({{"id", ValueType::kInt64}, {"text", ValueType::kString}}, 0)));
  SVR_RETURN_NOT_OK(engine->CreateTable(
      "scores",
      Schema({{"id", ValueType::kInt64}, {"val", ValueType::kDouble}}, 0)));
  for (uint32_t d = 0; d < config.initial_docs; ++d) {
    SVR_RETURN_NOT_OK(engine->Insert(
        "docs", {Value::Int(d), Value::String(script.doc_texts[d])}));
    SVR_RETURN_NOT_OK(engine->Insert(
        "scores", {Value::Int(d), Value::Double(script.doc_scores[d])}));
  }
  return engine->CreateTextIndex(
      "docs", "text",
      {{"S1", "scores", "id", "val", relational::AggregateKind::kValue}},
      relational::AggFunction::WeightedSum({1.0}));
}

}  // namespace

Status WipeDirectory(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Status::OK();  // nothing to wipe
  std::vector<std::string> paths;
  while (struct dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    paths.push_back(dir + "/" + name);
  }
  ::closedir(d);
  for (const std::string& path : paths) {
    SVR_RETURN_NOT_OK(durability::RemoveFile(path));
  }
  return Status::OK();
}

Result<CrashRecoveryResult> RunKillRecover(
    const CrashRecoveryConfig& config) {
  CrashRecoveryResult out;
  const bool with_ts = index::MethodName(config.method).find("TermScore") !=
                       std::string::npos;
  const Script script = GenerateScript(config, with_ts);
  const uint64_t setup_stmts = 3 + 2ull * config.initial_docs;

  SVR_RETURN_NOT_OK(WipeDirectory(config.dir));
  auto injector = std::make_shared<durability::FaultInjector>();

  // One shard: the single-node durable engine (docs/durability.md).
  core::ShardedSvrEngineOptions options;
  options.shard.method = config.method;
  options.durability.enabled = true;
  options.durability.dir = config.dir;
  options.durability.checkpoint_interval_statements =
      config.checkpoint_interval_statements;
  options.durability.file_factory =
      durability::FaultInjectingFactory(injector);

  // --- phase 1: load, arm, churn until the machine dies ---------------
  {
    SVR_ASSIGN_OR_RETURN(auto engine, core::ShardedSvrEngine::Open(options));
    SVR_RETURN_NOT_OK(SetupEngine(engine.get(), config, script));
    injector->FailAfter(config.crash_op, config.crash_after_ops,
                        config.short_write);
    for (size_t i = 0; i < script.churn.size(); ++i) {
      if (config.checkpoint_after_ops != 0 &&
          out.acked_ops == config.checkpoint_after_ops) {
        // A failure here is the injected crash landing mid-checkpoint —
        // exactly the artifact recovery must shrug off.
        (void)engine->CheckpointNow();
        if (injector->crashed()) break;
      }
      const Status st = ApplyOp(engine.get(), script.churn[i]);
      if (!st.ok()) break;  // machine death: nothing acks after this
      ++out.acked_ops;
    }
    out.crashed = injector->crashed();
    // The dead engine is discarded; recovery sees only the disk bytes.
    // (Stop flushes nothing extra — the injector fails all IO.)
  }

  // --- phase 2: heal the device, recover --------------------------------
  injector->Reset();
  SVR_ASSIGN_OR_RETURN(auto recovered,
                       core::ShardedSvrEngine::Open(options));
  out.recovery = recovered->recovery_stats();
  if (out.recovery.recovered_seq < setup_stmts + out.acked_ops) {
    return Status::DataLoss(
        "durability contract broken: acked ops lost (recovered_seq=" +
        std::to_string(out.recovery.recovered_seq) + ", acked=" +
        std::to_string(setup_stmts + out.acked_ops) + ")");
  }
  out.recovered_ops = out.recovery.recovered_seq - setup_stmts;
  if (out.recovered_ops > script.churn.size()) {
    return Status::Internal("recovered more statements than were issued");
  }

  // --- phase 3: shadow replay + oracle validation ----------------------
  core::ShardedSvrEngineOptions shadow_options;
  shadow_options.shard.method = config.method;
  SVR_ASSIGN_OR_RETURN(auto shadow,
                       core::ShardedSvrEngine::Open(shadow_options));
  SVR_RETURN_NOT_OK(SetupEngine(shadow.get(), config, script));
  for (uint64_t i = 0; i < out.recovered_ops; ++i) {
    SVR_RETURN_NOT_OK(ApplyOp(shadow.get(), script.churn[i]));
  }

  Random qrng(config.seed ^ 0xFEEDull);
  const uint32_t frequent_pool = std::max<uint32_t>(10, config.vocab / 20);
  for (uint32_t n = 0; n < config.validate_queries; ++n) {
    std::vector<std::string> tokens = {
        MakeToken(qrng.Uniform(frequent_pool)),
        MakeToken(qrng.Uniform(frequent_pool))};
    std::string keywords = tokens[0] + " " + tokens[1];

    // Recovered engine vs shadow replay: the exact same statements were
    // (logically) executed on both sides, so answers must be identical
    // down to pk and score.
    SVR_ASSIGN_OR_RETURN(auto got,
                         recovered->Search(keywords, config.top_k));
    SVR_ASSIGN_OR_RETURN(auto want, shadow->Search(keywords, config.top_k));
    bool equal = got.size() == want.size();
    for (size_t i = 0; equal && i < got.size(); ++i) {
      equal = got[i].pk == want[i].pk && got[i].score == want[i].score;
    }
    ++out.oracle_checks;
    if (!equal) ++out.mismatches;

    // Recovered index vs brute-force oracle at one pinned recovered
    // snapshot (per shard, then through the gather).
    bool mismatch = false;
    SVR_RETURN_NOT_OK(recovered->ReadSnapshotAll(
        [&](const core::ShardedReadView& view) {
          return ValidateShardedQuery(recovered.get(), view, tokens,
                                      config.top_k, with_ts, &mismatch);
        }));
    ++out.oracle_checks;
    if (mismatch) ++out.mismatches;
  }
  recovered->Stop();
  shadow->Stop();
  return out;
}

}  // namespace svr::workload
