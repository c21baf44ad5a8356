// Sustained-churn benchmark for the incremental short→long merge
// (docs/merge_policy.md): rounds of score updates + document inserts,
// query latency measured after every round, with the short lists
//
//   off    — never merged (the pre-merge behaviour: short lists grow
//            without bound and query latency degrades with uptime),
//   manual — MergeAllTerms() every `merge_every` rounds (offline-style
//            maintenance windows),
//   auto   — the MergePolicy triggers firing on the write path.
//
// Emits BENCH_merge.json so CI tracks the update-path trajectory the
// same way BENCH_codec.json tracks decode throughput. The headline
// check: with auto-merge on, late-round query latency stays near the
// fresh-index baseline while merge-off drifts upward.
//
// Simulated times use the split cost model: long-list misses at
// list_page_ms (HDD-ish sequential scans), table-pool misses at
// table_page_ms (SSD-ish point reads) — table_page_ms=... /
// list_page_ms=... flags. The Score table and ListScore/ListChunk are
// in-memory columns, so `tbl_misses` counts short-list pages only.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

using namespace svr;
using namespace svr::bench;

namespace {

struct RoundRow {
  uint32_t round;
  double upd_ms;
  double ins_ms;
  double qry_ms;
  double sim_qry_ms;
  double tbl_misses;
  uint64_t short_postings;
  uint64_t short_bytes;
  uint64_t term_merges;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  workload::ExperimentConfig base = DefaultConfig(flags);
  // Bench-local defaults (every one still flag-overridable): a corpus
  // and churn rate where the update-path effects separate cleanly, a
  // deliberately tight table cache — the paper's "tables stay cached"
  // assumption is exactly what unbounded short lists break — and an
  // auto-merge policy tuned so the out-of-the-box run demonstrates the
  // bound (1 MB short-bytes backstop; the global default is 0/off).
  base.corpus.num_docs =
      static_cast<uint32_t>(flags.GetInt("docs", 10000));
  base.corpus.vocab_size =
      static_cast<uint32_t>(flags.GetInt("vocab", 8000));
  base.corpus.terms_per_doc =
      static_cast<uint32_t>(flags.GetInt("terms", 60));
  base.table_pool_pages =
      static_cast<uint64_t>(flags.GetInt("table_pages", 6000));
  base.merge_policy.short_bytes_budget =
      static_cast<uint64_t>(flags.GetInt("merge_budget_kb", 1024)) * 1024;
  base.merge_policy.short_ratio = flags.GetDouble("merge_ratio", 0.2);
  base.merge_policy.min_short_postings =
      static_cast<uint32_t>(flags.GetInt("merge_min", 32));
  base.merge_policy.check_interval =
      static_cast<uint32_t>(flags.GetInt("merge_interval", 200));
  const bool validate = flags.GetBool("validate", false);
  const uint32_t rounds = static_cast<uint32_t>(flags.GetInt("rounds", 8));
  const uint32_t upd_per_round =
      static_cast<uint32_t>(flags.GetInt("round_updates", 1000));
  const uint32_t ins_per_round =
      static_cast<uint32_t>(flags.GetInt("round_inserts", 1500));
  const uint32_t merge_every =
      static_cast<uint32_t>(flags.GetInt("merge_every", 2));
  const std::string out_path =
      flags.GetString("out", "BENCH_merge.json");

  std::vector<std::string> modes =
      SplitCsv(flags.GetString("modes", "off,manual,auto"));
  std::vector<index::Method> methods;
  for (const std::string& m : SplitCsv(flags.GetString("methods", "chunk,st"))) {
    methods.push_back(ParseMethod(m));
  }

  std::printf("# Merge policy under sustained churn\n");
  std::printf(
      "# %u docs x %u terms; %u rounds x (%u updates + %u inserts)\n\n",
      base.corpus.num_docs, base.corpus.terms_per_doc, rounds,
      upd_per_round, ins_per_round);

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "FATAL cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"merge_policy\",\n"
               "  \"docs\": %u,\n  \"terms_per_doc\": %u,\n"
               "  \"rounds\": %u,\n  \"round_updates\": %u,\n"
               "  \"round_inserts\": %u,\n  \"list_page_ms\": %.3f,\n"
               "  \"table_page_ms\": %.3f,\n"
               "  \"table_pages\": %llu,\n"
               "  \"merge_ratio\": %.3f,\n  \"merge_min\": %u,\n"
               "  \"merge_interval\": %u,\n  \"series\": [",
               base.corpus.num_docs, base.corpus.terms_per_doc, rounds,
               upd_per_round, ins_per_round, base.page_ms,
               base.table_page_ms,
               static_cast<unsigned long long>(base.table_pool_pages),
               base.merge_policy.short_ratio,
               base.merge_policy.min_short_postings,
               base.merge_policy.check_interval);
  bool first_series = true;

  TablePrinter table({"method", "mode", "round", "upd ms", "qry ms",
                      "sim qry ms", "tbl miss/q", "short MB", "merges"});
  for (index::Method method : methods) {
    for (const std::string& mode : modes) {
      workload::ExperimentConfig config = base;
      config.merge_policy.enabled = (mode == "auto");
      auto exp = CheckResult(workload::Experiment::Setup(
                                 method, config, DefaultIndexOptions(flags)),
                             "setup");

      // Fresh-index baseline: the latency every mode is judged against.
      auto fresh = CheckResult(
          exp->RunQueries(workload::QueryClass::kUnselective, validate),
          "fresh queries");
      table.Row({exp->index()->name(), mode, "fresh", "-",
                 Ms(fresh.avg_ms()),
                 Ms(fresh.sim_avg_ms_split(config.page_ms,
                                           config.table_page_ms)),
                 Num(fresh.avg_table_misses()),
                 Mb(exp->ShortListBytes()), "0"});

      std::vector<RoundRow> rows;
      double last_sim =
          fresh.sim_avg_ms_split(config.page_ms, config.table_page_ms);
      for (uint32_t r = 0; r < rounds; ++r) {
        auto upd = CheckResult(exp->ApplyUpdates(upd_per_round), "updates");
        workload::OpStats ins;
        if (ins_per_round > 0) {
          ins = CheckResult(exp->InsertDocuments(ins_per_round), "inserts");
        }
        if (mode == "manual" && (r + 1) % merge_every == 0) {
          Check(exp->index()->MergeAllTerms(), "manual merge");
        }
        auto qry = CheckResult(
            exp->RunQueries(workload::QueryClass::kUnselective, validate),
            "queries");
        RoundRow row;
        row.round = r;
        row.upd_ms = upd.avg_ms();
        row.ins_ms = ins.avg_ms();
        row.qry_ms = qry.avg_ms();
        row.sim_qry_ms = qry.sim_avg_ms_split(config.page_ms,
                                              config.table_page_ms);
        row.tbl_misses = qry.avg_table_misses();
        row.short_postings = exp->index()->ShortPostingCount();
        row.short_bytes = exp->ShortListBytes();
        row.term_merges = exp->index()->stats().term_merges;
        rows.push_back(row);
        last_sim = row.sim_qry_ms;
        table.Row({exp->index()->name(), mode, std::to_string(r),
                   Ms(row.upd_ms), Ms(row.qry_ms), Ms(row.sim_qry_ms),
                   Num(row.tbl_misses), Mb(row.short_bytes),
                   std::to_string(row.term_merges)});
      }

      const double fresh_sim =
          fresh.sim_avg_ms_split(config.page_ms, config.table_page_ms);
      std::printf("# %s/%s: final sim query %.4f ms = %.2fx fresh\n",
                  exp->index()->name().c_str(), mode.c_str(), last_sim,
                  fresh_sim > 0 ? last_sim / fresh_sim : 0.0);

      std::fprintf(json,
                   "%s\n    {\"method\": \"%s\", \"mode\": \"%s\", "
                   "\"fresh_qry_ms\": %.5f, \"fresh_sim_qry_ms\": %.5f, "
                   "\"rounds\": [",
                   first_series ? "" : ",", exp->index()->name().c_str(),
                   mode.c_str(), fresh.avg_ms(), fresh_sim);
      first_series = false;
      for (size_t i = 0; i < rows.size(); ++i) {
        const RoundRow& row = rows[i];
        std::fprintf(
            json,
            "%s\n      {\"round\": %u, \"upd_ms\": %.5f, \"ins_ms\": %.5f, "
            "\"qry_ms\": %.5f, \"sim_qry_ms\": %.5f, "
            "\"tbl_misses_per_qry\": %.2f, "
            "\"short_postings\": %llu, \"short_bytes\": %llu, "
            "\"term_merges\": %llu}",
            i == 0 ? "" : ",", row.round, row.upd_ms, row.ins_ms,
            row.qry_ms, row.sim_qry_ms, row.tbl_misses,
            static_cast<unsigned long long>(row.short_postings),
            static_cast<unsigned long long>(row.short_bytes),
            static_cast<unsigned long long>(row.term_merges));
      }
      std::fprintf(json, "\n    ]}");
    }
  }
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("\n# wrote %s\n", out_path.c_str());
  std::printf(
      "# expectation: auto stays within ~1.5x of fresh; off drifts up "
      "with the unmerged short lists\n");
  return 0;
}
