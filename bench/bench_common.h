#ifndef SVR_BENCH_BENCH_COMMON_H_
#define SVR_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "index/index_factory.h"
#include "workload/experiment.h"
#include "workload/params.h"

// The CMake build type, stamped into the artifacts' context block (the
// root CMakeLists defines it for every bench target).
#ifndef SVR_BUILD_TYPE
#define SVR_BUILD_TYPE "unknown"
#endif

namespace svr::bench {

/// Tiny `key=value` command-line parser so every experiment knob is
/// sweepable without recompiling, e.g.
///   ./bench_fig7_varying_updates docs=20000 updates=50000 validate=1
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      auto eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_[arg] = "1";
      } else {
        flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  int64_t GetInt(const std::string& key, int64_t def) const {
    auto it = flags_.find(key);
    return it == flags_.end() ? def : std::atoll(it->second.c_str());
  }
  double GetDouble(const std::string& key, double def) const {
    auto it = flags_.find(key);
    return it == flags_.end() ? def : std::atof(it->second.c_str());
  }
  bool GetBool(const std::string& key, bool def) const {
    auto it = flags_.find(key);
    if (it == flags_.end()) return def;
    return it->second != "0" && it->second != "false";
  }
  std::string GetString(const std::string& key,
                        const std::string& def) const {
    auto it = flags_.find(key);
    return it == flags_.end() ? def : it->second;
  }

 private:
  std::map<std::string, std::string> flags_;
};

/// Laptop-scale defaults for the Figure-6 parameters (the paper's full
/// scale — 200k vocabulary, 2000 terms/doc, 100k updates — is reachable
/// through flags: docs=..., terms=..., vocab=..., updates=...).
inline workload::ExperimentConfig DefaultConfig(const Flags& flags) {
  workload::ExperimentConfig c;
  c.corpus.num_docs = static_cast<uint32_t>(flags.GetInt("docs", 30000));
  c.corpus.terms_per_doc =
      static_cast<uint32_t>(flags.GetInt("terms", 150));
  c.corpus.vocab_size =
      static_cast<uint32_t>(flags.GetInt("vocab", 30000));
  c.page_size = static_cast<uint32_t>(flags.GetInt("page", 1024));
  // Split cost model: list_page_ms (alias: the historical page_ms) for
  // HDD-ish long-list scans, table_page_ms for SSD-ish table reads.
  c.page_ms = flags.GetDouble("list_page_ms",
                              flags.GetDouble("page_ms", 0.2));
  c.table_page_ms = flags.GetDouble("table_page_ms", 0.05);
  c.table_pool_pages =
      static_cast<uint64_t>(flags.GetInt("table_pages", 1 << 16));
  c.list_pool_pages =
      static_cast<uint64_t>(flags.GetInt("list_pages", 1 << 16));
  c.corpus.term_zipf = flags.GetDouble("term_zipf", 1.0);
  c.corpus.seed = static_cast<uint64_t>(flags.GetInt("seed", 2005));
  c.max_score = flags.GetDouble("max_score", 100000.0);
  c.score_zipf = flags.GetDouble("score_zipf", 0.75);
  c.num_updates = static_cast<uint32_t>(flags.GetInt("updates", 10000));
  c.mean_update_step = flags.GetDouble("step", 100.0);
  c.update_zipf = flags.GetDouble("update_zipf", 0.75);
  c.focus_set_pct = flags.GetDouble("focus_pct", 1.0);
  c.focus_update_pct = flags.GetDouble("focus_updates", 20.0);
  c.query_terms = static_cast<uint32_t>(flags.GetInt("query_terms", 2));
  c.num_queries = static_cast<uint32_t>(flags.GetInt("queries", 50));
  c.top_k = static_cast<uint32_t>(flags.GetInt("k", 20));
  c.seed = static_cast<uint64_t>(flags.GetInt("seed", 2005));
  c.posting_format = flags.GetInt("format", 2) == 1 ? PostingFormat::kV1
                                                    : PostingFormat::kV2;
  c.merge_policy.enabled = flags.GetBool("auto_merge", false);
  c.merge_policy.short_ratio = flags.GetDouble("merge_ratio", 0.25);
  c.merge_policy.min_short_postings =
      static_cast<uint32_t>(flags.GetInt("merge_min", 64));
  c.merge_policy.short_bytes_budget =
      static_cast<uint64_t>(flags.GetInt("merge_budget_kb", 0)) * 1024;
  c.merge_policy.max_terms_per_sweep =
      static_cast<uint32_t>(flags.GetInt("merge_sweep", 64));
  c.merge_policy.check_interval =
      static_cast<uint32_t>(flags.GetInt("merge_interval", 256));
  return c;
}

inline index::IndexOptions DefaultIndexOptions(const Flags& flags) {
  index::IndexOptions o;
  o.chunk.chunking.chunk_ratio = flags.GetDouble("chunk_ratio", 6.12);
  o.chunk.chunking.min_chunk_size =
      static_cast<uint32_t>(flags.GetInt("min_chunk", 100));
  o.score_threshold.threshold_ratio =
      flags.GetDouble("threshold_ratio", 11.24);
  o.term_scores.fancy_list_size =
      static_cast<uint32_t>(flags.GetInt("fancy", 64));
  o.term_scores.term_weight = flags.GetDouble("term_weight", 1000.0);
  o.chunk.term_scores = o.term_scores;
  return o;
}

/// `method=` flag values: id, idts, chunk (the default), cts, st.
inline index::Method ParseMethod(const std::string& name) {
  if (name == "id") return index::Method::kId;
  if (name == "idts") return index::Method::kIdTermScore;
  if (name == "st") return index::Method::kScoreThreshold;
  if (name == "cts") return index::Method::kChunkTermScore;
  return index::Method::kChunk;
}

/// Writes the artifact's `"context"` member — the hardware and build a
/// number was measured on — as one line inside an open JSON object,
/// followed by a comma.
inline void WriteContextJson(std::FILE* json) {
  std::fprintf(json,
               "  \"context\": {\"hardware_concurrency\": %u, "
               "\"build_type\": \"%s\", \"compiler\": \"%s\"},\n",
               std::thread::hardware_concurrency(), SVR_BUILD_TYPE,
               __VERSION__);
}

/// Splits a comma-separated flag value ("off,sync,background"); empty
/// segments are skipped. Shared by every bench that sweeps a list flag.
inline std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Markdown-ish fixed-width table writer for the per-experiment reports.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    for (const auto& h : headers_) {
      std::printf("| %14s ", h.c_str());
    }
    std::printf("|\n");
    for (size_t i = 0; i < headers_.size(); ++i) {
      std::printf("|%s", std::string(16, '-').c_str());
    }
    std::printf("|\n");
  }

  void Row(const std::vector<std::string>& cells) {
    for (const auto& c : cells) {
      std::printf("| %14s ", c.c_str());
    }
    std::printf("|\n");
    std::fflush(stdout);
  }

 private:
  std::vector<std::string> headers_;
};

inline std::string Ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

inline std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

inline std::string Mb(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

/// \brief The paper benches' shared JSON emitter. Collects the rows a
/// bench prints and writes them as
///   {"bench": ..., <header fields>, "context": {...},
///    "rows": [{"<column>": <cell>, ...}, ...]}
/// Cells (and header values) that are JSON numbers, or true/false, are
/// written bare; everything else (nan and inf included) as a JSON string.
class JsonRows {
 public:
  explicit JsonRows(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void Row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Writes the artifact to `path`; exits on an unwritable path.
  void Write(const std::string& path, const std::string& bench,
             const std::vector<std::pair<std::string, std::string>>&
                 header = {}) const {
    std::FILE* json = std::fopen(path.c_str(), "w");
    if (json == nullptr) {
      std::fprintf(stderr, "FATAL cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::fprintf(json, "{\n  \"bench\": %s,\n", Value(bench).c_str());
    for (const auto& [key, value] : header) {
      std::fprintf(json, "  \"%s\": %s,\n", key.c_str(),
                   Value(value).c_str());
    }
    WriteContextJson(json);
    std::fprintf(json, "  \"rows\": [");
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(json, "%s\n    {", r == 0 ? "" : ",");
      for (size_t c = 0; c < columns_.size() && c < rows_[r].size(); ++c) {
        std::fprintf(json, "%s\"%s\": %s", c == 0 ? "" : ", ",
                     columns_[c].c_str(), Value(rows_[r][c]).c_str());
      }
      std::fprintf(json, "}");
    }
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
  }

 private:
  static std::string Value(const std::string& cell) {
    // JSON's number grammar: no nan/inf, hex, leading '+' or leading 0s.
    static const std::regex kNumber(
        R"(-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?)");
    if (cell == "true" || cell == "false") return cell;
    if (std::regex_match(cell, kNumber)) return cell;
    std::string quoted = "\"";
    for (char ch : cell) {
      if (ch == '"' || ch == '\\') quoted.push_back('\\');
      quoted.push_back(ch);
    }
    return quoted + "\"";
  }

  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fails loudly: benches must not silently report nonsense.
inline void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T CheckResult(Result<T> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

}  // namespace svr::bench

#endif  // SVR_BENCH_BENCH_COMMON_H_
