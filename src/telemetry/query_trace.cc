#include "telemetry/query_trace.h"

#include <cstdio>

namespace svr::telemetry {

std::string QueryTrace::ToString() const {
  char buf[512];
  int n = std::snprintf(
      buf, sizeof(buf),
      "keywords='%s' k=%llu conj=%d ts=%llu results=%llu total=%lluus "
      "gather=%lluus join=%lluus shards=%zu",
      keywords.c_str(), static_cast<unsigned long long>(k),
      conjunctive ? 1 : 0, static_cast<unsigned long long>(commit_ts),
      static_cast<unsigned long long>(results),
      static_cast<unsigned long long>(total_us),
      static_cast<unsigned long long>(gather_us),
      static_cast<unsigned long long>(join_us), shards.size());
  std::string out(buf, n < 0 ? 0 : static_cast<size_t>(n));
  for (const ShardSpan& s : shards) {
    int m = std::snprintf(buf, sizeof(buf), " [shard %u: %lluus, %llu hits]",
                          s.shard, static_cast<unsigned long long>(s.latency_us),
                          static_cast<unsigned long long>(s.hits));
    out.append(buf, m < 0 ? 0 : static_cast<size_t>(m));
  }
  return out;
}

}  // namespace svr::telemetry
