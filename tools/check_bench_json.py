#!/usr/bin/env python3
"""Validates the bench JSON artifacts ci.sh produces.

One checker per bench family, dispatched on the "bench" field, so the
assertions that used to live as three inline heredocs in ci.sh are in
one place and run identically in CI and locally:

    python3 tools/check_bench_json.py BENCH_merge.json \
        BENCH_concurrency.json BENCH_sharding.json

Exit status is non-zero on the first failed assertion; every passing
file prints a one-line summary.
"""

import json
import statistics
import sys


def require_context(d):
    """Regenerated artifacts record the hardware and build they ran on."""
    ctx = d.get("context")
    assert isinstance(ctx, dict), "missing context block"
    for key in ("hardware_concurrency", "build_type", "compiler"):
        assert key in ctx, "context lacks " + key
    return ctx


def check_merge_policy(d):
    assert d["series"], "empty merge bench"
    auto = [s for s in d["series"] if s["mode"] == "auto"]
    assert auto, "no auto-merge series"
    assert any(s["rounds"][-1]["term_merges"] > 0 for s in auto), \
        "auto-merge policy never fired in the smoke run"
    return "%d series" % len(d["series"])


def check_concurrent_churn(d):
    ctx = require_context(d)
    assert d["series"], "empty bench"
    by_mode = {s["mode"]: s for s in d["series"]}
    assert {"off", "sync", "background"} <= set(by_mode), "missing modes"
    for s in d["series"]:
        assert s["mismatches"] == 0, "oracle mismatch in mode " + s["mode"]
        assert s["validated"] > 0, "no validated queries in " + s["mode"]
    for mode in ("sync", "background"):
        assert by_mode[mode]["term_merges"] > 0, mode + ": no merges ran"
    sync_ms = by_mode["sync"]["write_merge_ms"]
    bg_ms = by_mode["background"]["write_merge_ms"]
    assert bg_ms < sync_ms, \
        "background write-path merge time %.2f not below sync %.2f" % (
            bg_ms, sync_ms)
    return "bg write-path merge %.2f ms vs sync %.2f ms; %d series; " \
        "%d CPUs" % (bg_ms, sync_ms, len(d["series"]),
                     ctx["hardware_concurrency"])


def check_sharded_churn(d):
    assert d["series"], "empty sharding bench"
    for s in d["series"]:
        assert s["mismatches"] == 0, \
            "oracle mismatch at shards=%d" % s["shards"]
        assert s["validated"] > 0, \
            "no validated queries at shards=%d" % s["shards"]
        assert s["writer_ops"] > 0, \
            "writers made no progress at shards=%d" % s["shards"]
    # The headline claim: aggregate writer throughput must be monotone
    # non-decreasing from 1 to 4 shards. Readers never block writers
    # (MVCC); what N shards split is the per-shard writer mutex, so N
    # writer threads progress on N shards at once. Beyond the physical
    # core count the curve may flatten or dip, so 8+ is reported but not
    # gated.
    curve = sorted((s for s in d["series"] if s["shards"] <= 4),
                   key=lambda s: s["shards"])
    assert curve and curve[0]["shards"] == 1, "missing shards=1 baseline"
    for lo, hi in zip(curve, curve[1:]):
        assert hi["writer_ops_per_sec"] >= lo["writer_ops_per_sec"], \
            "throughput regressed %d->%d shards: %.0f -> %.0f ops/s" % (
                lo["shards"], hi["shards"], lo["writer_ops_per_sec"],
                hi["writer_ops_per_sec"])
    return "writer throughput %s ops/s over shards %s" % (
        "/".join("%.0f" % s["writer_ops_per_sec"] for s in curve),
        "/".join(str(s["shards"]) for s in curve))


def check_mvcc_churn(d):
    # BENCH_mvcc.json is frozen history: its bench is retired (the
    # saturated rows are bench_sharded_churn's rows), so the committed
    # file is the only input this checker still sees.
    assert d["series"], "empty mvcc bench"
    for s in d["series"]:
        assert s["mismatches"] == 0, \
            "oracle mismatch at shards=%d %s %s" % (
                s["shards"], s["pacing"], s["mode"])
        assert s["validated"] > 0, \
            "no validated queries at shards=%d %s %s" % (
                s["shards"], s["pacing"], s["mode"])
    mvcc = [s for s in d["series"] if s["mode"] == "mvcc"]
    pacings = {s["pacing"] for s in mvcc}
    assert pacings == {"saturated", "paced"}, \
        "expected saturated and paced mvcc rows, got %s" % sorted(pacings)
    # Rows of the retired lock-based read baseline survive in the
    # committed artifact as history (docs/concurrency.md); they are
    # checked for correctness above but no longer compared against.
    history = len(d["series"]) - len(mvcc)
    return "%d mvcc rows over shards %s; %d frozen lock rows" % (
        len(mvcc), "/".join(str(n) for n in
                            sorted({s["shards"] for s in mvcc})), history)


def check_durability(d):
    assert d["series"], "empty durability bench"
    commit = {s["mode"]: s for s in d["series"] if s["kind"] == "commit"}
    assert {"group", "sync_each"} <= set(commit), "missing commit modes"
    group = commit["group"]["ops_per_sec"]
    sync_each = commit["sync_each"]["ops_per_sec"]
    # The group-commit claim: one padded fsync acknowledges every
    # statement that queued behind it, so throughput must beat the
    # fsync-per-statement baseline by a wide factor (~thread count on an
    # idle box; gated conservatively).
    assert group >= 3 * sync_each, \
        "group commit %.0f ops/s not >= 3x sync-each %.0f" % (
            group, sync_each)
    recovery = [s for s in d["series"] if s["kind"] == "recovery"]
    assert recovery, "no recovery series"
    by_len = {}
    for s in recovery:
        assert s["mismatches"] == 0, \
            "recovered engine diverged at wal_ops=%d ckpt=%s" % (
                s["wal_ops"], s["checkpoint"])
        assert s["queries"] > 0, "no post-recovery queries validated"
        assert s["replay_errors"] == 0, \
            "replay errors at wal_ops=%d" % s["wal_ops"]
        assert s["used_checkpoint"] == s["checkpoint"], \
            "checkpoint presence disagrees with recovery at wal_ops=%d" \
            % s["wal_ops"]
        by_len.setdefault(s["wal_ops"], {})[s["checkpoint"]] = s
    for wal_ops, pair in by_len.items():
        assert set(pair) == {True, False}, \
            "missing checkpoint pair at wal_ops=%d" % wal_ops
        assert (pair[True]["wal_records_replayed"] <
                pair[False]["wal_records_replayed"]), \
            "checkpoint did not shorten replay at wal_ops=%d" % wal_ops
    return "group commit %.1fx over sync-each; %d recovery runs, " \
        "0 mismatches" % (group / sync_each, len(recovery))


def check_telemetry(d):
    ctx = require_context(d)
    assert d["series"], "empty telemetry bench"
    modes = {s["mode"] for s in d["series"]}
    assert modes == {"off", "on"}, "expected off/on pairs, got %s" % modes
    for s in d["series"]:
        assert s["mismatches"] == 0, \
            "telemetry altered results: mismatch in rep %d mode %s" % (
                s["rep"], s["mode"])
        assert s["validated"] > 0, \
            "no validated queries in rep %d mode %s" % (s["rep"], s["mode"])
    summary = d["summary"]
    # The headline gate: best-of-N wall time with every instrument armed
    # must stay within 5% of telemetry disabled.
    ratio = summary["overhead_ratio"]
    assert ratio <= 1.05, \
        "telemetry record-path overhead %.4f exceeds the 5%% budget" % ratio
    assert summary["dump_ok"] is True, \
        "DumpMetrics round-trip failed mid-workload"
    assert summary["periodic_dumps"] > 0, \
        "background periodic dump never fired"
    # The noise the gate has to resolve: the telemetry-off reps' spread,
    # printed next to the ratio (reported, not gated).
    off = summary["off"]
    assert off["min_wall_ms"] <= off["median_wall_ms"] <= off["max_wall_ms"], \
        "off-mode wall spread out of order"
    spread = (off["max_wall_ms"] - off["min_wall_ms"]) / off["median_wall_ms"]
    return "overhead ratio %.4f (gate 1.05), off-mode spread %.1f%% " \
        "(min/median/max %.0f/%.0f/%.0f ms), %d periodic dumps; %d CPUs" % (
            ratio, 100.0 * spread, off["min_wall_ms"], off["median_wall_ms"],
            off["max_wall_ms"], summary["periodic_dumps"],
            ctx["hardware_concurrency"])


def check_server(d):
    assert d["series"], "empty server bench"
    write = sorted((s for s in d["series"] if s["kind"] == "write"),
                   key=lambda s: s["clients"])
    assert len(write) >= 2 and write[0]["clients"] == 1, \
        "write series needs a one-client baseline plus a multi-client run"
    one, many = write[0], write[-1]
    # The serving claim: N connections funnel into the engine's group
    # commit, sharing each padded fsync that a single connection pays
    # per statement. The factor is bounded by the non-fsync share of the
    # DML path, so the gate is conservative.
    assert many["ops_per_sec"] >= 1.5 * one["ops_per_sec"], \
        "%d-client write throughput %.0f ops/s not >= 1.5x the " \
        "one-client %.0f — group commit is not coalescing" % (
            many["clients"], many["ops_per_sec"], one["ops_per_sec"])
    search = [s for s in d["series"] if s["kind"] == "search"]
    assert len({s["clients"] for s in search}) >= 2, \
        "search series needs at least two client counts"
    for s in search:
        assert s["completed"] > 0, \
            "no completed searches at clients=%d" % s["clients"]
        assert s["sustained_qps"] > 0, \
            "zero sustained QPS at clients=%d" % s["clients"]
        assert s["p50_us"] <= s["p99_us"] <= s["p999_us"], \
            "percentiles out of order at clients=%d" % s["clients"]
    over = [s for s in d["series"] if s["kind"] == "overload"]
    assert over, "no overload series"
    for s in over:
        assert s["rejected"] > 0, \
            "admission never shed under %d-client overload" % s["clients"]
        assert s["admitted"] > 0, "overload shed everything"
        # Bounded tail under 2x load: admitted requests may overshoot the
        # ceiling while a shed round trips, but not run away.
        assert s["admitted_p99_us"] <= 5 * s["p99_ceiling_us"], \
            "admitted p99 %d us not within 5x the %d us ceiling" % (
                s["admitted_p99_us"], s["p99_ceiling_us"])
    return "write %.1fx at %d conns; %s sustained QPS; overload shed " \
        "%d with admitted p99 %d us (ceiling %d)" % (
            many["ops_per_sec"] / one["ops_per_sec"], many["clients"],
            "/".join("%.0f" % s["sustained_qps"] for s in search),
            over[0]["rejected"], over[0]["admitted_p99_us"],
            over[0]["p99_ceiling_us"])


def check_paper(d):
    """BENCH_paper.json: the paper's Fig. 8, gated only on the list-page
    counts, which repeat exactly from run to run. Wall time drifts with
    the host, so it is recorded but not gated."""
    ctx = require_context(d)
    assert d.get("figure") == "fig8", "unknown figure %r" % d.get("figure")
    assert d.get("validated") is True, "fig8 ran without validate=1"
    pages = {}
    for r in d["rows"]:
        pages.setdefault(r["method"], {})[r["k"]] = r["qry_pages"]
    assert {"ID", "Score-Threshold", "Chunk"} <= set(pages), \
        "fig8 lacks a method: %s" % sorted(pages)
    ks = sorted(pages["ID"])
    assert ks and all(sorted(p) == ks for p in pages.values()), \
        "fig8 methods ran different k"
    # ID scans every posting of the query terms whatever k is.
    id_mid = statistics.median(pages["ID"].values())
    for k in ks:
        assert abs(pages["ID"][k] - id_mid) <= 0.2 * id_mid, \
            "ID pages not flat: %.1f at k=%d vs median %.1f" % (
                pages["ID"][k], k, id_mid)
    # The paper's claim in the I/O model: Chunk never reads more pages
    # than Score-Threshold.
    for k in ks:
        assert pages["Chunk"][k] <= pages["Score-Threshold"][k], \
            "Chunk reads %.1f pages > Score-Threshold %.1f at k=%d" % (
                pages["Chunk"][k], pages["Score-Threshold"][k], k)
    return "fig8: k=%d..%d, Chunk <= ST pages at every k, ID flat " \
        "around %.1f pages; %d CPUs" % (ks[0], ks[-1], id_mid,
                                        ctx["hardware_concurrency"])


CHECKERS = {
    "merge_policy": check_merge_policy,
    "concurrent_churn": check_concurrent_churn,
    "sharded_churn": check_sharded_churn,
    "mvcc_churn": check_mvcc_churn,
    "durability": check_durability,
    "telemetry": check_telemetry,
    "server": check_server,
    "paper": check_paper,
}


def _self_test_fixtures():
    """One passing payload per checker, plus a seeded failure for each."""
    context = {"hardware_concurrency": 4, "build_type": "Release",
               "compiler": "13.2.0"}
    merge_ok = {"series": [
        {"mode": "auto", "rounds": [{"term_merges": 3}]},
        {"mode": "off", "rounds": [{"term_merges": 0}]},
    ]}
    churn_ok = {"context": context, "series": [
        {"mode": "off", "mismatches": 0, "validated": 10, "term_merges": 0,
         "write_merge_ms": 0.0},
        {"mode": "sync", "mismatches": 0, "validated": 10, "term_merges": 4,
         "write_merge_ms": 9.0},
        {"mode": "background", "mismatches": 0, "validated": 10,
         "term_merges": 4, "write_merge_ms": 1.0},
    ]}
    shard_ok = {"series": [
        {"shards": n, "mismatches": 0, "validated": 5, "writer_ops": 100,
         "writer_ops_per_sec": 1000.0 * n} for n in (1, 2, 4)
    ]}
    mvcc_ok = {"series": [
        {"shards": 1, "pacing": "saturated", "mode": "lock",
         "mismatches": 0, "validated": 5, "writer_ops_per_sec": 4.0,
         "qry_p95_ms": 0.2},
        {"shards": 1, "pacing": "saturated", "mode": "mvcc",
         "mismatches": 0, "validated": 5, "writer_ops_per_sec": 900.0,
         "qry_p95_ms": 1.0},
        {"shards": 1, "pacing": "paced", "mode": "mvcc",
         "mismatches": 0, "validated": 5, "writer_ops_per_sec": 50.0,
         "qry_p95_ms": 1.5},
    ]}
    dur_ok = {"series": [
        {"kind": "commit", "mode": "group", "ops_per_sec": 900.0},
        {"kind": "commit", "mode": "sync_each", "ops_per_sec": 100.0},
        {"kind": "recovery", "wal_ops": 800, "checkpoint": True,
         "used_checkpoint": True, "mismatches": 0, "queries": 5,
         "replay_errors": 0, "wal_records_replayed": 50},
        {"kind": "recovery", "wal_ops": 800, "checkpoint": False,
         "used_checkpoint": False, "mismatches": 0, "queries": 5,
         "replay_errors": 0, "wal_records_replayed": 800},
    ]}
    spread = {"min_wall_ms": 900.0, "median_wall_ms": 950.0,
              "max_wall_ms": 1000.0}
    telemetry_ok = {"context": context, "series": [
        {"rep": r, "mode": m, "mismatches": 0, "validated": 5}
        for r in (0, 1) for m in ("off", "on")
    ], "summary": {"overhead_ratio": 1.02, "dump_ok": True,
                   "periodic_dumps": 12, "off": spread, "on": spread}}
    server_ok = {"series": [
        {"kind": "write", "clients": 1, "ops_per_sec": 700.0},
        {"kind": "write", "clients": 8, "ops_per_sec": 1800.0},
        {"kind": "search", "clients": 2, "completed": 1000,
         "sustained_qps": 800.0, "p50_us": 500, "p99_us": 3000,
         "p999_us": 5000},
        {"kind": "search", "clients": 8, "completed": 1000,
         "sustained_qps": 790.0, "p50_us": 900, "p99_us": 5000,
         "p999_us": 7000},
        {"kind": "overload", "clients": 16, "p99_ceiling_us": 500,
         "rejected": 1500, "admitted": 2500, "admitted_p99_us": 1200},
    ]}
    fig8_pages = {"ID": (36.0, 37.0, 40.0),
                  "Score-Threshold": (5.0, 20.0, 150.0),
                  "Chunk": (2.0, 4.0, 31.0)}
    paper_ok = {"figure": "fig8", "validated": True, "context": context,
                "rows": [{"method": m, "k": k, "qry_ms": 0.1,
                          "qry_pages": p[i]}
                         for m, p in fig8_pages.items()
                         for i, k in enumerate((1, 10, 100))]}
    passing = {
        "merge_policy": merge_ok,
        "concurrent_churn": churn_ok,
        "sharded_churn": shard_ok,
        "mvcc_churn": mvcc_ok,
        "durability": dur_ok,
        "telemetry": telemetry_ok,
        "server": server_ok,
        "paper": paper_ok,
    }
    # Seeded failures: each flips exactly one property its checker gates.
    def without_context(payload):
        bad = json.loads(json.dumps(payload))
        del bad["context"]
        return bad

    merge_bad = json.loads(json.dumps(merge_ok))
    merge_bad["series"][0]["rounds"][0]["term_merges"] = 0
    churn_bad = json.loads(json.dumps(churn_ok))
    churn_bad["series"][2]["write_merge_ms"] = 20.0  # bg slower than sync
    shard_bad = json.loads(json.dumps(shard_ok))
    shard_bad["series"][2]["writer_ops_per_sec"] = 1.0  # regressed curve
    mvcc_bad = json.loads(json.dumps(mvcc_ok))
    mvcc_bad["series"][2]["mismatches"] = 1  # oracle divergence
    dur_bad = json.loads(json.dumps(dur_ok))
    dur_bad["series"][0]["ops_per_sec"] = 150.0  # group < 3x sync_each
    telemetry_bad = json.loads(json.dumps(telemetry_ok))
    telemetry_bad["summary"]["overhead_ratio"] = 1.12  # over the 5% budget
    server_bad = json.loads(json.dumps(server_ok))
    server_bad["series"][4]["rejected"] = 0  # admission never shed
    paper_slow_chunk = json.loads(json.dumps(paper_ok))
    paper_slow_chunk["rows"][7]["qry_pages"] = 25.0  # Chunk > ST at k=10
    paper_id_climbs = json.loads(json.dumps(paper_ok))
    paper_id_climbs["rows"][2]["qry_pages"] = 60.0  # ID not flat
    paper_unvalidated = json.loads(json.dumps(paper_ok))
    paper_unvalidated["validated"] = False
    failing = {
        "merge_policy": [merge_bad],
        "concurrent_churn": [churn_bad, without_context(churn_ok)],
        "sharded_churn": [shard_bad],
        "mvcc_churn": [mvcc_bad],
        "durability": [dur_bad],
        "telemetry": [telemetry_bad, without_context(telemetry_ok)],
        "server": [server_bad],
        "paper": [paper_slow_chunk, paper_id_climbs, paper_unvalidated,
                  without_context(paper_ok)],
    }
    return passing, failing


def self_test():
    passing, failing = _self_test_fixtures()
    assert set(passing) == set(CHECKERS), "fixture per checker required"
    for bench, payload in passing.items():
        summary = CHECKERS[bench](payload)
        assert summary, bench
    for bench, payloads in failing.items():
        for payload in payloads:
            try:
                CHECKERS[bench](payload)
            except AssertionError:
                continue
            raise SystemExit(
                "self-test: %s checker accepted a seeded failure" % bench)
    print("check_bench_json.py --self-test: OK (%d checkers, each "
          "accepts its passing fixture and rejects its seeded failures)"
          % len(CHECKERS))
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) < 2:
        print("usage: check_bench_json.py [--self-test] BENCH_*.json...",
              file=sys.stderr)
        return 2
    for path in argv[1:]:
        with open(path) as f:
            d = json.load(f)
        bench = d.get("bench")
        checker = CHECKERS.get(bench)
        if checker is None:
            print("%s: unknown bench kind %r" % (path, bench),
                  file=sys.stderr)
            return 1
        try:
            summary = checker(d)
        except AssertionError as e:
            print("%s: FAIL: %s" % (path, e), file=sys.stderr)
            return 1
        print("%s: OK (%s)" % (path, summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
