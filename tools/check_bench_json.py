#!/usr/bin/env python3
"""Validates the bench JSON artifacts ci.sh produces.

One checker per bench family, dispatched on the "bench" field, so the
assertions that used to live as three inline heredocs in ci.sh are in
one place and run identically in CI and locally:

    python3 tools/check_bench_json.py BENCH_merge.json \
        BENCH_concurrency.json BENCH_sharding.json

Every file is checked and prints one verdict line: OK with a summary,
or FAIL with the failed assertion (an unknown "bench" kind is a FAIL).
Exit status is 1 if any file failed.
"""

import contextlib
import functools
import io
import json
import os
import statistics
import sys
import tempfile

# The committed same-work artifact that check_work compares reruns to.
WORK_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCH_work.json")


def require_context(d):
    """Regenerated artifacts record the hardware and build they ran on."""
    ctx = d.get("context")
    assert isinstance(ctx, dict), "missing context block"
    for key in ("hardware_concurrency", "build_type", "compiler"):
        assert key in ctx, "context lacks " + key
    return ctx


def check_merge_policy(d):
    """The short-list trajectory, per method. These counts repeat
    exactly: with merging off the short postings grow every round, auto
    merging never holds more than off, and a manual merge round leaves
    none behind."""
    assert d["series"], "empty merge bench"
    auto = [s for s in d["series"] if s["mode"] == "auto"]
    assert auto, "no auto-merge series"
    assert any(s["rounds"][-1]["term_merges"] > 0 for s in auto), \
        "auto-merge policy never fired in the smoke run"
    by_method = {}
    for s in d["series"]:
        by_method.setdefault(s.get("method", ""), {})[s["mode"]] = s
    for method, modes in by_method.items():
        off = modes.get("off")
        if off is not None:
            sp = [r["short_postings"] for r in off["rounds"]]
            assert all(a < b for a, b in zip(sp, sp[1:])), \
                "%s off: short postings %s do not rise every round" % (
                    method, sp)
        if off is not None and "auto" in modes:
            for a, o in zip(modes["auto"]["rounds"], off["rounds"]):
                assert a["short_postings"] <= o["short_postings"], \
                    "%s round %d: auto holds %d short postings, off %d" % (
                        method, a["round"], a["short_postings"],
                        o["short_postings"])
        if "manual" in modes:
            merges = 0
            for r in modes["manual"]["rounds"]:
                if r["term_merges"] > merges:
                    assert r["short_postings"] == 0, \
                        "%s manual round %d merged but kept %d short " \
                        "postings" % (method, r["round"],
                                      r["short_postings"])
                merges = r["term_merges"]
    return "%d series; off rises, auto <= off, manual merges empty " \
        "the short lists" % len(d["series"])


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
    ctx = require_context(d)
    assert d["series"], "empty durability bench"
    pairs = {}
    for s in d["series"]:
        if s["kind"] == "commit":
            pair = pairs.setdefault(s["rep"], {})
            assert s["mode"] not in pair, \
                "rep %d repeats mode %s" % (s["rep"], s["mode"])
            pair[s["mode"]] = s["ops_per_sec"]
    assert pairs, "no commit series"
    for rep, pair in pairs.items():
        assert set(pair) == {"group", "sync_each"}, \
            "rep %d lacks a commit mode: %s" % (rep, sorted(pair))
    # The group-commit claim: one padded fsync acknowledges every
    # statement that queued behind it, so throughput must beat the
    # fsync-per-statement baseline by a wide factor (~thread count on an
    # idle box; gated conservatively). The modes run interleaved, one
    # pair per rep, and the gate reads the median of the paired ratios,
    # so one rep slowed by the host cannot decide it.
    ratios = sorted(p["group"] / p["sync_each"] for p in pairs.values())
    median = statistics.median(ratios)
    assert median >= 3.0, \
        "median paired group/sync-each ratio %.2f not >= 3x (reps: %s)" % (
            median, ", ".join("%.2f" % r for r in ratios))
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
    return "group commit median %.1fx over sync-each in %d paired reps " \
        "(min %.1fx); %d recovery runs, 0 mismatches; %d CPUs" % (
            median, len(ratios), ratios[0], len(recovery),
            ctx["hardware_concurrency"])


def check_telemetry(d):
    ctx = require_context(d)
    assert d["series"], "empty telemetry bench"
    pairs = {}
    for s in d["series"]:
        assert s["mismatches"] == 0, \
            "telemetry altered results: mismatch in rep %d mode %s" % (
                s["rep"], s["mode"])
        assert s["validated"] > 0, \
            "no validated queries in rep %d mode %s" % (s["rep"], s["mode"])
        pair = pairs.setdefault(s["rep"], {})
        assert s["mode"] not in pair, \
            "rep %d repeats mode %s" % (s["rep"], s["mode"])
        assert s["ops"] > 0 and s["us_per_op"] > 0, \
            "no completed operations in rep %d mode %s" % (s["rep"], s["mode"])
        pair[s["mode"]] = s["us_per_op"]
    for rep, pair in pairs.items():
        assert set(pair) == {"off", "on"}, \
            "rep %d lacks a mode: %s" % (rep, sorted(pair))
    summary = d["summary"]
    # The headline gate: with every instrument armed, the median over
    # reps of the paired on/off ratio of wall time per completed
    # operation stays within 5%. A rep's query count floats beside the
    # writer's fixed ops, so wall time alone compares unequal work. Each
    # rep runs both modes back to back, so one rep slowed by the host
    # cannot decide it.
    ratios = sorted(p["on"] / p["off"] for p in pairs.values())
    ratio = statistics.median(ratios)
    assert ratio <= 1.05, \
        "median paired telemetry overhead %.4f exceeds the 5%% budget " \
        "(reps: %s)" % (ratio, ", ".join("%.3f" % r for r in ratios))
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
    return "median paired overhead %.4f (gate 1.05) over %d reps " \
        "(min %.4f, max %.4f), off-mode spread %.1f%% " \
        "(min/median/max %.0f/%.0f/%.0f ms), %d periodic dumps; %d CPUs" % (
            ratio, len(ratios), ratios[0], ratios[-1], 100.0 * spread,
            off["min_wall_ms"], off["median_wall_ms"], off["max_wall_ms"],
            summary["periodic_dumps"], ctx["hardware_concurrency"])


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


def check_paper_fig8(d, ctx):
    """Fig. 8, gated only on the list-page counts, which repeat exactly
    from run to run. Wall time drifts with the host, so it is recorded
    but not gated."""
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


TABLE1_METHODS = ("ID", "Score", "Score-Threshold", "Chunk",
                  "ID-TermScore", "Chunk-TermScore")


def check_paper_table1(d, ctx):
    """Table 1: long-list bytes per method, one group of rows per posting
    format. Sizes are deterministic, so each group is gated on the
    paper's strict order. The v1 rows (the paper's one-varint-per-posting
    layout) are frozen history; a fresh run writes v2 rows only."""
    sizes = {}
    for r in d["rows"]:
        group = sizes.setdefault(r["format"], {})
        assert r["method"] not in group, \
            "table1 repeats %s/%s" % (r["format"], r["method"])
        group[r["method"]] = r["long_bytes"]
    assert "v2" in sizes, "table1 has no v2 rows"
    ratios = []
    for fmt, b in sorted(sizes.items()):
        missing = [m for m in TABLE1_METHODS if m not in b]
        assert not missing, "table1 %s lacks %s" % (fmt, missing)
        ts_hi = max(b["ID-TermScore"], b["Chunk-TermScore"])
        ts_lo = min(b["ID-TermScore"], b["Chunk-TermScore"])
        assert b["Score"] > b["Score-Threshold"] > ts_hi, \
            "%s: not Score > Score-Threshold > max(ID-TS, Chunk-TS): " \
            "%d, %d, %d" % (fmt, b["Score"], b["Score-Threshold"], ts_hi)
        assert ts_lo > b["Chunk"] >= b["ID"] > 0, \
            "%s: not min(ID-TS, Chunk-TS) > Chunk >= ID: %d, %d, %d" % (
                fmt, ts_lo, b["Chunk"], b["ID"])
        # The paper's "Chunk ~= ID": group headers cost a bounded share.
        assert b["Chunk"] <= 1.25 * b["ID"], \
            "%s: Chunk %d > 1.25x ID %d" % (fmt, b["Chunk"], b["ID"])
        ratios.append("%s Chunk/ID %.2f" % (fmt, b["Chunk"] / b["ID"]))
    return "table1: Score > ST > TS > Chunk >= ID in every format, %s; " \
        "%d CPUs" % (", ".join(ratios), ctx["hardware_concurrency"])


def check_paper_table3(d, ctx):
    """Table 3: short-list bytes (list-state column included) after each
    insertion batch, one group of rows per short-list layout. Sizes are
    deterministic. Within a layout they rise with the inserted count and
    fall after the offline merge ("merge+N" row). The btree rows are
    frozen history of the B+-tree layout; when both layouts are present
    the run layout may not be larger at any row, and at 2,500 inserted
    docs it must be at least 5x smaller."""
    by_layout = {}
    for r in d["rows"]:
        group = by_layout.setdefault(r["layout"], {})
        assert r["inserted"] not in group, \
            "table3 repeats %s/%s" % (r["layout"], r["inserted"])
        group[r["inserted"]] = r
    assert by_layout, "table3 has no rows"
    for layout, rows in sorted(by_layout.items()):
        counts = sorted(k for k in rows if isinstance(k, int))
        merged = [k for k in rows if isinstance(k, str)]
        assert counts, "table3 %s has no insertion rows" % layout
        assert len(merged) == 1 and merged[0].startswith("merge+"), \
            "table3 %s needs exactly one merge+N row" % layout
        sizes = [rows[k]["short_bytes"] for k in counts]
        for lo, hi, n in zip(sizes, sizes[1:], counts[1:]):
            assert hi > lo, \
                "table3 %s: short bytes did not rise at %d inserted " \
                "(%d -> %d)" % (layout, n, lo, hi)
        after = rows[merged[0]]["short_bytes"]
        assert after < sizes[-1], \
            "table3 %s: offline merge left %d short bytes, not below %d" % (
                layout, after, sizes[-1])
    summary = ""
    if {"btree", "run"} <= set(by_layout):
        btree, run = by_layout["btree"], by_layout["run"]
        assert set(run) == set(btree), "table3 layouts ran different batches"
        for n, r in run.items():
            assert r["short_bytes"] <= btree[n]["short_bytes"], \
                "table3: run layout %d bytes > btree %d at %s" % (
                    r["short_bytes"], btree[n]["short_bytes"], n)
        assert 2500 in run, "table3 lacks the 2,500-doc row"
        shrink = btree[2500]["short_bytes"] / run[2500]["short_bytes"]
        assert shrink >= 5.0, \
            "table3: run layout only %.2fx smaller than btree at 2,500 " \
            "docs (gate 5x)" % shrink
        summary = ", run %.1fx smaller than btree at 2,500 docs" % shrink
    return "table3: short bytes rise with inserts and fall after the " \
        "merge in %s%s; %d CPUs" % ("/".join(sorted(by_layout)), summary,
                                    ctx["hardware_concurrency"])


PAPER_FIGURES = {
    "fig8": check_paper_fig8,
    "table1": check_paper_table1,
    "table3": check_paper_table3,
}


def check_paper(d):
    """BENCH_paper*.json: one of the paper's figures or tables, one file
    each, dispatched on "figure"."""
    ctx = require_context(d)
    checker = PAPER_FIGURES.get(d.get("figure"))
    assert checker is not None, "unknown figure %r" % d.get("figure")
    return checker(d, ctx)


WORK_PARAMS = ("docs", "vocab", "terms", "updates", "inserts", "queries")
# The query classes bench_query_work runs: frequent terms, and rarer
# terms whose conjunctive seeks skip whole blocks.
WORK_CLASSES = ("unselective", "selective")
WORK_COUNTERS = ("postings_scanned", "score_lookups", "candidates_considered",
                 "blocks_decoded", "groups_galloped", "cursor_seeks",
                 "list_misses")


def _work_key(r):
    return (r["method"], r["class"], r["k"], r["semantics"])


def check_work(d, reference=None):
    """BENCH_work.json: the query work of all six methods as exact
    counter totals, one row per (method, query class, k, semantics). A
    rerun at the committed parameters must reproduce the committed rows
    exactly (the context block is ignored); a change that alters the
    work regenerates the artifact and says why."""
    ctx = require_context(d)
    assert d.get("validated") is True, "work bench ran without validation"
    keys = set()
    for r in d["rows"]:
        key = _work_key(r)
        assert key not in keys, "work repeats %s/%s/%s/%s" % key
        keys.add(key)
        for c in WORK_COUNTERS:
            assert isinstance(r[c], int) and r[c] >= 0, \
                "work %s/%s/%s/%s: bad %s" % (key + (c,))
    methods = {k[0] for k in keys}
    assert methods == set(TABLE1_METHODS), \
        "work bench covers %s, not the six methods" % sorted(methods)
    classes = {k[1] for k in keys}
    assert classes == set(WORK_CLASSES), \
        "work bench ran classes %s, not %s" % (sorted(classes),
                                              sorted(WORK_CLASSES))
    if reference is None:
        with open(WORK_REFERENCE) as f:
            reference = json.load(f)
    for p in WORK_PARAMS:
        assert d[p] == reference[p], \
            "work bench ran %s=%s, the committed artifact %s" % (
                p, d[p], reference[p])
    ref_rows = {_work_key(r): r for r in reference["rows"]}
    assert keys == set(ref_rows), "work rows differ from the committed set"
    for r in d["rows"]:
        key = _work_key(r)
        for c in WORK_COUNTERS:
            assert r[c] == ref_rows[key][c], \
                "work %s/%s/%s/%s: %s %d, committed %d" % (
                    key + (c, r[c], ref_rows[key][c]))
    return "work: %d rows equal the committed counters; %d CPUs" % (
        len(keys), ctx["hardware_concurrency"])


CHECKERS = {
    "merge_policy": check_merge_policy,
    "concurrent_churn": check_concurrent_churn,
    "sharded_churn": check_sharded_churn,
    "mvcc_churn": check_mvcc_churn,
    "durability": check_durability,
    "telemetry": check_telemetry,
    "server": check_server,
    "paper": check_paper,
    "work": check_work,
}


def _self_test_fixtures():
    """One passing payload per checker, plus a seeded failure for each."""
    context = {"hardware_concurrency": 4, "build_type": "Release",
               "compiler": "13.2.0"}
    def merge_round(i, short_postings, term_merges):
        return {"round": i, "short_postings": short_postings,
                "term_merges": term_merges}

    merge_ok = {"series": [
        {"method": m, "mode": mode,
         "rounds": [merge_round(i, sp, tm) for i, (sp, tm) in
                    enumerate(zip(postings, merges))]}
        for m in ("Chunk", "Score-Threshold")
        for mode, postings, merges in (
            ("off", (100, 200, 300), (0, 0, 0)),
            ("manual", (100, 0, 100), (0, 40, 40)),
            ("auto", (90, 150, 300), (3, 9, 12)))
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
    # Five interleaved pairs: rep 1 ran on a slow host (2.0x) but the
    # median pair holds 4x.
    dur_ok = {"context": context, "series": [
        {"kind": "commit", "rep": rep, "mode": mode, "ops_per_sec": ops}
        for rep, ratio in enumerate((4.0, 2.0, 5.0, 4.5, 3.5))
        for mode, ops in (("group", 100.0 * ratio), ("sync_each", 100.0))
    ] + [
        {"kind": "recovery", "wal_ops": 800, "checkpoint": True,
         "used_checkpoint": True, "mismatches": 0, "queries": 5,
         "replay_errors": 0, "wal_records_replayed": 50},
        {"kind": "recovery", "wal_ops": 800, "checkpoint": False,
         "used_checkpoint": False, "mismatches": 0, "queries": 5,
         "replay_errors": 0, "wal_records_replayed": 800},
    ]}
    spread = {"min_wall_ms": 900.0, "median_wall_ms": 950.0,
              "max_wall_ms": 1000.0}
    # Five off/on pairs: rep 1 ran on a slow host (1.30x) but the median
    # pair holds 1.01x.
    def telemetry_run(ratios):
        return {"context": context, "series": [
            {"rep": r, "mode": m, "mismatches": 0, "validated": 5,
             "wall_ms": 1000.0, "ops": 4000,
             "us_per_op": 250.0 * (ratio if m == "on" else 1.0)}
            for r, ratio in enumerate(ratios) for m in ("off", "on")
        ], "summary": {"overhead_ratio": statistics.median(ratios),
                       "dump_ok": True, "periodic_dumps": 12,
                       "off": spread, "on": spread}}

    telemetry_ok = telemetry_run((1.01, 1.30, 0.98, 1.02, 1.00))
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
    table1_bytes = {"ID": 1000, "Score": 9000, "Score-Threshold": 6000,
                    "Chunk": 1090, "ID-TermScore": 3000,
                    "Chunk-TermScore": 3050}
    table1_ok = {"figure": "table1", "context": context,
                 "rows": [{"method": m, "format": f, "long_bytes": b}
                          for f in ("v1", "v2")
                          for m, b in table1_bytes.items()]}
    table3_rows = []
    for layout, scale in (("btree", 4000), ("run", 500)):
        for n in (250, 500, 1000, 2000, 2500):
            table3_rows.append({"layout": layout, "inserted": n,
                                "short_bytes": scale * n,
                                "short_postings": 110 * n,
                                "bytes_per_inserted_doc": float(scale)})
        table3_rows.append({"layout": layout, "inserted": "merge+100",
                            "short_bytes": scale * 90,
                            "short_postings": 11000,
                            "bytes_per_inserted_doc": 0.9 * scale})
    table3_ok = {"figure": "table3", "docs": 10000, "context": context,
                 "rows": table3_rows}
    table3_btree_only = json.loads(json.dumps(table3_ok))
    table3_btree_only["rows"] = [r for r in table3_rows
                                 if r["layout"] == "btree"]
    work_rows = [{"method": m, "class": cls, "k": k, "semantics": sem,
                  "postings_scanned": 100 * k, "score_lookups": 40 * k,
                  "candidates_considered": 40 * k, "blocks_decoded": k,
                  "groups_galloped": int(cls == "selective"),
                  "cursor_seeks": 7 * k, "list_misses": 3 * k}
                 for m in TABLE1_METHODS for cls in WORK_CLASSES
                 for k in (1, 10) for sem in ("and", "or")]
    work_ok = {"bench": "work", "docs": 100, "vocab": 100, "terms": 10,
               "updates": 50, "inserts": 5, "queries": 2, "validated": True,
               "context": context, "rows": work_rows}
    work_other_host = json.loads(json.dumps(work_ok))
    work_other_host["context"]["hardware_concurrency"] = 64
    passing = {
        "merge_policy": merge_ok,
        "concurrent_churn": churn_ok,
        "sharded_churn": shard_ok,
        "mvcc_churn": mvcc_ok,
        "durability": dur_ok,
        "telemetry": telemetry_ok,
        "server": server_ok,
        "paper": [paper_ok, table1_ok, table3_ok, table3_btree_only],
        "work": [work_ok, work_other_host],
    }
    # Seeded failures: each flips exactly one property its checker gates.
    def without_context(payload):
        bad = json.loads(json.dumps(payload))
        del bad["context"]
        return bad

    def merge_with(series, round_index, **changes):
        bad = json.loads(json.dumps(merge_ok))
        bad["series"][series]["rounds"][round_index].update(changes)
        return bad

    merge_auto_idle = json.loads(json.dumps(merge_ok))
    for s in merge_auto_idle["series"]:
        if s["mode"] == "auto":
            s["rounds"][-1]["term_merges"] = 0
    churn_bad = json.loads(json.dumps(churn_ok))
    churn_bad["series"][2]["write_merge_ms"] = 20.0  # bg slower than sync
    shard_bad = json.loads(json.dumps(shard_ok))
    shard_bad["series"][2]["writer_ops_per_sec"] = 1.0  # regressed curve
    mvcc_bad = json.loads(json.dumps(mvcc_ok))
    mvcc_bad["series"][2]["mismatches"] = 1  # oracle divergence
    dur_bad = json.loads(json.dumps(dur_ok))
    for s in dur_bad["series"]:  # median pair 2.5x
        if s["kind"] == "commit" and s["mode"] == "group":
            s["ops_per_sec"] = {0: 250.0, 1: 200.0, 2: 500.0, 3: 450.0,
                                4: 250.0}[s["rep"]]
    dur_half_pair = json.loads(json.dumps(dur_ok))
    del dur_half_pair["series"][3]  # rep 1 without its sync_each run
    telemetry_slow = telemetry_run((1.06, 1.08, 1.00, 1.07, 1.02))  # 1.06
    telemetry_no_dumps = json.loads(json.dumps(telemetry_ok))
    telemetry_no_dumps["summary"]["periodic_dumps"] = 0
    telemetry_half_pair = json.loads(json.dumps(telemetry_ok))
    del telemetry_half_pair["series"][3]  # rep 1 without its on run
    telemetry_no_ops = json.loads(json.dumps(telemetry_ok))
    telemetry_no_ops["series"][2]["ops"] = 0  # a rep that completed nothing
    server_bad = json.loads(json.dumps(server_ok))
    server_bad["series"][4]["rejected"] = 0  # admission never shed
    paper_slow_chunk = json.loads(json.dumps(paper_ok))
    paper_slow_chunk["rows"][7]["qry_pages"] = 25.0  # Chunk > ST at k=10
    paper_id_climbs = json.loads(json.dumps(paper_ok))
    paper_id_climbs["rows"][2]["qry_pages"] = 60.0  # ID not flat
    paper_unvalidated = json.loads(json.dumps(paper_ok))
    paper_unvalidated["validated"] = False

    def table1_with(fmt, method, long_bytes):
        bad = json.loads(json.dumps(table1_ok))
        for r in bad["rows"]:
            if r["format"] == fmt and r["method"] == method:
                r["long_bytes"] = long_bytes
        return bad

    table1_v1_only = json.loads(json.dumps(table1_ok))
    table1_v1_only["rows"] = [r for r in table1_v1_only["rows"]
                              if r["format"] == "v1"]
    table1_no_chunk = json.loads(json.dumps(table1_ok))
    table1_no_chunk["rows"] = [r for r in table1_no_chunk["rows"]
                               if r["method"] != "Chunk"]
    def table3_with(layout, inserted, short_bytes):
        bad = json.loads(json.dumps(table3_ok))
        for r in bad["rows"]:
            if r["layout"] == layout and r["inserted"] == inserted:
                r["short_bytes"] = short_bytes
        return bad

    def work_with(**changes):
        bad = json.loads(json.dumps(work_ok))
        for key, value in changes.items():
            if key in WORK_COUNTERS:
                bad["rows"][3][key] = value
            else:
                bad[key] = value
        return bad

    work_missing_row = json.loads(json.dumps(work_ok))
    del work_missing_row["rows"][5]
    # The class is part of the row key: a row relabelled to the other
    # class repeats a key, and a run without the selective class lacks
    # half the committed rows.
    work_class_repeat = json.loads(json.dumps(work_ok))
    work_class_repeat["rows"][4]["class"] = "unselective"
    work_one_class = json.loads(json.dumps(work_ok))
    work_one_class["rows"] = [r for r in work_one_class["rows"]
                              if r["class"] == "unselective"]
    failing = {
        "merge_policy": [
            merge_auto_idle,
            merge_with(3, 2, short_postings=200),  # ST off stalls
            merge_with(5, 1, short_postings=201),  # ST auto above off
            merge_with(1, 1, short_postings=5),  # Chunk manual keeps 5
        ],
        "concurrent_churn": [churn_bad, without_context(churn_ok)],
        "sharded_churn": [shard_bad],
        "mvcc_churn": [mvcc_bad],
        "durability": [dur_bad, dur_half_pair, without_context(dur_ok)],
        "telemetry": [telemetry_slow, telemetry_no_dumps, telemetry_half_pair,
                      telemetry_no_ops, without_context(telemetry_ok)],
        "server": [server_bad],
        "paper": [paper_slow_chunk, paper_id_climbs, paper_unvalidated,
                  without_context(paper_ok), dict(paper_ok, figure="fig9"),
                  table1_v1_only, table1_no_chunk,
                  table1_with("v2", "Chunk", 1300),  # Chunk > 1.25x ID
                  table1_with("v1", "Chunk", 990),  # Chunk < ID
                  table1_with("v2", "Score", 5000),  # Score < ST
                  table1_with("v2", "Score-Threshold", 3020),  # ST < C-TS
                  table1_with("v1", "ID-TermScore", 1050),  # ID-TS < Chunk
                  without_context(table1_ok),
                  table3_with("run", 1000, 499 * 500),  # run bytes fell
                  table3_with("btree", "merge+100", 10000000),  # no drop
                  table3_with("run", 250, 4001 * 250),  # run > btree
                  table3_with("run", 2500, 2001 * 1000),  # < 5x smaller
                  without_context(table3_ok)],
        "work": [work_with(postings_scanned=999),  # counter moved
                 work_with(list_misses=0),
                 work_with(queries=3),  # other parameters
                 work_with(validated=False),
                 work_missing_row, work_class_repeat, work_one_class,
                 without_context(work_ok)],
    }
    return passing, failing


def self_test():
    passing, failing = _self_test_fixtures()
    assert set(passing) == set(CHECKERS), "fixture per checker required"
    # check_work compares against the first passing work fixture instead
    # of the committed artifact.
    checkers = dict(CHECKERS, work=functools.partial(
        check_work, reference=passing["work"][0]))
    for bench, payloads in passing.items():
        if not isinstance(payloads, list):
            payloads = [payloads]
        for payload in payloads:
            assert checkers[bench](payload), bench
    for bench, payloads in failing.items():
        for payload in payloads:
            try:
                checkers[bench](payload)
            except AssertionError:
                continue
            raise SystemExit(
                "self-test: %s checker accepted a seeded failure" % bench)
    _self_test_every_file_reported(passing, failing)
    print("check_bench_json.py --self-test: OK (%d checkers, each "
          "accepts its passing fixture and rejects its seeded failures; "
          "a failing file hides no later verdict)" % len(CHECKERS))
    return 0


def _self_test_every_file_reported(passing, failing):
    """A failing file, then an unknown bench kind, then a passing file:
    all three verdicts print, in order, and the exit status is 1."""
    files = [("failing.json", dict(failing["merge_policy"][0],
                                   bench="merge_policy")),
             ("unknown.json", {"bench": "no_such_bench"}),
             ("passing.json", dict(passing["merge_policy"],
                                   bench="merge_policy"))]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, payload in files:
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w") as f:
                json.dump(payload, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            status = check_files(paths)
    # "<path>: OK (summary)" or "<path>: FAIL: reason" -> OK / FAIL
    verdicts = [line.split(": ", 2)[1].split(" ")[0]
                for line in out.getvalue().splitlines()]
    if status != 1 or verdicts != ["FAIL", "FAIL", "OK"]:
        raise SystemExit("self-test: expected FAIL, FAIL, OK and exit 1; "
                         "got %r and exit %d" % (out.getvalue(), status))


def check_file(path):
    """Checks one artifact; prints and returns its verdict (True = OK)."""
    with open(path) as f:
        d = json.load(f)
    bench = d.get("bench")
    checker = CHECKERS.get(bench)
    if checker is None:
        print("%s: FAIL: unknown bench kind %r" % (path, bench),
              file=sys.stderr)
        return False
    try:
        summary = checker(d)
    except AssertionError as e:
        print("%s: FAIL: %s" % (path, e), file=sys.stderr)
        return False
    print("%s: OK (%s)" % (path, summary))
    return True


def check_files(paths):
    """Checks every file, so one failure hides no later verdict; 1 if
    any failed."""
    verdicts = [check_file(path) for path in paths]
    return 0 if all(verdicts) else 1


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) < 2:
        print("usage: check_bench_json.py [--self-test] BENCH_*.json...",
              file=sys.stderr)
        return 2
    return check_files(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
