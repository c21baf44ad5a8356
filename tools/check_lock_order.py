#!/usr/bin/env python3
"""Lock-order lint: extract nested mutex acquisitions and reject cycles.

Clang's thread-safety analysis proves *which* lock a function holds, but
it cannot see through the dynamically-indexed mutex vectors the sharded
engine uses (``shard_log_mu_[shard]``), and ACQUIRED_BEFORE/AFTER
annotations only cover pairs someone remembered to declare.  This lint
closes that gap textually:

  1. It scans ``src/**/*.{h,cc}`` for lexically nested lock
     acquisitions (MutexLock / ReaderMutexLock / WriterMutexLock /
     std::unique_lock / std::lock_guard / std::shared_lock /
     ``locks.emplace_back(*mu_[i])``) and records each *outer -> inner*
     pair, qualified by file stem so ``mu_`` in log_writer.cc cannot
     alias ``mu_`` in epoch.cc.
  2. It parses ACQUIRED_BEFORE / ACQUIRED_AFTER annotations into edges.
  3. It merges both with the repo's declared cross-subsystem order (see
     DECLARED_EDGES below and docs/static_analysis.md) and rejects any
     cycle in the combined graph, as well as any self-acquisition of a
     mutex that is not a whitelisted per-shard array (those are acquired
     in ascending shard index, which is cycle-free by construction).

``--self-test`` runs the extractor over synthetic sources containing a
seeded cycle and asserts the lint rejects it (and accepts a clean set).

Exit status: 0 clean, 1 violation, 2 usage/internal error.
"""

import argparse
import os
import re
import sys
import tempfile

# The repo-wide declared order (docs/static_analysis.md): an edge a -> b
# means "a may be held while acquiring b".  Cross-file nestings are not
# lexically visible to the extractor, so they are declared here.
DECLARED_EDGES = [
    # Sharded write path: the per-shard write mutex, then the target
    # engine's writer mutex.
    ("sharded_engine:shard_log_mu_", "svr_engine:writer_mu_"),
    # The per-shard write mutex also serialises WAL appends; the WAL
    # writer's internal mutex nests inside it.
    ("sharded_engine:shard_log_mu_", "log_writer:mu_"),
    # The id-map reader/writer lock nests inside the per-shard mutex.
    ("sharded_engine:shard_log_mu_", "sharded_engine:map_mu_"),
    # Checkpoints exclude writers while holding the checkpoint run lock.
    ("sharded_engine:ckpt_run_mu_", "sharded_engine:shard_log_mu_"),
    # Merge scheduler: lifecycle (start/stop) before its queue mutex.
    ("merge_scheduler:lifecycle_mu_", "merge_scheduler:mu_"),
]

# Per-shard mutex arrays: acquired [0..n) in ascending index, so a
# "self" nesting (holding one element while taking another) is legal.
ASCENDING_ARRAYS = {
    "sharded_engine:shard_log_mu_",
}

# One lock construction.  Group 'name' is the mutex expression.
ACQUIRE_RE = re.compile(
    r"""
    \b(?:
        (?:MutexLock|ReaderMutexLock|WriterMutexLock)\s+\w+\s*\(
      | std::(?:unique_lock|lock_guard|shared_lock|scoped_lock)\s*<[^>]*>\s*(?:\w+\s*)?\(
      | \w+\.(?:emplace_back|push_back)\s*\(
    )\s*(?P<name>[^);]+)
    """,
    re.VERBOSE,
)

ANNOT_RE = re.compile(
    r"\b(?P<kind>ACQUIRED_BEFORE|ACQUIRED_AFTER)\s*\(\s*(?P<arg>\w+)\s*\)"
)
MEMBER_RE = re.compile(r"\b(?:Mutex|SharedMutex|std::shared_mutex|std::mutex)\s+(?P<name>\w+)")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", " ", text)
    # String literals can contain braces/parens; blank them out.
    text = re.sub(r'"(?:[^"\\]|\\.)*"', '""', text)
    return text


def mutex_name(expr):
    """Extract the mutex member from a lock-construction argument.

    ``*shard_log_mu_[loc.shard]`` -> shard_log_mu_;  ``ckpt_mu_`` ->
    ckpt_mu_; ``batch->mu`` -> mu.  Returns None for non-mutex args
    (the emplace_back pattern also matches ordinary vectors).
    """
    expr = expr.strip()
    # Indexed arrays: the identifier immediately before '['.
    m = re.match(r"\*?\s*(?:\w+(?:->|\.))*(\w+)\s*\[", expr)
    if m:
        name = m.group(1)
    else:
        m = re.match(r"\*?\s*(?:\w+(?:->|\.))*(\w+)\s*$", expr)
        if not m:
            return None
        name = m.group(1)
    return name if "mu" in name else None


def extract_file_edges(stem, text):
    """Lexically nested (outer, inner) acquisition pairs in one file."""
    text = strip_comments(text)
    edges = []
    self_pairs = []
    depth = 0
    held = []  # (depth_at_acquisition, qualified_name)
    pos = 0
    token_re = re.compile(r"[{}]|\b(?:MutexLock|ReaderMutexLock|WriterMutexLock|std::unique_lock|std::lock_guard|std::shared_lock|std::scoped_lock|\w+\.emplace_back|\w+\.push_back)\b")
    while True:
        m = token_re.search(text, pos)
        if not m:
            break
        tok = m.group(0)
        if tok == "{":
            depth += 1
            pos = m.end()
            continue
        if tok == "}":
            depth -= 1
            while held and held[-1][0] > depth:
                held.pop()
            if depth <= 0:
                depth = 0
                held.clear()
            pos = m.end()
            continue
        am = ACQUIRE_RE.match(text, m.start())
        if not am:
            pos = m.end()
            continue
        name = mutex_name(am.group("name"))
        pos = am.end()
        if name is None:
            continue
        qname = f"{stem}:{name}"
        for _, outer in held:
            if outer == qname:
                self_pairs.append(qname)
            else:
                edges.append((outer, qname))
        held.append((depth, qname))
    return edges, self_pairs


def extract_annotation_edges(stem, text):
    """ACQUIRED_BEFORE/AFTER annotations on mutex members."""
    edges = []
    for line in strip_comments(text).splitlines():
        mm = MEMBER_RE.search(line)
        if not mm:
            continue
        owner = f"{stem}:{mm.group('name')}"
        for am in ANNOT_RE.finditer(line):
            other = f"{stem}:{am.group('arg')}"
            if am.group("kind") == "ACQUIRED_BEFORE":
                edges.append((owner, other))
            else:
                edges.append((other, owner))
    return edges


def find_cycle(edges):
    graph = {}
    for a, b in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in graph}
    parent = {}

    for start in sorted(graph):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(sorted(graph[start])))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(graph[nxt]))))
                    advanced = True
                    break
                if color[nxt] == GRAY:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def lint(root, declared_edges, ascending, verbose):
    observed = []
    self_pairs = []
    annotated = []
    for dirpath, _, files in sorted(os.walk(os.path.join(root, "src"))):
        for fn in sorted(files):
            if not fn.endswith((".h", ".cc")):
                continue
            stem = os.path.splitext(fn)[0]
            with open(os.path.join(dirpath, fn), encoding="utf-8") as f:
                text = f.read()
            e, s = extract_file_edges(stem, text)
            observed.extend(e)
            self_pairs.extend(s)
            annotated.extend(extract_annotation_edges(stem, text))

    failures = []
    for name in self_pairs:
        if name not in ascending:
            failures.append(
                f"self-acquisition of {name} while already held "
                f"(only ascending per-shard arrays may do this)")

    all_edges = sorted(set(observed) | set(annotated) | set(declared_edges))
    if verbose:
        print("observed acquisition pairs:")
        for a, b in sorted(set(observed)):
            print(f"  {a} -> {b}")
        print("annotation edges:")
        for a, b in sorted(set(annotated)):
            print(f"  {a} -> {b}")
    cycle = find_cycle(all_edges)
    if cycle:
        failures.append("lock-order cycle: " + " -> ".join(cycle))
    return failures, observed


def self_test():
    """The seeded-cycle test this script must fail, plus a clean set."""
    clean = {
        "engine.cc": """
            void Engine::Write() {
              MutexLock a(alpha_mu_);
              MutexLock b(beta_mu_);
            }
        """,
        "engine.h": """
            class Engine {
              Mutex alpha_mu_ ACQUIRED_BEFORE(beta_mu_);
              Mutex beta_mu_;
            };
        """,
    }
    cyclic = dict(clean)
    cyclic["engine.cc"] = clean["engine.cc"] + """
        void Engine::Read() {
          MutexLock b(beta_mu_);
          MutexLock a(alpha_mu_);  // seeded inversion
        }
    """
    declared = [("engine:alpha_mu_", "engine:beta_mu_")]

    def run(files, declared_edges):
        with tempfile.TemporaryDirectory() as td:
            os.mkdir(os.path.join(td, "src"))
            for name, text in files.items():
                with open(os.path.join(td, "src", name), "w",
                          encoding="utf-8") as f:
                    f.write(text)
            failures, observed = lint(td, declared_edges, set(), False)
            return failures, observed

    failures, observed = run(clean, declared)
    assert not failures, f"clean set must pass, got: {failures}"
    assert ("engine:alpha_mu_", "engine:beta_mu_") in observed, observed

    failures, observed = run(cyclic, declared)
    assert any("cycle" in f for f in failures), (
        f"seeded inversion must be rejected, got: {failures}")
    assert ("engine:beta_mu_", "engine:alpha_mu_") in observed, observed

    # Non-whitelisted self-acquisition is rejected; whitelisted passes.
    nested_self = {
        "pool.cc": """
            void Pool::Grab() {
              std::unique_lock<Mutex> a(*shard_mu_[i]);
              std::unique_lock<Mutex> b(*shard_mu_[j]);
            }
        """,
    }
    failures, _ = run(nested_self, [])
    assert any("self-acquisition" in f for f in failures), failures
    with tempfile.TemporaryDirectory() as td:
        os.mkdir(os.path.join(td, "src"))
        with open(os.path.join(td, "src", "pool.cc"), "w",
                  encoding="utf-8") as f:
            f.write(nested_self["pool.cc"])
        failures, _ = lint(td, [], {"pool:shard_mu_"}, False)
        assert not failures, failures

    print("check_lock_order.py --self-test: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repo root containing src/ (default: cwd)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in extractor/cycle tests")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print every extracted edge")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    if not os.path.isdir(os.path.join(args.root, "src")):
        print(f"error: no src/ under {args.root}", file=sys.stderr)
        return 2
    failures, observed = lint(args.root, DECLARED_EDGES, ASCENDING_ARRAYS,
                              args.verbose)
    if failures:
        for f in failures:
            print(f"lock-order violation: {f}", file=sys.stderr)
        return 1
    print(f"check_lock_order.py: {len(set(observed))} acquisition pair(s), "
          f"no cycles against the declared order")
    return 0


if __name__ == "__main__":
    sys.exit(main())
