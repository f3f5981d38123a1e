# Dev recipes mirroring .github/workflows/ci.yml — keep the two in
# lockstep so "works locally" and "passes CI" mean the same thing.
# Usage: `just` lists recipes; `just verify` is the tier-1 gate.

# List available recipes.
default:
    @just --list

# Tier-1 verify (ROADMAP.md): release build + quiet workspace tests, then
# the solve-server battery at release speed.
verify:
    cargo build --release
    cargo test -q --workspace
    cargo test --release -q --test server_concurrency

# Lints exactly as CI enforces them.
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --check

# Auto-fix formatting (lint's writable sibling).
fmt:
    cargo fmt

# Smoke-compile every criterion bench without running it, and build and
# test the benchmark harness (perfbench/, its own workspace) against the
# library crates.
bench-smoke:
    cargo bench --workspace --no-run
    cargo test --offline --manifest-path perfbench/Cargo.toml

# Run the real benches (slow; criterion-shim timing output).
bench:
    cargo bench --workspace

# A/B-compare one BENCHMARK.json workload between commit REV and the
# working tree: builds perfbench at REV (in a git worktree under
# target/bench-ab/) and at the working tree, runs PAIRS alternating pairs
# of `--seconds 15 --trace TRACE`, keeps every run's JSON line under
# target/bench-ab/, and prints each metric's median and quartiles per
# side and the pairs the working tree won: the end-to-end metrics, and
# with TRACE=1 every per-layer metric too. Traced times are not rescaled
# to the reference host, so each `*.s` span is also printed times its
# run's `bench.host_speed`. SEED may list several seeds (`7,97`): pair k
# runs seed k mod the list's length, each seed's pairs alternate which
# side runs first (REV first in its odd pairs), and the rows are printed
# per seed and then pooled over all pairs. A single seed prints only its
# own rows.
# Example: `just bench-ab HEAD~1 sparse-solve 10 7,97 1`.
bench-ab REV WORKLOAD PAIRS="10" SEED="7" TRACE="0":
    #!/usr/bin/env python3
    import json, math, pathlib, subprocess
    rev, workload, pairs = "{{REV}}", "{{WORKLOAD}}", int("{{PAIRS}}")
    seeds = [s.strip() for s in "{{SEED}}".split(",") if s.strip()]
    trace = "{{TRACE}}"
    root = pathlib.Path(".").resolve()
    out = root / "target" / "bench-ab"
    out.mkdir(parents=True, exist_ok=True)
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    base = out / sha[:12]
    if not base.exists():
        subprocess.run(["git", "worktree", "add", "--detach", str(base), sha], check=True)
    trees = {"base": base, "change": root}
    for tree in trees.values():
        subprocess.run(["cargo", "build", "--release", "--quiet", "--offline",
                        "--manifest-path", str(tree / "perfbench" / "Cargo.toml")], check=True)
    # runs[side][k - 1] is pair k's run on that side, with pair k's seed.
    runs = {"base": [], "change": []}
    for k in range(1, pairs + 1):
        seed = seeds[(k - 1) % len(seeds)]
        turn = (k - 1) // len(seeds)
        for side in (["base", "change"] if turn % 2 == 0 else ["change", "base"]):
            exe = trees[side] / "perfbench" / "target" / "release" / "perfbench"
            args = [str(exe), "--workload", workload, "--seed", seed, "--seconds", "15", "--trace", trace]
            line = subprocess.run(args, check=True, capture_output=True, text=True).stdout.strip().splitlines()[-1]
            (out / f"{workload}-s{seed}-t{trace}-{side}-{k:02}.json").write_text(line + "\n")
            runs[side].append((seed, json.loads(line)))
            label = f"pair {k}/{pairs} {side}" if len(seeds) == 1 else f"pair {k}/{pairs} seed {seed} {side}"
            print(f"{label}: " + ", ".join(
                f"{name} {m['value']:.4g}" for name, m in runs[side][-1][1]["metrics"].items()), flush=True)
    def rank(xs, p):
        return sorted(xs)[max(1, math.ceil(p * len(xs) / 100)) - 1]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    def report(label, picked):
        sides = {side: [r for seed, r in runs[side] if seed in picked] for side in runs}
        n = len(sides["base"])
        def compare(name, unit, better, value):
            vals = {side: [value(r) for r in sides[side]] for side in sides}
            b, c = rank(vals["base"], 50), rank(vals["change"], 50)
            lower = better == "lower"
            wins = sum((y < x) if lower else (y > x) for x, y in zip(vals["base"], vals["change"]))
            change = f"{100 * (c - b) / b:+.1f}%" if b else "n/a"
            print(f"  {name:28} base {b:.4g} ({rank(vals['base'], 25):.4g}-{rank(vals['base'], 75):.4g})"
                  f"  change {c:.4g} ({rank(vals['change'], 25):.4g}-{rank(vals['change'], 75):.4g})"
                  f"  {change}  wins {wins}/{n}  [{unit}, {better} is better]")
        print(f"\n{workload}, {label}, trace {trace}, {n} pairs: base {rev} ({sha[:12]}) vs working tree")
        for side in sides:
            failed = sum(r["failed"] for r in sides[side])
            correct = all(r["correct"] for r in sides[side])
            print(f"  {side}: {failed} failed of {sum(r['attempted'] for r in sides[side])} operations, correct={correct}")
        for metric in spec["end_to_end"] + (spec["per_layer"] if trace == "1" else []):
            name = metric["name"]
            if not all(name in r["metrics"] for side in sides for r in sides[side]):
                continue
            compare(name, metric["unit"], metric["better"], lambda r: r["metrics"][name]["value"])
            if trace == "1" and name.endswith(".s"):
                compare(name + " x host_speed", metric["unit"], metric["better"],
                        lambda r: r["metrics"][name]["value"] * r["metrics"]["bench.host_speed"]["value"])
    for seed in seeds:
        report(f"seed {seed}", {seed})
    if len(seeds) > 1:
        report(f"seeds {','.join(seeds)} pooled", set(seeds))

# End-to-end solve bench: the full pipeline on the session engine only,
# at one and eight engine threads (criterion). The standalone perfbench/
# harness (BENCHMARK.json) measures engine and server speed.
bench-solve:
    cargo bench -p bench --bench solve_pipeline

# The E0e–E0h adversary grid at quick scale, as CI's smoke job runs it:
# message faults, sharding, crashes and async schedules through the
# whole pipeline. Every table asserts proper colorings and
# byte-identical transcripts before it prints its counters. The rows,
# without their wall-clock columns and the host-core count in the
# titles, are seed-deterministic: MODE=check (the default) fails if they
# differ from the committed ADVERSARIES.json, MODE=write rewrites that
# file (`just adversaries-json`). For the full-scale tables, run the
# experiments command without `--quick` and `--json` (about 30 s on a
# 2-vCPU VM).
adversaries MODE="check":
    #!/usr/bin/env bash
    set -euo pipefail
    cargo run -q --release -p bench --bin experiments -- --quick --json adversaries-quick.json E0e E0f E0g E0h
    python3 - "{{MODE}}" <<'EOF'
    import json, re, sys
    def strip(grid):
        grid = {k: v for k, v in grid.items() if k != "host"}
        for e in grid["experiments"]:
            e.pop("wall_seconds", None)
            e["title"] = re.sub(r" \(host cores=\d+\)", "", e["title"])
            keep = [i for i, c in enumerate(e["columns"]) if not c.startswith("wall")]
            e["columns"] = [e["columns"][i] for i in keep]
            e["rows"] = [[row[i] for i in keep] for row in e["rows"]]
        return grid
    fresh = strip(json.load(open("adversaries-quick.json")))
    if sys.argv[1] == "write":
        text = json.dumps(fresh, indent=1, ensure_ascii=False)
        # One line per row and per column list.
        text = re.sub(r"\[\n\s*([^\[\]{}]*?)\n\s*\]",
                      lambda m: "[" + re.sub(r",\n\s*", ", ", m.group(1)) + "]", text)
        open("ADVERSARIES.json", "w").write(text + "\n")
    else:
        snap = json.load(open("ADVERSARIES.json"))
        drift = [e["id"] for e, f in zip(snap["experiments"], fresh["experiments"]) if e != f]
        if fresh != snap:
            raise SystemExit(f"ADVERSARIES.json differs from a fresh quick grid ({drift or 'header'}): rerun `just adversaries-json`")
    EOF

# Regenerate ADVERSARIES.json, the committed quick adversary-grid rows
# CI checks, from a fresh quick run of E0e–E0h. Rerun only when solver
# or engine behaviour changes on purpose.
adversaries-json: (adversaries "write")

# Full-scale scenario sweep (S1–S6) → BENCH_3.json, the committed
# snapshot EXPERIMENTS.md's full-scale section is rendered from. Slow;
# rerun only when solver behaviour changes, then `just experiments-md`.
sweep-json:
    cargo run --release -p bench --bin experiments -- --sweep --json BENCH_3.json

# Check the committed BENCH_3.json against a fresh full-scale sweep with
# every `wall_seconds` and the `host` record removed (the rest is
# seed-deterministic), then
# regenerate EXPERIMENTS.md: a fresh quick-scale sweep (deterministic —
# no wall-clock data is rendered from it) + the committed BENCH_3.json.
# Byte-identical unless measured behaviour changed; CI fails on drift.
experiments-md:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo run --release -p bench --bin experiments -- --sweep --json target/sweep-full.json
    python3 - <<'EOF'
    import json
    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k not in ("wall_seconds", "host")}
        return [strip(v) for v in x] if isinstance(x, list) else x
    fresh, snap = (strip(json.load(open(p))) for p in ("target/sweep-full.json", "BENCH_3.json"))
    drift = [s["id"] for s, t in zip(fresh["sweeps"], snap["sweeps"]) if s != t]
    if fresh != snap:
        raise SystemExit(f"BENCH_3.json differs from a fresh full sweep ({drift or 'header'}): rerun `just sweep-json`")
    EOF
    cargo run --release -p bench --bin experiments -- --sweep --quick --json target/sweep-quick.json
    cargo run --release -p bench --bin experiments -- --render-experiments EXPERIMENTS.md --from-full BENCH_3.json --from-quick target/sweep-quick.json

# Run every example end-to-end with its built-in tiny inputs, then the
# quick experiment tables CI's smoke job runs (same id list).
examples:
    cargo run -q --release --example quickstart
    cargo run -q --release --example acd_explorer
    cargo run -q --release --example congestion_showdown
    cargo run -q --release --example sparsity_census
    cargo run -q --release --example triangle_monitor
    cargo run -q --release --example uniform_pipeline
    cargo run -q --release -p bench --bin experiments -- --quick E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 E13 E14 E15 E16a E16b E16c

# Full generator × seed matrix (the nightly CI job), plus the
# fault-injection, shard, crash, async-schedule, fault-free router and
# solve-server batteries at nightly depth, in the same order as CI's
# slow-matrix job (PROPTEST_CASES is the repo-wide case-count knob; see
# tests/common/mod.rs).
test-slow:
    cargo test -q --workspace --features slow-tests
    PROPTEST_CASES=96 cargo test -q --test prop_invariants faulty_
    PROPTEST_CASES=96 cargo test -q --test prop_invariants sharded_
    PROPTEST_CASES=96 cargo test -q --test prop_invariants crashed_
    PROPTEST_CASES=96 cargo test -q --test prop_invariants async_
    PROPTEST_CASES=96 cargo test -q --test prop_invariants mailbox_
    PROPTEST_CASES=96 cargo test -q --test prop_invariants session_
    PROPTEST_CASES=96 cargo test -q --test prop_invariants solve_server_
    PROPTEST_CASES=96 cargo test -q --test server_concurrency duplicate_submissions_

# Rustdoc exactly as CI enforces it (warnings are errors).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Everything CI checks, in CI order.
ci: verify lint doc bench-smoke examples adversaries experiments-md
