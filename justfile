# Dev recipes mirroring .github/workflows/ci.yml — keep the two in
# lockstep so "works locally" and "passes CI" mean the same thing.
# Usage: `just` lists recipes; `just verify` is the tier-1 gate.

# List available recipes.
default:
    @just --list

# Tier-1 verify (ROADMAP.md): release build + quiet workspace tests.
verify:
    cargo build --release
    cargo test -q --workspace

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
# of `--seconds 15 --trace 0` (REV first in odd pairs), keeps every run's
# JSON line under target/bench-ab/, and prints each end-to-end metric's
# median and quartiles per side and the pairs the working tree won.
# Example: `just bench-ab HEAD~1 sparse-solve 10 7`.
bench-ab REV WORKLOAD PAIRS="10" SEED="7":
    #!/usr/bin/env python3
    import json, math, pathlib, subprocess
    rev, workload, pairs, seed = "{{REV}}", "{{WORKLOAD}}", int("{{PAIRS}}"), "{{SEED}}"
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
    runs = {"base": [], "change": []}
    for k in range(1, pairs + 1):
        for side in (["base", "change"] if k % 2 else ["change", "base"]):
            exe = trees[side] / "perfbench" / "target" / "release" / "perfbench"
            args = [str(exe), "--workload", workload, "--seed", seed, "--seconds", "15", "--trace", "0"]
            line = subprocess.run(args, check=True, capture_output=True, text=True).stdout.strip().splitlines()[-1]
            (out / f"{workload}-s{seed}-{side}-{k:02}.json").write_text(line + "\n")
            runs[side].append(json.loads(line))
            print(f"pair {k}/{pairs} {side}: " + ", ".join(
                f"{name} {m['value']:.4g}" for name, m in runs[side][-1]["metrics"].items()), flush=True)
    def rank(xs, p):
        return sorted(xs)[max(1, math.ceil(p * len(xs) / 100)) - 1]
    print(f"\n{workload}, seed {seed}, {pairs} pairs: base {rev} ({sha[:12]}) vs working tree")
    for side in runs:
        failed = sum(r["failed"] for r in runs[side])
        print(f"  {side}: {failed} failed of {sum(r['attempted'] for r in runs[side])} operations")
    for metric in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        b, c = rank(vals["base"], 50), rank(vals["change"], 50)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(vals["base"], vals["change"]))
        change = f"{100 * (c - b) / b:+.1f}%" if b else "n/a"
        print(f"  {name:12} base {b:.4g} ({rank(vals['base'], 25):.4g}-{rank(vals['base'], 75):.4g})"
              f"  change {c:.4g} ({rank(vals['change'], 25):.4g}-{rank(vals['change'], 75):.4g})"
              f"  {change}  wins {wins}/{pairs}  [{metric['unit']}, {metric['better']} is better]")

# End-to-end solve bench: the full pipeline on the session engine only,
# at one and eight engine threads (criterion). The standalone perfbench/
# harness (BENCHMARK.json) measures engine and server speed.
bench-solve:
    cargo bench -p bench --bench solve_pipeline

# Chaos bench: the E0e fault-injection sweep (drop × delay × dup plans
# through the full pipeline; BENCH_7.json at the repo root is the
# committed full-scale snapshot). Its run asserts proper colorings and
# byte-identical transcripts between the session engine and the
# reference oracle and across threads {1, 2, 8}.
bench-chaos:
    cargo run --release -p bench --bin experiments -- --json BENCH_7.json E0e

# Sharding bench: the E0f ownership-sharding sweep (shards {1, 2, 4, 8}
# × threads {1, 2, 8} through the full pipeline; BENCH_8.json at the
# repo root is the committed full-scale snapshot). Its run asserts
# byte-identical transcripts across every cell and the owner/ghost
# engine's ≤2 barrier-waits/round budget.
bench-sharding:
    cargo run --release -p bench --bin experiments -- --json BENCH_8.json E0f

# Crash bench: the E0g crash-chaos sweep (crash-rate × recovery-delay
# plans over the shards {1, 2, 4, 8} × threads {1, 2, 8} grid;
# BENCH_9.json at the repo root is the committed full-scale snapshot).
# Its run asserts proper colorings on the live graph and byte-identical
# transcripts across every geometry and against the reference engine
# before any timing is reported.
bench-crash:
    cargo run --release -p bench --bin experiments -- --json BENCH_9.json E0g

# Async bench: the E0h async-schedule sweep (jitter / straggler /
# anti-FIFO / burst schedule adversaries over the shards {1, 2, 4, 8}
# × threads {1, 2, 8} grid; the session replays the α-synchronizer's
# pulse clocks after each pass's round loop; BENCH_10.json at the repo
# root is the committed full-scale snapshot). Its run asserts
# byte-identical transcripts vs the synchronous engine,
# geometry-invariant overhead counters, and a loud ScheduleStalled on
# the wedged arm before any timing is reported.
bench-async:
    cargo run --release -p bench --bin experiments -- --json BENCH_10.json E0h

# The E0e–E0h adversary sweeps at quick scale, as CI's smoke job runs
# them: faults, sharding, crashes and async schedules through the whole
# pipeline, each asserting proper colorings and byte-identical
# transcripts before it prints its counters.
adversaries-quick:
    cargo run -q --release -p bench --bin experiments -- --quick --json solve-chaos-quick.json E0e
    cargo run -q --release -p bench --bin experiments -- --quick --json engine-sharding-quick.json E0f
    cargo run -q --release -p bench --bin experiments -- --quick --json solve-crash-quick.json E0g
    cargo run -q --release -p bench --bin experiments -- --quick --json solve-async-quick.json E0h

# Full-scale scenario sweep (S1–S6) → BENCH_3.json, the committed
# snapshot EXPERIMENTS.md's full-scale section is rendered from. Slow;
# rerun only when solver behaviour changes, then `just experiments-md`.
sweep-json:
    cargo run --release -p bench --bin experiments -- --sweep --json BENCH_3.json

# Regenerate EXPERIMENTS.md: a fresh quick-scale sweep (deterministic —
# no wall-clock data is rendered from it) + the committed BENCH_3.json.
# Byte-identical unless measured behaviour changed; CI fails on drift.
experiments-md:
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
# fault-injection differentials and the shard-differential battery at
# nightly depth (PROPTEST_CASES is the repo-wide case-count knob; see
# tests/common/mod.rs).
test-slow:
    cargo test -q --workspace --features slow-tests
    PROPTEST_CASES=96 cargo test -q --test prop_invariants faulty_
    PROPTEST_CASES=96 cargo test -q --test prop_invariants sharded_
    PROPTEST_CASES=96 cargo test -q --test prop_invariants crashed_
    PROPTEST_CASES=96 cargo test -q --test prop_invariants async_

# Rustdoc exactly as CI enforces it (warnings are errors).
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Everything CI checks, in CI order.
ci: verify lint doc bench-smoke examples adversaries-quick experiments-md
