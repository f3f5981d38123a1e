//! The report emitter: renders committed sweep JSON into the generated
//! `EXPERIMENTS.md`.
//!
//! `EXPERIMENTS.md` is a *build artifact*: `just experiments-md` runs the
//! quick-scale sweep fresh, then renders that run plus the committed
//! full-scale snapshot (`BENCH_3.json`) through [`render_experiments_md`].
//! The renderer is a pure function of the two parsed documents and emits
//! **no wall-clock data for the quick section**, so regenerating is
//! byte-identical whenever the measured behaviour (rounds, bit loads,
//! verdicts — all seed-deterministic) is unchanged; CI regenerates it and
//! fails on drift.

use crate::json::Value;
use crate::table::f2;
use std::fmt::Write as _;

/// Marker comment the generated file starts with.
pub const GENERATED_HEADER: &str =
    "<!-- GENERATED FILE - do not edit. Regenerate with `just experiments-md`. -->";

/// Render `EXPERIMENTS.md` from the committed full-scale sweep document
/// and a freshly produced quick-scale document (both `bench-v2`).
///
/// # Errors
///
/// Rejects documents whose `scale` tags are not `Full` / `Quick`
/// respectively (swapped arguments) or that carry no sweeps.
pub fn render_experiments_md(full: &Value, quick: &Value) -> Result<String, String> {
    check_doc(full, "Full")?;
    check_doc(quick, "Quick")?;
    let mut out = String::new();
    let _ = writeln!(out, "{GENERATED_HEADER}");
    out.push_str(
        "\n# EXPERIMENTS — paper claims vs measured\n\
         \n\
         Scenario sweeps run the repo's solvers over geometric scale ladders and\n\
         check each measured curve against the asymptotic form the paper claims\n\
         for it (consistency fit, DESIGN.md §5: measured growth across the ladder\n\
         must stay within 1.5× the claimed form's growth; `pass`/`warn` verdicts\n\
         are recorded, never a hard failure). Rounds, bit loads, phase\n\
         breakdowns, and verdicts are seed-deterministic; wall-clock columns\n\
         appear only in the full-scale section and come from the committed\n\
         snapshot `BENCH_3.json`.\n\
         \n\
         | Section | Source | Regenerate |\n\
         |---|---|---|\n\
         | Quick-scale sweep | fresh run, CI drift-gated | `just experiments-md` |\n\
         | Full-scale sweep | committed `BENCH_3.json` | `just sweep-json && just experiments-md` |\n\
         \n\
         The one-off table experiments (E0–E16c) are catalogued in DESIGN.md §4\n\
         and printed by `cargo run --release -p bench --bin experiments`; this\n\
         file tracks the sweepable claims.\n\
         \n\
         The robustness experiments E0e (fault chaos), E0f (sharding), E0g\n\
         (crash chaos) and E0h (async schedules) assert their claims inline\n\
         rather than fitting curves, and no snapshot of them is committed\n\
         (`cargo run --release -p bench --bin experiments -- E0e E0f E0g E0h`\n\
         prints them). For every swept plan, each hard-fails unless the\n\
         one-shard, one-thread solve is a proper coloring, the reference\n\
         engine reproduces its transcript (E0h masks the synchronizer's own\n\
         counters there), and a plan that injects nothing reproduces the\n\
         default solve bit for bit. The session engine must then reproduce\n\
         the transcript unmasked across threads {1, 2, 8} at the default\n\
         shard count in E0e, and across shards {1, 2, 4, 8} × threads\n\
         {1, 2, 8} in E0f, E0g and E0h; E0f also holds pooled cells to at\n\
         most 2 barrier waits per round. Degradation\n\
         under those plans is recorded as data, not treated as failure: crash\n\
         recovery at rates ≤ 0.01 finishes with modest round growth and\n\
         full propriety, while crash-stop plans eventually silence every node,\n\
         run passes to the round cap, and complete the coloring through the\n\
         quarantine-and-recolor repair path — the `quarantined` and\n\
         `repairs` columns say exactly when that happened.\n\
         E0h prices the \u{3b1}-synchronizer honestly: its pulses-per-round,\n\
         max-wait, and sync-bit columns are simulated synchronizer overhead\n\
         (the transcript itself never changes), and a schedule that out-waits\n\
         the watchdog must fail loud with `ScheduleStalled`, never silently\n\
         wrong.\n",
    );
    out.push_str("\n## Quick-scale sweep (CI drift gate)\n");
    render_sweep_sections(quick, false, &mut out)?;
    out.push_str("\n## Full-scale sweep (committed snapshot `BENCH_3.json`)\n");
    let _ = writeln!(out, "\n{}", host_line(full));
    render_sweep_sections(full, true, &mut out)?;
    Ok(out)
}

/// The snapshot's host record as one line, so that its `wall s` column
/// says where and when it was measured.
fn host_line(doc: &Value) -> String {
    let Some(host) = doc.get("host") else {
        return "**Host:** not recorded, so the `wall s` column's host and date are unknown."
            .to_string();
    };
    let text = |key: &str| host.get(key).and_then(Value::as_str).unwrap_or("?");
    format!(
        "**Host:** {}, {} vCPUs, {}; swept on {}. The `wall s` column comes from \
         this run; the drift gate ignores it and the host record.",
        text("cpu"),
        host.get("vcpus").and_then(Value::as_u64).unwrap_or(0),
        text("rustc"),
        text("date"),
    )
}

fn check_doc(doc: &Value, scale: &str) -> Result<(), String> {
    let tag = doc
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("document has no schema tag")?;
    if tag != crate::json::SCHEMA {
        return Err(format!("unsupported schema '{tag}' (want bench-v2)"));
    }
    let got = doc.get("scale").and_then(Value::as_str).unwrap_or("?");
    if got != scale {
        return Err(format!("expected a {scale}-scale document, got {got}"));
    }
    if doc.get("sweeps").is_none_or(|s| s.items().is_empty()) {
        return Err(format!("{scale}-scale document contains no sweeps"));
    }
    Ok(())
}

fn render_sweep_sections(doc: &Value, with_wall: bool, out: &mut String) -> Result<(), String> {
    for sweep in doc.get("sweeps").expect("checked").items() {
        let field = |key: &str| -> Result<&str, String> {
            sweep
                .get(key)
                .and_then(Value::as_str)
                .ok_or(format!("sweep missing string field '{key}'"))
        };
        let id = field("id")?;
        let _ = writeln!(out, "\n### {id} — {}\n", field("title")?);
        let _ = writeln!(out, "**Paper claim:** {}.\n", field("claim")?);
        let _ = writeln!(
            out,
            "**Setup:** family `{}`, algorithm `{}`, engine threads {}.\n",
            field("family")?,
            field("algorithm")?,
            sweep.get("threads").and_then(Value::as_u64).unwrap_or(1),
        );
        let _ = writeln!(
            out,
            "**Regenerate:** `cargo run --release -p bench --bin experiments -- --sweep{} {id} --json out.json`\n",
            if with_wall { "" } else { " --quick" },
        );
        render_cells_table(sweep, with_wall, out)?;
        out.push_str("\nClaim checks:\n\n");
        for check in sweep.get("checks").ok_or("sweep missing checks")?.items() {
            let get = |key: &str| check.get(key).and_then(Value::as_str).unwrap_or("?");
            let _ = writeln!(
                out,
                "- **{}** — `{}` consistent with `{}`: {}",
                get("verdict").to_uppercase(),
                get("metric"),
                get("form"),
                get("detail"),
            );
        }
        let notes = sweep.get("notes").and_then(Value::as_str).unwrap_or("");
        if !notes.is_empty() {
            let _ = writeln!(out, "\n**Reproduction notes:** {notes}");
        }
    }
    Ok(())
}

/// One aggregated row per ladder size: means across seeds for rounds,
/// maxima for bit loads.
fn render_cells_table(sweep: &Value, with_wall: bool, out: &mut String) -> Result<(), String> {
    let cells = sweep.get("cells").ok_or("sweep missing cells")?.items();
    if cells.is_empty() {
        return Err("sweep has no cells".to_string());
    }
    let num =
        |cell: &Value, key: &str| -> f64 { cell.get(key).and_then(Value::as_f64).unwrap_or(0.0) };
    out.push_str(if with_wall {
        "| n | seeds | rounds | rounds@B | B bits | max bits/edge | p99 bits/edge | wall s | phase rounds |\n\
         |--:|--:|--:|--:|--:|--:|--:|--:|:--|\n"
    } else {
        "| n | seeds | rounds | rounds@B | B bits | max bits/edge | p99 bits/edge | phase rounds |\n\
         |--:|--:|--:|--:|--:|--:|--:|:--|\n"
    });
    let mut sizes: Vec<u64> = cells
        .iter()
        .filter_map(|c| c.get("n").and_then(Value::as_u64))
        .collect();
    sizes.dedup();
    for n in sizes {
        let group: Vec<&Value> = cells
            .iter()
            .filter(|c| c.get("n").and_then(Value::as_u64) == Some(n))
            .collect();
        let seeds = group.len();
        let mean = |key: &str| -> f64 {
            group.iter().map(|c| num(c, key)).sum::<f64>() / seeds.max(1) as f64
        };
        let max =
            |key: &str| -> u64 { group.iter().map(|c| num(c, key) as u64).max().unwrap_or(0) };
        let _ = write!(
            out,
            "| {n} | {seeds} | {} | {} | {} | {} | {} |",
            f2(mean("rounds")),
            f2(mean("normalized_rounds")),
            max("bandwidth"),
            max("max_edge_bits"),
            max("p99_edge_bits"),
        );
        if with_wall {
            let _ = write!(out, " {} |", f2(mean("wall_seconds")));
        }
        let _ = writeln!(out, " {} |", phase_means(&group));
    }
    Ok(())
}

/// Mean rounds per phase across a size's seed group, first-seen order,
/// formatted `name:mean` with one decimal.
fn phase_means(group: &[&Value]) -> String {
    let mut order: Vec<String> = Vec::new();
    let mut totals: Vec<f64> = Vec::new();
    for cell in group {
        for phase in cell.get("phases").map(Value::items).unwrap_or(&[]) {
            let name = phase.items().first().and_then(Value::as_str).unwrap_or("?");
            let rounds = phase.items().get(1).and_then(Value::as_f64).unwrap_or(0.0);
            match order.iter().position(|o| o == name) {
                Some(i) => totals[i] += rounds,
                None => {
                    order.push(name.to_string());
                    totals.push(rounds);
                }
            }
        }
    }
    order
        .iter()
        .zip(&totals)
        .map(|(name, total)| format!("{name}:{:.1}", total / group.len().max(1) as f64))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::claims::{ClaimCheck, Verdict};
    use crate::json::{parse, render, SweepRecord};
    use crate::sweep::{SweepCell, SweepOutcome};
    use crate::workloads::Scale;

    fn record(seed_noise: u64) -> SweepRecord {
        let cell = |n: usize, seed: u64, rounds: u64| SweepCell {
            n,
            seed,
            rounds,
            normalized_rounds: rounds + 10,
            bandwidth: 22,
            max_edge_bits: 44,
            p50_edge_bits: 18,
            p99_edge_bits: 40,
            wall_seconds: 0.25 + seed_noise as f64, // must NOT leak into quick renders
            phases: vec![("setup".into(), 2), ("fallback".into(), rounds - 2)],
        };
        SweepRecord {
            id: "S1".into(),
            title: "demo sweep".into(),
            claim: "Theorem 1".into(),
            notes: "clique size scales with n here".into(),
            family: "gnp-window".into(),
            algorithm: "d1lc-pipeline".into(),
            threads: 1,
            wall_seconds: 9.0,
            outcome: SweepOutcome {
                cells: vec![cell(256, 1, 100), cell(256, 2, 104), cell(512, 1, 106)],
                checks: vec![ClaimCheck {
                    metric: "rounds".into(),
                    form: "O(log^5 log n)".into(),
                    verdict: Verdict::Pass,
                    detail: "growth x1.04 vs allowed x1.61".into(),
                }],
            },
        }
    }

    fn docs(noise: u64) -> (Value, Value) {
        let host = crate::json::tests::test_host();
        let full = parse(&render(Scale::Full, &host, &[], &[record(noise)])).unwrap();
        let quick = parse(&render(Scale::Quick, &host, &[], &[record(noise)])).unwrap();
        (full, quick)
    }

    #[test]
    fn renders_deterministically_and_hides_quick_wall_clock() {
        let (full_a, quick_a) = docs(0);
        let a = render_experiments_md(&full_a, &quick_a).expect("renders");
        let b = render_experiments_md(&full_a, &quick_a).expect("renders");
        assert_eq!(a, b, "emitter must be deterministic");
        // Different wall clocks, same measurements: the quick section must
        // be identical, so only the full section may differ.
        let (full_c, quick_c) = docs(7);
        let c = render_experiments_md(&full_a, &quick_c).expect("renders");
        assert_eq!(a, c, "quick wall clock leaked into the report");
        let d = render_experiments_md(&full_c, &quick_a).expect("renders");
        assert_ne!(a, d, "full section must carry wall clock");
    }

    #[test]
    fn report_structure_snapshot() {
        let (full, quick) = docs(0);
        let md = render_experiments_md(&full, &quick).expect("renders");
        assert!(md.starts_with(GENERATED_HEADER));
        for needle in [
            "# EXPERIMENTS — paper claims vs measured",
            "## Quick-scale sweep (CI drift gate)",
            "## Full-scale sweep (committed snapshot `BENCH_3.json`)",
            "**Host:** Test \"CPU\", 2 vCPUs, rustc 1.0.0; swept on 2026-01-02.",
            "### S1 — demo sweep",
            "**Paper claim:** Theorem 1.",
            "**Setup:** family `gnp-window`, algorithm `d1lc-pipeline`, engine threads 1.",
            "--sweep --quick S1",
            "| 256 | 2 | 102.00 | 112.00 | 22 | 44 | 40 | setup:2.0 fallback:100.0 |",
            "| 512 | 1 | 106.00 | 116.00 | 22 | 44 | 40 | 0.25 | setup:2.0 fallback:104.0 |",
            "- **PASS** — `rounds` consistent with `O(log^5 log n)`: growth x1.04",
            "**Reproduction notes:** clique size scales with n here",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
    }

    #[test]
    fn rejects_swapped_or_empty_documents() {
        let (full, quick) = docs(0);
        assert!(render_experiments_md(&quick, &full).is_err(), "swapped");
        let empty = parse(&render(
            Scale::Full,
            &crate::json::tests::test_host(),
            &[],
            &[],
        ))
        .unwrap();
        assert!(render_experiments_md(&empty, &quick).is_err(), "no sweeps");
        let v1 = parse(include_str!("../../../BENCH_2.json")).unwrap();
        assert!(render_experiments_md(&v1, &quick).is_err(), "v1 schema");
    }
}
