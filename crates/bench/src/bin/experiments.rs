//! Run the experiment catalog (table experiments E0e–E16c, ladder sweeps
//! S1–S6) and regenerate the generated artifacts.
//!
//! Usage:
//!
//! ```text
//! experiments                     # every scenario, full scale
//! experiments --quick             # CI scale
//! experiments E4 S1               # a subset, by id
//! experiments --sweep             # the sweep scenarios only (S1–S6)
//! experiments --sweep --json BENCH_3.json
//!                                 # sweep + mirror results to bench-v2 JSON
//! experiments --render-experiments EXPERIMENTS.md \
//!             --from-full BENCH_3.json --from-quick target/sweep-quick.json
//!                                 # pure render: sweep JSON -> EXPERIMENTS.md
//! ```
//!
//! The render mode runs no experiments: it parses the two sweep documents
//! and emits the markdown deterministically, so `EXPERIMENTS.md` is
//! byte-identical across regenerations of unchanged behaviour.

use bench::json::{parse, render, ExperimentResult, Host, SweepRecord};
use bench::{registry, Scale};
use std::time::Instant;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut json_path: Option<String> = None;
    let mut sweep_only = false;
    let mut render_out: Option<String> = None;
    let mut from_full: Option<String> = None;
    let mut from_quick: Option<String> = None;
    let mut wanted: Vec<&String> = Vec::new();
    let mut it = args.iter();
    let path_arg = |it: &mut std::slice::Iter<'_, String>, flag: &str| -> String {
        match it.next() {
            Some(path) if !path.starts_with("--") => path.clone(),
            _ => fail(&format!("{flag} requires a file path")),
        }
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--sweep" => sweep_only = true,
            "--json" => json_path = Some(path_arg(&mut it, "--json")),
            "--render-experiments" => {
                render_out = Some(path_arg(&mut it, "--render-experiments"));
            }
            "--from-full" => from_full = Some(path_arg(&mut it, "--from-full")),
            "--from-quick" => from_quick = Some(path_arg(&mut it, "--from-quick")),
            a if a.starts_with("--") => fail(&format!("unknown flag {a}")),
            _ => wanted.push(arg),
        }
    }

    if let Some(out) = render_out {
        let (Some(full), Some(quick)) = (from_full, from_quick) else {
            fail("--render-experiments requires --from-full and --from-quick");
        };
        if !wanted.is_empty() {
            fail("render mode takes no scenario ids");
        }
        render_markdown(&out, &full, &quick);
        return;
    }

    let reg = registry();
    let known: Vec<&str> = reg.iter().map(|s| s.id()).collect();
    let unknown: Vec<&&String> = wanted
        .iter()
        .filter(|w| !known.contains(&w.as_str()))
        .collect();
    if !unknown.is_empty() {
        fail(&format!(
            "unknown scenario id(s) {unknown:?}; known ids: {}",
            known.join(", ")
        ));
    }

    println!("# Experiment tables — Overcoming Congestion in Distributed Coloring (PODC 2022)");
    println!("# scale: {scale:?}\n");
    let host = Host::detect();
    let mut results: Vec<ExperimentResult> = Vec::new();
    let mut sweeps: Vec<SweepRecord> = Vec::new();
    for s in &reg {
        let selected = if wanted.is_empty() {
            !sweep_only || s.sweep_spec().is_some()
        } else {
            wanted.iter().any(|w| w.as_str() == s.id())
        };
        if !selected {
            continue;
        }
        let start = Instant::now();
        let outcome = s.run(scale);
        let wall = start.elapsed();
        println!("{}", outcome.table.render());
        println!("({} rows in {:.1?})\n", outcome.table.len(), wall);
        match outcome.sweep {
            Some(sweep) => sweeps.push(SweepRecord::from_scenario(
                s.as_ref(),
                wall.as_secs_f64(),
                sweep,
            )),
            _ => results.push(ExperimentResult {
                id: s.id().to_string(),
                table: outcome.table,
                wall_seconds: wall.as_secs_f64(),
            }),
        }
    }
    if let Some(path) = json_path {
        let doc = render(scale, &host, &results, &sweeps);
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "# wrote {} experiment(s) + {} sweep(s) to {path}",
            results.len(),
            sweeps.len()
        );
    }
}

/// Render mode: parse both sweep documents, emit EXPERIMENTS.md.
fn render_markdown(out_path: &str, full_path: &str, quick_path: &str) {
    let read_doc = |path: &str| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("could not read {path}: {e}")));
        parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
    };
    let full = read_doc(full_path);
    let quick = read_doc(quick_path);
    let md = bench::report::render_experiments_md(&full, &quick).unwrap_or_else(|e| fail(&e));
    if let Err(e) = std::fs::write(out_path, &md) {
        fail(&format!("could not write {out_path}: {e}"));
    }
    println!("# wrote {out_path} from {full_path} + {quick_path}");
}
