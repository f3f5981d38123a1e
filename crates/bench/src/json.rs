//! Machine-readable experiment output: the `BENCH_*.json` format.
//!
//! The experiments binary mirrors everything it runs into a JSON file
//! (`--json PATH`) so the perf trajectory is diffable across PRs.
//! `BENCH_2.json` at the repo root is the PR 2 snapshot of the
//! engine-plane microbench (schema `bench-v1`); `BENCH_3.json` is the
//! committed full-scale scenario sweep (schema `bench-v2`, which adds the
//! `sweeps` array that feeds the generated `EXPERIMENTS.md`). Both the
//! writer and the reader are hand-rolled: the build environment has no
//! registry access, and the schema is small (documented in DESIGN.md §5).

use crate::claims::ClaimCheck;
use crate::sweep::{SweepCell, SweepOutcome};
use crate::table::Table;
use crate::workloads::Scale;
use std::fmt::Write as _;

/// Schema tag embedded in every emitted file.
pub const SCHEMA: &str = "congest-coloring/bench-v2";

/// The host a document was measured on, which is what its wall-clock
/// figures mean. It sits beside `sweeps` as `host`; the snapshot drift
/// gate ignores it, as it ignores every `wall_seconds`.
#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    /// CPU model name from `/proc/cpuinfo` (`unknown` elsewhere).
    pub cpu: String,
    /// vCPUs available to the process.
    pub vcpus: usize,
    /// The compiler that built the binary (`rustc --version`).
    pub rustc: String,
    /// The UTC day the run started, `YYYY-MM-DD`.
    pub date: String,
}

impl Host {
    /// Describe this host, today.
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Host {
            cpu,
            vcpus: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: env!("BENCH_RUSTC").to_string(),
            date: civil_date(secs / 86_400),
        }
    }
}

/// The proleptic Gregorian date `days` days after 1970-01-01, as
/// `YYYY-MM-DD` (H. Hinnant's `civil_from_days`).
fn civil_date(days: u64) -> String {
    let z = days + 719_468;
    let era = z / 146_097;
    let doe = z % 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + u64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// One table experiment's result: id, rendered table, wall-clock seconds.
pub struct ExperimentResult {
    /// Experiment id (`E0`, `E1`, …).
    pub id: String,
    /// The result table.
    pub table: Table,
    /// Wall-clock seconds the experiment took end to end.
    pub wall_seconds: f64,
}

/// One sweep scenario's result, ready for serialization.
pub struct SweepRecord {
    /// Scenario id (`S1`, …).
    pub id: String,
    /// Scenario title.
    pub title: String,
    /// The paper claim the scenario exercises.
    pub claim: String,
    /// Reproduction notes (interpretation of the verdicts; may be empty).
    pub notes: String,
    /// Graph-family label.
    pub family: String,
    /// Algorithm label (see [`crate::sweep::Algorithm::label`]).
    pub algorithm: String,
    /// Engine worker threads the sweep ran with.
    pub threads: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Cells + claim verdicts.
    pub outcome: SweepOutcome,
}

impl SweepRecord {
    /// Assemble a record from a sweep scenario's metadata and its outcome.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no [`crate::sweep::SweepSpec`] (it is not a sweep).
    pub fn from_scenario(
        scenario: &dyn crate::Scenario,
        wall_seconds: f64,
        outcome: SweepOutcome,
    ) -> Self {
        let spec = scenario.sweep_spec().expect("a sweep scenario");
        SweepRecord {
            id: scenario.id().to_string(),
            title: scenario.title().to_string(),
            claim: scenario.claim().to_string(),
            notes: scenario.notes().to_string(),
            family: spec.family.to_string(),
            algorithm: spec.algorithm.label().to_string(),
            threads: spec.threads,
            wall_seconds,
            outcome,
        }
    }
}

/// Escape a string for a JSON string literal (quotes not included).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn string_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", cells.join(","))
}

fn cell_json(c: &SweepCell) -> String {
    let phases: Vec<String> = c
        .phases
        .iter()
        .map(|(name, rounds)| format!("[\"{}\",{rounds}]", escape(name)))
        .collect();
    format!(
        "{{\"n\":{},\"seed\":{},\"rounds\":{},\"normalized_rounds\":{},\"bandwidth\":{},\
         \"max_edge_bits\":{},\"p50_edge_bits\":{},\"p99_edge_bits\":{},\"wall_seconds\":{},\
         \"phases\":[{}]}}",
        c.n,
        c.seed,
        c.rounds,
        c.normalized_rounds,
        c.bandwidth,
        c.max_edge_bits,
        c.p50_edge_bits,
        c.p99_edge_bits,
        format_seconds(c.wall_seconds),
        phases.join(","),
    )
}

fn check_json(c: &ClaimCheck) -> String {
    format!(
        "{{\"metric\":\"{}\",\"form\":\"{}\",\"verdict\":\"{}\",\"detail\":\"{}\"}}",
        escape(&c.metric),
        escape(&c.form),
        c.verdict.tag(),
        escape(&c.detail),
    )
}

/// Render table experiments and sweep scenarios, measured on `host`, as a
/// `bench-v2` JSON document.
///
/// All table cells stay strings (they are already formatted for humans);
/// counters are JSON integers and wall-clock numbers JSON floats.
///
/// # Example
///
/// ```
/// use bench::json::{render, ExperimentResult, Host, SCHEMA};
/// use bench::{Scale, Table};
///
/// let mut t = Table::new("E0 — demo", "claim \"x\"");
/// t.columns(["n", "rounds"]);
/// t.row(["256", "42"]);
/// let doc = render(
///     Scale::Quick,
///     &Host::detect(),
///     &[ExperimentResult { id: "E0".into(), table: t, wall_seconds: 0.25 }],
///     &[],
/// );
/// assert!(doc.starts_with('{') && doc.trim_end().ends_with('}'));
/// assert!(doc.contains(SCHEMA));
/// assert!(doc.contains("claim \\\"x\\\""));
/// assert!(doc.contains("\"wall_seconds\":0.25"));
/// assert!(bench::json::parse(&doc).is_ok());
/// ```
pub fn render(
    scale: Scale,
    host: &Host,
    results: &[ExperimentResult],
    sweeps: &[SweepRecord],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{}\",", escape(SCHEMA));
    let _ = writeln!(out, "  \"scale\": \"{scale:?}\",");
    out.push_str("  \"experiments\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"id\":\"{}\",\"title\":\"{}\",\"claim\":\"{}\",\"wall_seconds\":{},",
            escape(&r.id),
            escape(r.table.title()),
            escape(r.table.claim()),
            format_seconds(r.wall_seconds),
        );
        let _ = write!(out, "\"columns\":{},", string_array(r.table.column_names()));
        out.push_str("\"rows\":[");
        for (j, row) in r.table.rows().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&string_array(row));
        }
        out.push_str("]}");
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"host\": {{\"cpu\":\"{}\",\"vcpus\":{},\"rustc\":\"{}\",\"date\":\"{}\"}},",
        escape(&host.cpu),
        host.vcpus,
        escape(&host.rustc),
        escape(&host.date),
    );
    out.push_str("  \"sweeps\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"id\":\"{}\",\"title\":\"{}\",\"claim\":\"{}\",\"notes\":\"{}\",\"family\":\"{}\",\
             \"algorithm\":\"{}\",\"threads\":{},\"wall_seconds\":{},",
            escape(&s.id),
            escape(&s.title),
            escape(&s.claim),
            escape(&s.notes),
            escape(&s.family),
            escape(&s.algorithm),
            s.threads,
            format_seconds(s.wall_seconds),
        );
        out.push_str("\n     \"cells\":[\n");
        for (j, c) in s.outcome.cells.iter().enumerate() {
            let sep = if j + 1 < s.outcome.cells.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "      {}{sep}", cell_json(c));
        }
        out.push_str("     ],\n     \"checks\":[\n");
        for (j, c) in s.outcome.checks.iter().enumerate() {
            let sep = if j + 1 < s.outcome.checks.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "      {}{sep}", check_json(c));
        }
        out.push_str("     ]}");
        if i + 1 < sweeps.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Format seconds with enough precision for microbenchmarks, trimming
/// trailing zeros so snapshots stay diff-friendly.
fn format_seconds(s: f64) -> String {
    let mut text = format!("{s:.6}");
    while text.ends_with('0') {
        text.pop();
    }
    if text.ends_with('.') {
        text.push('0');
    }
    text
}

/// A parsed JSON value (the reader half of the `BENCH_*.json` format).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers up to 2^53 round-trip exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member by key (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, for arrays (empty slice otherwise).
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Numeric content as an unsigned integer (truncating), if a number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|x| x as u64)
    }
}

/// Parse a JSON document.
///
/// Supports exactly the constructs the `BENCH_*.json` writers emit (all
/// of standard JSON except `\uXXXX` surrogate pairs, which decode as two
/// scalar values).
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input, including
/// trailing garbage after the top-level value.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("malformed number '{text}' at byte {start}"))
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut chunk_start = *pos;
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos])
                        .map_err(|_| "invalid utf-8 in string".to_string())?,
                );
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(
                    std::str::from_utf8(&bytes[chunk_start..*pos])
                        .map_err(|_| "invalid utf-8 in string".to_string())?,
                );
                *pos += 1;
                let escape_code = bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match escape_code {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?,
                            16,
                        )
                        .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape '\\{}'", *other as char)),
                }
                chunk_start = *pos;
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::claims::{ClaimCheck, Verdict};

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn seconds_trim_trailing_zeros() {
        assert_eq!(format_seconds(0.25), "0.25");
        assert_eq!(format_seconds(1.0), "1.0");
        assert_eq!(format_seconds(0.000001), "0.000001");
    }

    #[test]
    fn renders_multiple_experiments_as_valid_shape() {
        let mut a = Table::new("E0", "plane");
        a.columns(["x"]);
        a.row(["1"]);
        let mut b = Table::new("E1", "rounds");
        b.columns(["y"]);
        let doc = render(
            Scale::Full,
            &test_host(),
            &[
                ExperimentResult {
                    id: "E0".into(),
                    table: a,
                    wall_seconds: 1.5,
                },
                ExperimentResult {
                    id: "E1".into(),
                    table: b,
                    wall_seconds: 0.1,
                },
            ],
            &[],
        );
        assert_eq!(doc.matches("\"id\":").count(), 2);
        assert!(doc.contains("\"scale\": \"Full\""));
        assert!(doc.contains("\"rows\":[[\"1\"]]"));
        assert!(doc.contains("\"rows\":[]"));
        let parsed = parse(&doc).expect("writer output parses");
        assert_eq!(parsed.get("experiments").unwrap().items().len(), 2);
        assert_eq!(parsed.get("sweeps").unwrap().items().len(), 0);
    }

    /// A fixed host record for documents under test.
    pub(crate) fn test_host() -> Host {
        Host {
            cpu: "Test \"CPU\"".into(),
            vcpus: 2,
            rustc: "rustc 1.0.0".into(),
            date: "2026-01-02".into(),
        }
    }

    #[test]
    fn civil_dates_match_the_calendar() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(11_016), "2000-02-29");
        assert_eq!(civil_date(20_000), "2024-10-04");
        assert_eq!(Host::detect().date.len(), "YYYY-MM-DD".len());
    }

    fn demo_sweep() -> SweepRecord {
        SweepRecord {
            id: "S1".into(),
            title: "demo".into(),
            claim: "O(log^5 log n) \"quoted\"".into(),
            notes: "a note".into(),
            family: "gnp-window".into(),
            algorithm: "d1lc-pipeline".into(),
            threads: 2,
            wall_seconds: 3.5,
            outcome: SweepOutcome {
                cells: vec![SweepCell {
                    n: 1024,
                    seed: 1,
                    rounds: 120,
                    normalized_rounds: 150,
                    bandwidth: 22,
                    max_edge_bits: 44,
                    p50_edge_bits: 20,
                    p99_edge_bits: 40,
                    wall_seconds: 0.125,
                    phases: vec![("setup".into(), 2), ("range-1".into(), 118)],
                }],
                checks: vec![ClaimCheck {
                    metric: "rounds".into(),
                    form: "O(log^5 log n)".into(),
                    verdict: Verdict::Pass,
                    detail: "growth x1.00".into(),
                }],
            },
        }
    }

    #[test]
    fn sweep_records_round_trip_through_parse() {
        let doc = render(Scale::Quick, &test_host(), &[], &[demo_sweep()]);
        let parsed = parse(&doc).expect("parses");
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some("congest-coloring/bench-v2")
        );
        let host = parsed.get("host").expect("a host record");
        assert_eq!(
            host.get("cpu").and_then(Value::as_str),
            Some("Test \"CPU\"")
        );
        assert_eq!(host.get("vcpus").and_then(Value::as_u64), Some(2));
        assert_eq!(host.get("date").and_then(Value::as_str), Some("2026-01-02"));
        let sweep = &parsed.get("sweeps").unwrap().items()[0];
        assert_eq!(sweep.get("id").and_then(Value::as_str), Some("S1"));
        assert_eq!(sweep.get("threads").and_then(Value::as_u64), Some(2));
        let cell = &sweep.get("cells").unwrap().items()[0];
        assert_eq!(cell.get("rounds").and_then(Value::as_u64), Some(120));
        assert_eq!(
            cell.get("wall_seconds").and_then(Value::as_f64),
            Some(0.125)
        );
        let phases = cell.get("phases").unwrap().items();
        assert_eq!(phases[0].items()[0].as_str(), Some("setup"));
        assert_eq!(phases[1].items()[1].as_u64(), Some(118));
        let check = &sweep.get("checks").unwrap().items()[0];
        assert_eq!(check.get("verdict").and_then(Value::as_str), Some("pass"));
        assert_eq!(
            check.get("form").and_then(Value::as_str),
            Some("O(log^5 log n)")
        );
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Value::Str("a\n\"bA".to_string())
        );
        assert_eq!(parse(" [1, 2.5, -3e2] ").unwrap().items().len(), 3);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn committed_bench2_snapshot_still_parses() {
        // BENCH_2.json (schema v1) predates the sweeps array; the reader
        // must keep accepting it.
        let text = include_str!("../../../BENCH_2.json");
        let doc = parse(text).expect("BENCH_2.json parses");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("congest-coloring/bench-v1")
        );
        assert!(doc.get("sweeps").is_none());
        assert_eq!(doc.get("experiments").unwrap().items().len(), 1);
    }
}
