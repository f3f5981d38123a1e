//! Helpers shared by the integration-test binaries (`mod common;`).

/// Case count for a property block: the per-push default, or the
/// `PROPTEST_CASES` environment override when set.
///
/// `PROPTEST_CASES` is the repo's single documented knob for scaling
/// every property battery at once — the nightly slow-matrix CI job sets
/// it to run the differential suites at much greater depth, and local
/// soak runs can do the same (`PROPTEST_CASES=200 cargo test -q`).
pub fn proptest_cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default_cases)
}
