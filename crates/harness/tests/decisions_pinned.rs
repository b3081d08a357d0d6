//! The `decisions-pinned` gate. One whole-run test, `#[ignore]`d because it
//! is only quick in release; the target has nothing else in it, so it runs
//! by target name and cannot be filtered to nothing by a rename:
//!
//! ```text
//! cargo test --release -p cobra-harness --test decisions_pinned -- --ignored
//! ```

mod common;

use common::repro_ok;

/// The decision sequence is a checked property: `results_all.md` is what
/// `cobra-repro all --md` prints, byte for byte — Figs. 2, 3 and 5–7,
/// Table 1, the shape checks, the candidate grids cold and warm on both
/// machines and the OSR table. A PR that means to move a guest number
/// regenerates the file (`cobra-repro all --md > results_all.md`) and
/// says so; any other difference is a decision that moved.
#[test]
#[ignore = "six fig5 grids and the OSR runs: run in release, by target"]
fn all_md_equals_the_committed_results() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results_all.md");
    let want = std::fs::read_to_string(path).expect(path);
    let got = repro_ok(&["all", "--md"]);
    let (file, now): (Vec<_>, Vec<_>) = (want.lines().collect(), got.lines().collect());
    let n = (0..file.len().max(now.len()))
        .find(|&i| file.get(i) != now.get(i))
        .unwrap_or(file.len());
    assert!(
        got == want,
        "{path} differs from `all --md` first at line {}:\n  file: {:?}\n  now:  {:?}",
        n + 1,
        file.get(n),
        now.get(n)
    );
}
