//! The `decisions-pinned` gate. One whole-grid test, `#[ignore]`d because it
//! is only quick in release; the target has nothing else in it, so it runs
//! by target name and cannot be filtered to nothing by a rename:
//!
//! ```text
//! cargo test --release -p cobra-harness --test decisions_pinned -- --ignored
//! ```

mod common;

use common::repro_ok;

/// The decision sequence is a checked property: fig5 on both machines,
/// with and without `--candidates`, is byte-identical to the text under
/// `tests/golden/` (written by commit `4ef88f4`). A PR that means to move a
/// guest number regenerates those four files — they are this command's
/// stdout — and says so; any other difference is a decision that moved.
#[test]
#[ignore = "four fig5 grids: run in release, by target"]
fn fig5_text_equals_the_committed_goldens() {
    let golden_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    for machine in ["smp4", "altix8"] {
        for (flags, suffix) in [(&[][..], ""), (&["--candidates"][..], "_candidates")] {
            let golden = format!("{golden_dir}/fig5_{machine}{suffix}.txt");
            let want = std::fs::read_to_string(&golden).expect(&golden);
            let got = repro_ok(&[&["fig5", "--machine", machine], flags].concat());
            assert!(got == want, "{golden} differs from:\n{got}");
        }
    }
}
