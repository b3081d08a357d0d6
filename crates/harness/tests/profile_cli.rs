//! `cobra-repro profile` end to end, in-process through `cli::invoke`.

mod common;

use common::{repro_ok, tmp_dir};

/// Cross-run warm start through the CLI: the first `profile save` of a
/// store starts cold, the second warm-starts from what the first left, and
/// the store then holds two runs.
#[test]
fn profile_save_twice_warm_starts_the_second_run() {
    let store = tmp_dir("warm-start");
    let save = [
        "profile",
        "save",
        "--store",
        store.to_str().unwrap(),
        "--bench",
        "cg",
    ];
    let first = repro_ok(&save);
    assert!(first.contains("cold start"), "{first}");
    let second = repro_ok(&save);
    assert!(
        second.contains("warm-started from prior snapshot"),
        "{second}"
    );
    let saved = store.join("adaptive");
    let text = repro_ok(&["profile", "inspect", saved.to_str().unwrap()]);
    assert!(text.contains("2 run(s)"), "{text}");
}
