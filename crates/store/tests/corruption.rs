//! Property tests: a damaged snapshot file never panics the loader and
//! always degrades gracefully — damaged lines are skipped and counted, a
//! destroyed header rejects the whole snapshot (cold start), and whatever
//! *is* returned still carries the correct key.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use cobra_store::{
    read_snapshot_file, BranchPairRecord, DecisionRecord, DelinquentRecord, ProfileRecord,
    Snapshot, Store, StoreKey,
};
use proptest::prelude::*;

fn tmp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "cobra-store-prop-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    // Process ids come round again: a directory an earlier run left under
    // the same name must not hand this one its files.
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn key() -> StoreKey {
    StoreKey {
        image_hash: 0x0123_4567_89ab_cdef,
        machine_fp: 0xfedc_ba98_7654_3210,
    }
}

/// A snapshot with enough records that corruption can land anywhere.
fn snapshot() -> Snapshot {
    let mut s = Snapshot::empty(key());
    s.runs = 3;
    s.profile = ProfileRecord {
        instructions: 5_000_000,
        cycles: 8_000_000,
        bus_memory: 40_000,
        bus_coherent: 11_000,
        l2_miss: 9_000,
        l3_miss: 4_500,
        samples: 2_048,
        delinquent: (0..6)
            .map(|i| DelinquentRecord {
                pc: 10 + i,
                coherent: 100 + i as u64,
                memory: i as u64,
                total_latency: 20_000 + i as u64,
            })
            .collect(),
        branch_pairs: (0..6)
            .map(|i| BranchPairRecord {
                src: 50 + i,
                target: 30 + i,
                count: 900 - i as u64,
            })
            .collect(),
    };
    s.decisions = (0..4)
        .map(|i| DecisionRecord {
            loop_head: 30 + i,
            kind: if i % 2 == 0 {
                "noprefetch".into()
            } else {
                "prefetch.excl".into()
            },
            reverted: i == 3,
            baseline_cpi: 1.5 + i as f64 * 0.1,
            post_cpi: Some(1.4 + i as f64 * 0.2),
        })
        .collect();
    s.blacklist = vec![33, 70, 71];
    s
}

/// Save the reference snapshot once and return its serialized bytes.
fn pristine_bytes() -> Vec<u8> {
    let store = Store::new(tmp_dir());
    let path = store.save(&snapshot()).unwrap();
    std::fs::read(&path).unwrap()
}

fn load_mutated(bytes: &[u8]) -> cobra_store::LoadReport {
    let dir = tmp_dir();
    let store = Store::new(&dir);
    let path = store.path_for(&key());
    std::fs::write(&path, bytes).unwrap();
    let report = read_snapshot_file(&path, Some(&key()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single flipped bit damages at least one line; the loader never
    /// panics, counts the damage, and anything it still returns keys the
    /// right binary/machine.
    #[test]
    fn bit_flips_never_panic_and_are_counted(
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let bytes = pristine_bytes();
        let idx = ((byte_frac * bytes.len() as f64) as usize).min(bytes.len() - 1);
        let mut mutated = bytes;
        mutated[idx] ^= 1 << bit;
        let lr = load_mutated(&mutated);
        prop_assert!(
            lr.skipped_records > 0 || lr.error.is_some(),
            "a flipped bit at byte {idx} must be detected"
        );
        if let Some(snap) = &lr.snapshot {
            prop_assert_eq!(snap.key, key());
            // Damaged decisions are dropped, never mangled into new ones.
            for d in &snap.decisions {
                prop_assert!(cobra_isa::RewriteKind::from_name(&d.kind).is_some());
            }
        } else {
            prop_assert!(lr.error.is_some(), "cold start must carry a reason");
        }
    }

    /// Truncating the file anywhere degrades to a prefix of the records (or
    /// a rejected snapshot) — never a panic, never a wrong-key snapshot.
    #[test]
    fn truncation_never_panics(cut_frac in 0.0f64..1.0) {
        let bytes = pristine_bytes();
        let cut = (cut_frac * bytes.len() as f64) as usize;
        let lr = load_mutated(&bytes[..cut.min(bytes.len().saturating_sub(1))]);
        match &lr.snapshot {
            Some(snap) => {
                prop_assert_eq!(snap.key, key());
                let full = snapshot();
                prop_assert!(snap.decisions.len() <= full.decisions.len());
                prop_assert!(snap.blacklist.len() <= full.blacklist.len());
            }
            None => prop_assert!(lr.error.is_some(), "cold start must carry a reason"),
        }
    }

    /// Replacing a whole tail with garbage bytes: loader survives and the
    /// header-led prefix still loads.
    #[test]
    fn garbage_tail_never_panics(tail_frac in 0.1f64..1.0, fill in any::<u8>()) {
        let bytes = pristine_bytes();
        let start = ((1.0 - tail_frac) * bytes.len() as f64) as usize;
        let mut mutated = bytes;
        for b in &mut mutated[start..] {
            *b = fill;
        }
        let lr = load_mutated(&mutated);
        if let Some(snap) = &lr.snapshot {
            prop_assert_eq!(snap.key, key());
        }
    }
}

/// Lines have no length cap, so a damaged or hostile file can hold one
/// nested a million deep. A parser that recurses once per level overflows
/// the loading thread's stack on it, which aborts the run at load; such a
/// line must be one more skipped record. Three shapes: bare arrays, objects
/// (the envelope's unknown-field skip), and an unknown field inside a body.
#[test]
fn million_deep_lines_are_skipped_not_fatal() {
    let deep = 1_000_000;
    let mut bytes = pristine_bytes();
    for line in [
        "[".repeat(deep),
        "{\"a\":".repeat(deep),
        format!(
            "{{\"crc\":1,\"body\":{{\"Blacklist\":{{\"x\":{}",
            "[".repeat(deep)
        ),
    ] {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    let lr = load_mutated(&bytes);
    assert_eq!(lr.skipped_records, 3);
    assert_eq!(lr.error, None);
    assert_eq!(lr.snapshot, Some(snapshot()));
}

/// A file may hold its `Profile` line more than once (an appended re-save,
/// a doubled write); the loader sums them. The sum is over counters the file
/// chose, so it is checked: a line that would overflow it is one more
/// skipped record — not a panic under overflow checks, not a wrapped counter
/// without them.
#[test]
fn repeated_profile_lines_sum_checked() {
    let profile_line = |bytes: &[u8]| -> Vec<u8> {
        let text = std::str::from_utf8(bytes).unwrap();
        let line = text.lines().find(|l| l.contains("\"Profile\"")).unwrap();
        format!("{line}\n").into_bytes()
    };

    // An ordinary line twice: both count.
    let mut bytes = pristine_bytes();
    bytes.extend(profile_line(&bytes));
    let lr = load_mutated(&bytes);
    assert_eq!((lr.skipped_records, lr.error.as_ref()), (0, None));
    let got = lr.snapshot.unwrap().profile;
    assert_eq!(got.instructions, 2 * snapshot().profile.instructions);
    assert_eq!(got.delinquent[0].coherent, 2 * 100);
    assert_eq!(got.branch_pairs[0].count, 2 * 900);

    // A CRC-valid line at the top of the range, twice: the second is
    // skipped and counted, whichever counter it would have overflowed.
    for field in 0..3 {
        let mut s = snapshot();
        match field {
            0 => s.profile.instructions = u64::MAX,
            1 => s.profile.delinquent[2].total_latency = u64::MAX,
            _ => s.profile.branch_pairs[5].count = u64::MAX,
        }
        let store = Store::new(tmp_dir());
        let mut bytes = std::fs::read(store.save(&s).unwrap()).unwrap();
        bytes.extend(profile_line(&bytes));
        let lr = load_mutated(&bytes);
        assert_eq!((lr.skipped_records, lr.error.as_ref()), (1, None));
        assert_eq!(lr.snapshot, Some(s), "the first line stands untouched");
    }
}
