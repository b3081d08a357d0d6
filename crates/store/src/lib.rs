//! # cobra-store — persistent profile & decision repository
//!
//! COBRA's continuous re-adaptation normally ends at process exit: every run
//! re-learns the same delinquent loads and re-trials the same reverts. This
//! crate persists what a run learned — the aggregate [`ProfileRecord`], the
//! per-loop [`DecisionRecord`]s (which rewrite, deploy outcome, CPI-trial
//! verdict) and the revert blacklist — so the next run on the *same binary
//! and machine* can warm-start instead of starting cold.
//!
//! ## Keying
//!
//! A snapshot is keyed by [`StoreKey`]: an FNV-1a hash of the pristine main
//! program text (trace-cache appendix excluded — deployments must not
//! re-key the binary) plus a fingerprint of the [`MachineConfig`] with the
//! host execution engine (`host_accel`) masked out, because the engines are
//! proven bit-identical and switching must not invalidate profiles. A profile recorded for a different binary or a
//! different cache/topology is **rejected**, never silently applied.
//!
//! ## File format & corruption tolerance
//!
//! One JSON-Lines file per key (`<imagehash>-<machinefp>.jsonl`). Each line
//! is an envelope `{"crc": <fnv64>, "body": <record>}` where the checksum
//! covers the canonical (deterministic field order) serialization of the
//! body. The first record is a [`Record::Header`] carrying the format
//! version and the key. Writes go through a temp file in the same directory
//! followed by an atomic rename, so readers never observe a torn snapshot
//! and concurrent writers degrade to last-writer-wins, not corruption.
//!
//! Loading never fails hard: a line that does not parse, whose checksum
//! does not match, or whose record is semantically invalid is *skipped and
//! counted* ([`LoadReport::skipped_records`]); a missing/corrupt header, a
//! version mismatch, or a key mismatch rejects the whole snapshot with
//! [`LoadReport::error`] set — the caller degrades to a cold start.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cobra_isa::{CodeImage, RewriteKind};
use cobra_machine::MachineConfig;
use serde::{Deserialize, Serialize, Value};

/// On-disk format version; bumped on incompatible record changes.
pub const FORMAT_VERSION: u32 = 1;

/// 64-bit FNV-1a over a byte stream.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv1a_words(words: &[u64], seed: u64) -> u64 {
    let mut h = seed;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Identity of a (binary, machine) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StoreKey {
    /// FNV-1a over the pristine main program text.
    pub image_hash: u64,
    /// FNV-1a over the machine configuration, fast-path toggles excluded.
    pub machine_fp: u64,
}

impl StoreKey {
    /// Key for an image/config pair as seen at attach time.
    pub fn for_run(image: &CodeImage, cfg: &MachineConfig) -> StoreKey {
        StoreKey {
            image_hash: image_hash(image),
            machine_fp: machine_fingerprint(cfg),
        }
    }

    /// Stable file stem for this key (what `Display` writes).
    pub fn file_stem(&self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for StoreKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}-{:016x}", self.image_hash, self.machine_fp)
    }
}

/// Content hash of the *main* program text. The trace-cache appendix is
/// excluded so a snapshot saved after deployments keys the same binary.
pub fn image_hash(image: &CodeImage) -> u64 {
    let main = &image.words()[..image.main_len() as usize];
    fnv1a_words(main, fnv1a(&(main.len() as u64).to_le_bytes()))
}

/// Fingerprint of everything about a [`MachineConfig`] that changes guest
/// behaviour. `host_accel` selects a host execution engine that is
/// bit-identical to the reference one (enforced by the equivalence suites),
/// so it is masked out: switching engines must not orphan a warm-start
/// snapshot.
pub fn machine_fingerprint(cfg: &MachineConfig) -> u64 {
    let mut v = serde_json::to_value(cfg).expect("config serializes");
    if let Value::Object(fields) = &mut v {
        fields.retain(|(k, _)| k != "host_accel");
    }
    let canon = serde_json::to_string(&v).expect("config serializes");
    fnv1a(canon.as_bytes())
}

/// Plain-field mirror of one delinquent-load entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelinquentRecord {
    pub pc: u32,
    pub coherent: u64,
    pub memory: u64,
    pub total_latency: u64,
}

/// Plain-field mirror of one BTB branch pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchPairRecord {
    pub src: u32,
    pub target: u32,
    pub count: u64,
}

/// Aggregate system profile of one or more runs (a flattened
/// `cobra_rt::SystemProfile` — this crate sits below `cobra-rt`, so it
/// mirrors the counters rather than referencing the type).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProfileRecord {
    pub instructions: u64,
    pub cycles: u64,
    pub bus_memory: u64,
    pub bus_coherent: u64,
    pub l2_miss: u64,
    pub l3_miss: u64,
    pub samples: u64,
    pub delinquent: Vec<DelinquentRecord>,
    pub branch_pairs: Vec<BranchPairRecord>,
}

impl ProfileRecord {
    /// `self + other`, the crate's one summing rule (delinquent/branch
    /// entries summed by key and kept sorted for deterministic
    /// serialization). The counters come from disk or the network, so every
    /// sum is checked: `None` as soon as one would overflow, with `self`
    /// untouched.
    fn checked_sum(&self, other: &ProfileRecord) -> Option<ProfileRecord> {
        let add = u64::checked_add;
        let mut del: BTreeMap<u32, DelinquentRecord> =
            self.delinquent.iter().map(|d| (d.pc, *d)).collect();
        for d in &other.delinquent {
            let e = del.entry(d.pc).or_insert(DelinquentRecord {
                pc: d.pc,
                ..Default::default()
            });
            e.coherent = add(e.coherent, d.coherent)?;
            e.memory = add(e.memory, d.memory)?;
            e.total_latency = add(e.total_latency, d.total_latency)?;
        }
        let mut pairs: BTreeMap<(u32, u32), u64> = self
            .branch_pairs
            .iter()
            .map(|p| ((p.src, p.target), p.count))
            .collect();
        for p in &other.branch_pairs {
            let e = pairs.entry((p.src, p.target)).or_insert(0);
            *e = add(*e, p.count)?;
        }
        Some(ProfileRecord {
            instructions: add(self.instructions, other.instructions)?,
            cycles: add(self.cycles, other.cycles)?,
            bus_memory: add(self.bus_memory, other.bus_memory)?,
            bus_coherent: add(self.bus_coherent, other.bus_coherent)?,
            l2_miss: add(self.l2_miss, other.l2_miss)?,
            l3_miss: add(self.l3_miss, other.l3_miss)?,
            samples: add(self.samples, other.samples)?,
            delinquent: del.into_values().collect(),
            branch_pairs: pairs
                .into_iter()
                .map(|((src, target), count)| BranchPairRecord { src, target, count })
                .collect(),
        })
    }
}

/// Final decision for one loop: which rewrite was deployed and how its
/// CPI trial ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    pub loop_head: u32,
    /// A [`RewriteKind::name`]; records with any other name are dropped at
    /// load (counted as skipped).
    pub kind: String,
    /// Whether the CPI trial regressed and the deployment was reverted.
    pub reverted: bool,
    pub baseline_cpi: f64,
    /// Last trial-window CPI; `None` when no trial window completed.
    /// Legacy snapshots wrote the sentinel `0.0` for "no window" — that is
    /// normalized to `None` at assembly (after the CRC check, so old lines
    /// still checksum byte-identically).
    #[serde(default)]
    pub post_cpi: Option<f64>,
}

/// Tournament outcome for one loop: the candidate that won its CPI trial
/// tournament, with every candidate's trial CPI for the record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WinnerRecord {
    pub loop_head: u32,
    /// Winning candidate spec name (e.g. `"combined.split"`).
    pub candidate: String,
    /// The winning plan's [`RewriteKind::name`].
    pub kind: String,
    /// `(candidate, trial CPI)` pairs, in trial order.
    pub trials: Vec<(String, f64)>,
}

/// Re-confirmation watermark for one loop head: how many of the merged runs
/// carried a decision or winner for it. Staleness is the debt
/// `snapshot.runs - seen_runs` — the number of merged runs that did *not*
/// re-confirm the head. Because `seen_runs` is a sum over confirming
/// uploads, the watermark is order-free: any interleaving of the same
/// upload multiset produces the same ages (the fleet server depends on
/// this for byte-identical shard state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgeRecord {
    pub loop_head: u32,
    /// Runs (of `snapshot.runs`) whose upload confirmed this head.
    pub seen_runs: u64,
}

/// Watermarks summed per head, as the sorted records a snapshot carries.
fn ages_from(seen: BTreeMap<u32, u64>) -> Vec<AgeRecord> {
    let age = |(loop_head, seen_runs)| AgeRecord {
        loop_head,
        seen_runs,
    };
    seen.into_iter().map(age).collect()
}

/// One line of a snapshot file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// Must be the first valid record of a file.
    Header {
        version: u32,
        image_hash: u64,
        machine_fp: u64,
        /// Runs folded into this snapshot.
        runs: u64,
    },
    Profile(ProfileRecord),
    Decision(DecisionRecord),
    /// A loop that must never be re-trialled.
    Blacklist {
        loop_head: u32,
    },
    /// A tournament winner for one loop (absent in pre-tournament
    /// snapshots; unknown variants in *future* files fail to parse and are
    /// skipped+counted like any damaged line).
    Winner(WinnerRecord),
    /// Re-confirmation watermark for one loop head. Every fold writes one
    /// per decided head; files older than the single fold carry none, and
    /// their heads count as confirmed by all of the file's runs.
    Age(AgeRecord),
}

/// A fully-loaded (or about-to-be-saved) repository entry for one key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    pub key: StoreKey,
    /// Runs folded into this snapshot.
    pub runs: u64,
    pub profile: ProfileRecord,
    pub decisions: Vec<DecisionRecord>,
    pub blacklist: Vec<u32>,
    /// Tournament winners, sorted by loop head (empty for pre-tournament
    /// snapshots).
    #[serde(default)]
    pub winners: Vec<WinnerRecord>,
    /// Re-confirmation watermarks, sorted by loop head (empty until the
    /// snapshot goes through [`Snapshot::fold_unordered`]).
    #[serde(default)]
    pub ages: Vec<AgeRecord>,
}

impl Snapshot {
    /// Empty snapshot for `key` (runs = 0 until something is folded in).
    pub fn empty(key: StoreKey) -> Snapshot {
        Snapshot {
            key,
            runs: 0,
            profile: ProfileRecord::default(),
            decisions: Vec::new(),
            blacklist: Vec::new(),
            winners: Vec::new(),
            ages: Vec::new(),
        }
    }

    /// Records this snapshot serializes to (header first).
    fn records(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.record_count());
        out.push(Record::Header {
            version: FORMAT_VERSION,
            image_hash: self.key.image_hash,
            machine_fp: self.key.machine_fp,
            runs: self.runs,
        });
        out.push(Record::Profile(self.profile.clone()));
        for d in &self.decisions {
            out.push(Record::Decision(d.clone()));
        }
        for &loop_head in &self.blacklist {
            out.push(Record::Blacklist { loop_head });
        }
        for w in &self.winners {
            out.push(Record::Winner(w.clone()));
        }
        for &a in &self.ages {
            out.push(Record::Age(a));
        }
        out
    }

    /// Total records this snapshot writes (header included).
    pub fn record_count(&self) -> usize {
        2 + self.decisions.len() + self.blacklist.len() + self.winners.len() + self.ages.len()
    }

    /// One-line human summary for `profile inspect`. Age watermarks only
    /// appear when present.
    pub fn summary(&self) -> String {
        let reverted = self.decisions.iter().filter(|d| d.reverted).count();
        let mut s = format!(
            "key {} v{} — {} run(s), {} samples, {} delinquent pcs, {} decisions ({} reverted), {} blacklisted, {} tournament winner(s)",
            self.key,
            FORMAT_VERSION,
            self.runs,
            self.profile.samples,
            self.profile.delinquent.len(),
            self.decisions.len(),
            reverted,
            self.blacklist.len(),
            self.winners.len(),
        );
        if !self.ages.is_empty() {
            s.push_str(&format!(", {} age watermark(s)", self.ages.len()));
        }
        s
    }

    /// How many of this snapshot's runs confirmed each loop head. Explicit
    /// [`AgeRecord`]s take precedence; a content head without one (a run's
    /// own snapshot before its first fold, and every file written before
    /// detach folded) counts as confirmed by all of the snapshot's runs.
    pub fn confirmations(&self) -> BTreeMap<u32, u64> {
        let mut m: BTreeMap<u32, u64> = self
            .ages
            .iter()
            .map(|a| (a.loop_head, a.seen_runs))
            .collect();
        for d in &self.decisions {
            m.entry(d.loop_head).or_insert(self.runs);
        }
        for w in &self.winners {
            m.entry(w.loop_head).or_insert(self.runs);
        }
        m
    }

    /// Copy of this snapshot with decisions and winners whose
    /// re-confirmation debt (`runs - seen_runs`) has reached `max_age_runs`
    /// dropped. Ages and blacklist are kept (the debt is remembered across
    /// further folds). Returns `(filtered, aged_decisions, aged_winners)`.
    pub fn age_filtered(&self, max_age_runs: u64) -> (Snapshot, u64, u64) {
        let seen = self.confirmations();
        let stale = |head: u32| {
            let seen_runs = seen.get(&head).copied().unwrap_or(0);
            self.runs.saturating_sub(seen_runs) >= max_age_runs
        };
        let mut out = self.clone();
        let before_d = out.decisions.len();
        out.decisions.retain(|d| !stale(d.loop_head));
        let before_w = out.winners.len();
        out.winners.retain(|w| !stale(w.loop_head));
        let aged_d = (before_d - out.decisions.len()) as u64;
        let aged_w = (before_w - out.winners.len()) as u64;
        (out, aged_d, aged_w)
    }
}

/// Canonical serialization of a record: the tie-break order of the
/// commutative fold below.
fn canon<T: Serialize>(r: &T) -> String {
    serde_json::to_string(r).expect("record serializes")
}

/// The one place that decides which of two records for a loop head
/// survives: put `new` into `held` (sorted and unique by `head_of`) unless
/// the record already at its head outranks it. A measured record beats an
/// unmeasured one, then the greater canonical serialization wins — a total
/// order on record *content*, so the survivor does not depend on which
/// input, line or upload came first. The canonical form is built only when
/// two differing records of equal standing meet.
fn fold_record<T: Clone + PartialEq + Serialize>(
    held: &mut Vec<T>,
    new: &T,
    head_of: fn(&T) -> u32,
    measured: fn(&T) -> bool,
) {
    match held.binary_search_by_key(&head_of(new), head_of) {
        Ok(i) => {
            let old = &mut held[i];
            let outranks = match (measured(new), measured(old)) {
                (n, o) if n != o => n,
                _ => new != old && canon(new) > canon(old),
            };
            if outranks {
                *old = new.clone();
            }
        }
        Err(i) => held.insert(i, new.clone()),
    }
}

fn fold_decision(held: &mut Vec<DecisionRecord>, new: &DecisionRecord) {
    fold_record(held, new, |d| d.loop_head, |d| d.post_cpi.is_some());
}

fn fold_winner(held: &mut Vec<WinnerRecord>, new: &WinnerRecord) {
    fold_record(held, new, |w| w.loop_head, |_| false);
}

/// Put `head` into the sorted, unique `list`.
fn insert_sorted(list: &mut Vec<u32>, head: u32) {
    if let Err(i) = list.binary_search(&head) {
        list.insert(i, head);
    }
}

impl Snapshot {
    /// The only way two snapshots of one key become one — at detach, in
    /// `profile merge` and on a fleet server alike. Order-free: commutative
    /// and associative, so the result is a pure function of the *multiset*
    /// folded so far. Profiles sum, runs sum, blacklists union and ages sum;
    /// where two inputs disagree on a decision or winner for one loop head
    /// the survivor is picked by [`fold_record`]'s total order (measured
    /// `post_cpi` beats none, then the lexicographically greatest canonical
    /// serialization), never by input position. Recency is not needed:
    /// every seed is re-validated against the live profile before it
    /// deploys, and a reverted loop travels through the blacklist, which
    /// only grows. The result always carries explicit ages: the watermark
    /// must survive the next fold.
    ///
    /// `self` holds its decisions, winners and blacklist sorted and unique
    /// per head (as [`Snapshot::empty`], this fold and a loaded file leave
    /// them); `other` may come in any order. Every sum is checked before
    /// anything is written: an `Err` — key mismatch, or a counter that
    /// would overflow — leaves `self` exactly as it was.
    pub fn fold_unordered(&mut self, other: &Snapshot) -> Result<(), String> {
        if other.key != self.key {
            return Err(format!(
                "key mismatch: cannot merge {} into {}",
                other.key, self.key
            ));
        }
        let overflow = || format!("folding into {}: a counter would overflow", self.key);
        let runs = self.runs.checked_add(other.runs).ok_or_else(overflow)?;
        let profile = self
            .profile
            .checked_sum(&other.profile)
            .ok_or_else(overflow)?;
        // A content head of `self` without a watermark stands for all of
        // `self`'s runs so far, as one of `other`'s does for `other`'s.
        let mut seen = self.confirmations();
        for (head, seen_runs) in other.confirmations() {
            let sum = seen.entry(head).or_insert(0);
            *sum = sum.checked_add(seen_runs).ok_or_else(overflow)?;
        }

        // Nothing below can fail.
        self.ages = ages_from(seen);
        self.runs = runs;
        self.profile = profile;
        for d in &other.decisions {
            fold_decision(&mut self.decisions, d);
        }
        for w in &other.winners {
            fold_winner(&mut self.winners, w);
        }
        for &head in &other.blacklist {
            insert_sorted(&mut self.blacklist, head);
        }
        Ok(())
    }
}

/// [`Snapshot::fold_unordered`] over `snapshots`, from empty.
pub fn merge_unordered(snapshots: &[Snapshot]) -> Result<Snapshot, String> {
    let first = snapshots.first().ok_or("nothing to merge")?;
    let mut out = Snapshot::empty(first.key);
    for s in snapshots {
        out.fold_unordered(s)?;
    }
    Ok(out)
}

/// Outcome of loading a snapshot. Never an `Err`: corruption degrades to
/// `snapshot: None` (cold start) with `error` explaining why, and damaged
/// individual records are skipped and counted.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    pub snapshot: Option<Snapshot>,
    /// Lines dropped: unparseable, checksum mismatch, or invalid contents.
    pub skipped_records: u64,
    /// Whole-snapshot rejection reason (missing/corrupt header, version or
    /// key mismatch, I/O error). `None` with `snapshot: None` means the
    /// file simply does not exist — a clean cold start.
    pub error: Option<String>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Envelope {
    crc: u64,
    body: Record,
}

fn encode_record(r: &Record) -> String {
    let body = serde_json::to_string(r).expect("record serializes");
    format!("{{\"crc\":{},\"body\":{}}}", fnv1a(body.as_bytes()), body)
}

/// Parse and checksum-verify one line; `None` means damaged.
fn decode_record(line: &str) -> Option<Record> {
    let env: Envelope = serde_json::from_str(line).ok()?;
    // The writer serialized the body with deterministic field order, so
    // re-serializing the parsed body reproduces the checksummed bytes; any
    // bit that survived parsing but changed a value fails here.
    let canon = serde_json::to_string(&env.body).ok()?;
    if fnv1a(canon.as_bytes()) != env.crc {
        return None;
    }
    match &env.body {
        Record::Decision(DecisionRecord { kind, .. })
        | Record::Winner(WinnerRecord { kind, .. })
            if RewriteKind::from_name(kind).is_none() =>
        {
            None
        }
        _ => Some(env.body),
    }
}

fn assemble(records: Vec<Record>, expected: Option<&StoreKey>) -> LoadReport {
    let mut report = LoadReport::default();
    let header = records.iter().find_map(|r| match r {
        Record::Header {
            version,
            image_hash,
            machine_fp,
            runs,
        } => Some((
            *version,
            StoreKey {
                image_hash: *image_hash,
                machine_fp: *machine_fp,
            },
            *runs,
        )),
        _ => None,
    });
    let Some((version, key, runs)) = header else {
        report.error = Some("no valid header record".into());
        return report;
    };
    if version != FORMAT_VERSION {
        report.error = Some(format!(
            "format version {version} (this build reads {FORMAT_VERSION})"
        ));
        return report;
    }
    if let Some(want) = expected {
        if key != *want {
            report.error = Some(format!(
                "snapshot keyed {key} but this run is {want}: different binary or machine"
            ));
            return report;
        }
    }
    let mut snap = Snapshot::empty(key);
    snap.runs = runs;
    let mut ages: BTreeMap<u32, u64> = BTreeMap::new();
    // No writer names a head twice; a file that does (two files joined by
    // hand) is resolved by the fold's order, not by which line came last.
    for r in records {
        match r {
            Record::Header { .. } => {}
            // Repeated profile lines sum; one that would overflow the sum
            // is damage like any other: skipped and counted.
            Record::Profile(p) => match snap.profile.checked_sum(&p) {
                Some(sum) => snap.profile = sum,
                None => report.skipped_records += 1,
            },
            Record::Decision(mut d) => {
                // Legacy "no trial window closed" sentinel. Normalized here,
                // after the CRC check, so old lines still checksum. Only the
                // exact 0.0 sentinel maps to None — NaN/negative values stay
                // visible so `verify snapshot` can flag them.
                if d.post_cpi == Some(0.0) {
                    d.post_cpi = None;
                }
                fold_decision(&mut snap.decisions, &d);
            }
            Record::Blacklist { loop_head } => insert_sorted(&mut snap.blacklist, loop_head),
            Record::Winner(w) => fold_winner(&mut snap.winners, &w),
            Record::Age(a) => {
                let seen = ages.entry(a.loop_head).or_insert(0);
                *seen = a.seen_runs.max(*seen);
            }
        }
    }
    snap.ages = ages_from(ages);
    report.snapshot = Some(snap);
    report
}

/// Load a snapshot file, skipping (and counting) damaged lines. Pass
/// `expected` to reject a snapshot whose header keys a different
/// binary/machine.
pub fn read_snapshot_file(path: &Path, expected: Option<&StoreKey>) -> LoadReport {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadReport::default(),
        Err(e) => {
            return LoadReport {
                error: Some(format!("cannot read {}: {e}", path.display())),
                ..LoadReport::default()
            }
        }
    };
    let mut records = Vec::new();
    let mut skipped = 0u64;
    for line in std::io::BufReader::new(file).lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => {
                // Non-UTF8 / I/O mid-file: everything after is suspect.
                skipped += 1;
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        match decode_record(&line) {
            Some(r) => records.push(r),
            None => skipped += 1,
        }
    }
    let mut report = assemble(records, expected);
    report.skipped_records += skipped;
    report
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `snapshot` to `path` via a same-directory temp file and an atomic
/// rename, so a concurrent reader sees either the old or the new snapshot,
/// never a torn one.
pub fn write_snapshot_file(path: &Path, snapshot: &Snapshot) -> Result<(), String> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let tmp_name = format!(
        ".{}.tmp.{}.{}",
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "snapshot".into()),
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    let write = (|| -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        for r in snapshot.records() {
            writeln!(f, "{}", encode_record(&r))?;
        }
        f.flush()
    })();
    if let Err(e) = write {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!("cannot write {}: {e}", tmp.display()));
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot commit {}: {e}", path.display())
    })
}

/// A directory of snapshots, one file per [`StoreKey`].
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    pub fn new(root: impl Into<PathBuf>) -> Store {
        Store { root: root.into() }
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path a snapshot for `key` lives at.
    pub fn path_for(&self, key: &StoreKey) -> PathBuf {
        self.root.join(format!("{}.jsonl", key.file_stem()))
    }

    /// Load the snapshot for `key`. A missing file with *other* snapshots
    /// present reports an error (the store holds profiles, just not for
    /// this binary/machine — worth telemetering); an empty or absent store
    /// is a clean cold start.
    pub fn load(&self, key: &StoreKey) -> LoadReport {
        let path = self.path_for(key);
        if !path.exists() {
            let others = self.snapshot_paths().len();
            if others > 0 {
                return LoadReport {
                    error: Some(format!(
                        "no snapshot for key {key}; {others} snapshot(s) for other \
                         binaries/machines rejected"
                    )),
                    ..LoadReport::default()
                };
            }
            return LoadReport::default();
        }
        read_snapshot_file(&path, Some(key))
    }

    /// Atomically write `snapshot` under its key; returns the final path.
    pub fn save(&self, snapshot: &Snapshot) -> Result<PathBuf, String> {
        let path = self.path_for(&snapshot.key);
        write_snapshot_file(&path, snapshot)?;
        Ok(path)
    }

    /// Every snapshot file currently in the store, sorted by name.
    pub fn snapshot_paths(&self) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(&self.root)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_machine::HostAccel;

    fn tmp_root(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "cobra-store-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        // Process ids come round again: a directory an earlier run left under
        // the same name must not hand this one its files.
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_snapshot(key: StoreKey) -> Snapshot {
        let mut s = Snapshot::empty(key);
        s.runs = 1;
        s.profile = ProfileRecord {
            instructions: 1_000_000,
            cycles: 1_500_000,
            bus_memory: 4_000,
            bus_coherent: 900,
            l2_miss: 2_000,
            l3_miss: 1_200,
            samples: 640,
            delinquent: vec![DelinquentRecord {
                pc: 12,
                coherent: 30,
                memory: 4,
                total_latency: 6_000,
            }],
            branch_pairs: vec![BranchPairRecord {
                src: 19,
                target: 11,
                count: 250,
            }],
        };
        s.decisions = vec![DecisionRecord {
            loop_head: 11,
            kind: "noprefetch".into(),
            reverted: false,
            baseline_cpi: 1.5,
            post_cpi: Some(1.2),
        }];
        s.blacklist = vec![40];
        s.winners = vec![WinnerRecord {
            loop_head: 11,
            candidate: "combined.split".into(),
            kind: "combined".into(),
            trials: vec![("noprefetch".into(), 1.3), ("combined.split".into(), 1.2)],
        }];
        s
    }

    fn key() -> StoreKey {
        StoreKey {
            image_hash: 0xdead_beef,
            machine_fp: 0x1234_5678,
        }
    }

    #[test]
    fn save_load_round_trip() {
        let store = Store::new(tmp_root("roundtrip"));
        let snap = sample_snapshot(key());
        let path = store.save(&snap).unwrap();
        assert!(path.ends_with(format!("{}.jsonl", key().file_stem())));
        let lr = store.load(&key());
        assert_eq!(lr.skipped_records, 0);
        assert_eq!(lr.error, None);
        assert_eq!(lr.snapshot.unwrap(), snap);
    }

    #[test]
    fn missing_store_is_clean_cold_start() {
        let store = Store::new(tmp_root("missing").join("never-created"));
        let lr = store.load(&key());
        assert!(lr.snapshot.is_none());
        assert!(lr.error.is_none());
        assert_eq!(lr.skipped_records, 0);
    }

    #[test]
    fn other_keys_present_is_a_reported_rejection() {
        let store = Store::new(tmp_root("otherkey"));
        store.save(&sample_snapshot(key())).unwrap();
        let other = StoreKey {
            image_hash: 1,
            machine_fp: 2,
        };
        let lr = store.load(&other);
        assert!(lr.snapshot.is_none());
        assert!(lr.error.unwrap().contains("other binaries/machines"));
    }

    #[test]
    fn renamed_snapshot_with_wrong_header_key_is_rejected() {
        let store = Store::new(tmp_root("renamed"));
        let snap = sample_snapshot(key());
        let src = store.save(&snap).unwrap();
        let other = StoreKey {
            image_hash: 7,
            machine_fp: 8,
        };
        std::fs::rename(&src, store.path_for(&other)).unwrap();
        let lr = store.load(&other);
        assert!(lr.snapshot.is_none());
        assert!(lr.error.unwrap().contains("different binary or machine"));
    }

    #[test]
    fn corrupt_line_is_skipped_and_counted() {
        let store = Store::new(tmp_root("corrupt"));
        let mut snap = sample_snapshot(key());
        snap.decisions.push(DecisionRecord {
            loop_head: 90,
            kind: "prefetch.excl".into(),
            reverted: true,
            baseline_cpi: 1.0,
            post_cpi: Some(2.0),
        });
        let path = store.save(&snap).unwrap();
        // Flip one byte inside the second decision's line.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let idx = lines
            .iter()
            .position(|l| l.contains("\"loop_head\":90"))
            .unwrap();
        lines[idx] = lines[idx].replace("\"reverted\":true", "\"reverted\":fals"); // breaks parse
        std::fs::write(&path, lines.join("\n")).unwrap();
        let lr = store.load(&key());
        assert_eq!(lr.skipped_records, 1);
        let got = lr.snapshot.unwrap();
        assert_eq!(got.decisions.len(), 1, "damaged decision dropped");
        assert_eq!(got.decisions[0].loop_head, 11);
    }

    #[test]
    fn checksum_catches_value_tampering_that_still_parses() {
        let store = Store::new(tmp_root("tamper"));
        let snap = sample_snapshot(key());
        let path = store.save(&snap).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Change a numeric value without breaking JSON.
        let tampered = text.replace("\"baseline_cpi\":1.5", "\"baseline_cpi\":9.5");
        assert_ne!(text, tampered);
        std::fs::write(&path, tampered).unwrap();
        let lr = store.load(&key());
        assert_eq!(lr.skipped_records, 1, "crc mismatch drops the line");
        assert!(lr.snapshot.unwrap().decisions.is_empty());
    }

    #[test]
    fn version_mismatch_rejects_whole_snapshot() {
        let store = Store::new(tmp_root("version"));
        let snap = sample_snapshot(key());
        let path = store.save(&snap).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        // Re-encode the header at a future version (valid crc, wrong version).
        lines[0] = encode_record(&Record::Header {
            version: FORMAT_VERSION + 1,
            image_hash: key().image_hash,
            machine_fp: key().machine_fp,
            runs: 1,
        });
        std::fs::write(&path, lines.join("\n")).unwrap();
        let lr = store.load(&key());
        assert!(lr.snapshot.is_none());
        assert!(lr.error.unwrap().contains("version"));
    }

    #[test]
    fn unknown_decision_kind_is_dropped() {
        let store = Store::new(tmp_root("kind"));
        let snap = sample_snapshot(key());
        let path = store.save(&snap).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&encode_record(&Record::Decision(DecisionRecord {
            loop_head: 77,
            kind: "superluminal".into(),
            reverted: false,
            baseline_cpi: 1.0,
            post_cpi: Some(1.0),
        })));
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let lr = store.load(&key());
        assert_eq!(lr.skipped_records, 1);
        assert!(lr
            .snapshot
            .unwrap()
            .decisions
            .iter()
            .all(|d| d.loop_head != 77));
    }

    #[test]
    fn fold_sums_profiles_and_unions_decisions() {
        let mut a = sample_snapshot(key());
        let mut b = sample_snapshot(key());
        b.decisions[0].kind = "prefetch.excl".into();
        b.decisions.push(DecisionRecord {
            loop_head: 99,
            kind: "noprefetch".into(),
            reverted: false,
            baseline_cpi: 2.0,
            post_cpi: Some(1.9),
        });
        b.blacklist = vec![40, 41];
        a.profile.branch_pairs.push(BranchPairRecord {
            src: 70,
            target: 60,
            count: 5,
        });
        let m = merge_unordered(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(m.runs, 2);
        assert_eq!(m.profile.samples, 1280);
        assert_eq!(m.profile.delinquent[0].coherent, 60);
        // One survivor per loop head, whichever input named it first.
        assert_eq!(m.decisions.len(), 2);
        assert_eq!(m.decisions[0].kind, "prefetch.excl");
        assert_eq!(merge_unordered(&[b, a.clone()]).unwrap(), m);
        assert_eq!(m.blacklist, vec![40, 41]);
        let other = sample_snapshot(StoreKey {
            image_hash: 5,
            machine_fp: 6,
        });
        assert!(merge_unordered(&[a, other]).is_err());
    }

    /// A PR 4/5-era decision line — bare `f64` `post_cpi` with the `0.0`
    /// "no trial window closed" sentinel — must still checksum (the CRC
    /// covers the canonical re-serialization, and `Some(0.0)` re-serializes
    /// byte-identically to the old `0.0`) and normalize to `None`.
    #[test]
    fn legacy_zero_post_cpi_line_loads_as_none() {
        let store = Store::new(tmp_root("legacy"));
        let snap = sample_snapshot(key());
        let path = store.save(&snap).unwrap();
        let body = r#"{"Decision":{"loop_head":55,"kind":"prefetch.excl","reverted":false,"baseline_cpi":1.4,"post_cpi":0.0}}"#;
        let line = format!("{{\"crc\":{},\"body\":{}}}", fnv1a(body.as_bytes()), body);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&line);
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let lr = store.load(&key());
        assert_eq!(lr.skipped_records, 0, "legacy line must still checksum");
        let got = lr.snapshot.unwrap();
        let d = got.decisions.iter().find(|d| d.loop_head == 55).unwrap();
        assert_eq!(d.post_cpi, None, "0.0 sentinel normalizes to None");
    }

    #[test]
    fn none_post_cpi_round_trips_and_absent_field_defaults() {
        let store = Store::new(tmp_root("nonecpi"));
        let mut snap = sample_snapshot(key());
        snap.decisions[0].post_cpi = None;
        store.save(&snap).unwrap();
        let lr = store.load(&key());
        assert_eq!(lr.skipped_records, 0);
        assert_eq!(lr.snapshot.unwrap().decisions[0].post_cpi, None);
        // Writers that never emitted the field at all: serde default → None.
        let d: DecisionRecord = serde_json::from_str(
            r#"{"loop_head":3,"kind":"noprefetch","reverted":false,"baseline_cpi":1.1}"#,
        )
        .unwrap();
        assert_eq!(d.post_cpi, None);
    }

    #[test]
    fn winner_with_unknown_kind_is_dropped() {
        let store = Store::new(tmp_root("winnerkind"));
        let snap = sample_snapshot(key());
        let path = store.save(&snap).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&encode_record(&Record::Winner(WinnerRecord {
            loop_head: 88,
            candidate: "warp".into(),
            kind: "superluminal".into(),
            trials: vec![],
        })));
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let lr = store.load(&key());
        assert_eq!(lr.skipped_records, 1);
        let got = lr.snapshot.unwrap();
        assert!(got.winners.iter().all(|w| w.loop_head != 88));
        assert_eq!(got.winners.len(), 1, "valid winner survives");
    }

    #[test]
    fn fold_keeps_one_winner_and_the_measured_post_cpi() {
        let a = sample_snapshot(key());
        let mut b = sample_snapshot(key());
        b.winners[0].candidate = "prefetch.excl".into();
        b.winners[0].kind = "prefetch.excl".into();
        // A run of the same decision that never closed a trial window must
        // not erase the measured post-CPI.
        b.decisions[0].post_cpi = None;
        for inputs in [[a.clone(), b.clone()], [b, a]] {
            let m = merge_unordered(&inputs).unwrap();
            assert_eq!(m.winners.len(), 1);
            assert_eq!(m.winners[0].candidate, "prefetch.excl");
            assert_eq!(m.decisions[0].post_cpi, Some(1.2));
        }
    }

    /// Decisions/winners not re-confirmed within `max_age_runs` folded runs
    /// are dropped and counted; re-confirmed ones survive.
    #[test]
    fn aging_drops_unconfirmed_decisions() {
        let a = sample_snapshot(key()); // head 11 decision + winner
        let mut b = sample_snapshot(key());
        b.decisions = vec![DecisionRecord {
            loop_head: 99,
            kind: "noprefetch".into(),
            reverted: false,
            baseline_cpi: 2.0,
            post_cpi: Some(1.9),
        }];
        b.winners = Vec::new();
        // Three more runs that only re-confirm head 99.
        let mut c = b.clone();
        c.runs = 3;
        let folded = merge_unordered(&[a, b, c]).unwrap();
        let (aged, aged_decisions, aged_winners) = folded.age_filtered(3);
        // head 11: seen 1 of 5 runs → debt 4 ≥ 3 → aged out (decision and
        // winner); head 99: seen 4 of 5 → debt 1 → kept.
        assert_eq!(aged_decisions, 1);
        assert_eq!(aged_winners, 1);
        let heads: Vec<u32> = aged.decisions.iter().map(|d| d.loop_head).collect();
        assert_eq!(heads, vec![99]);
        assert!(aged.winners.is_empty());
        // The debt is remembered: head 11 keeps its age watermark.
        assert_eq!(aged.confirmations()[&11], 1);
        // The fold itself keeps everything.
        assert_eq!(folded.decisions.len(), 2);
    }

    /// A file that names one loop head twice loads to the record the fold
    /// would keep, whichever line comes last.
    #[test]
    fn head_named_twice_in_one_file_is_resolved_by_the_fold_order() {
        let store = Store::new(tmp_root("twice"));
        let snap = sample_snapshot(key());
        let path = store.save(&snap).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut unmeasured = snap.decisions[0].clone();
        unmeasured.kind = "prefetch.excl".into();
        unmeasured.post_cpi = Some(0.0); // the legacy "no window" sentinel
        let mut rival = snap.winners[0].clone();
        rival.candidate = "noprefetch".into();
        let extra = [
            encode_record(&Record::Decision(unmeasured)),
            encode_record(&Record::Winner(rival.clone())),
            encode_record(&Record::Blacklist { loop_head: 40 }),
        ];
        let extra = extra.join("\n");
        let (header, rest) = text.split_once('\n').unwrap();
        let mut loaded = Vec::new();
        for joined in [
            format!("{text}{extra}\n"),
            format!("{header}\n{extra}\n{rest}"),
        ] {
            std::fs::write(&path, joined).unwrap();
            let lr = store.load(&key());
            assert_eq!(lr.skipped_records, 0);
            loaded.push(lr.snapshot.unwrap());
        }
        assert_eq!(loaded[0], loaded[1], "line order does not matter");
        let got = &loaded[0];
        assert_eq!(got.decisions, snap.decisions, "the measured record stays");
        assert_eq!(got.blacklist, vec![40]);
        // The winner kept is the one kept when the two meet in a fold.
        let mut other = snap.clone();
        other.winners = vec![rival];
        let folded = merge_unordered(&[snap, other]).unwrap();
        assert_eq!(got.winners, folded.winners);
    }

    /// Ages survive a save/load round trip, and the summed watermark is
    /// what a re-merge sees.
    #[test]
    fn age_records_round_trip() {
        let store = Store::new(tmp_root("ages"));
        let mut snap = sample_snapshot(key());
        snap.ages = vec![AgeRecord {
            loop_head: 11,
            seen_runs: 1,
        }];
        store.save(&snap).unwrap();
        let lr = store.load(&key());
        assert_eq!(lr.skipped_records, 0);
        let got = lr.snapshot.unwrap();
        assert_eq!(got, snap);
        assert!(got.summary().contains("1 age watermark(s)"));
    }

    /// The fleet fold is order-free: any permutation of the same snapshot
    /// multiset produces byte-identical records, and folding incrementally
    /// (as the server does, one upload at a time) matches folding all at
    /// once.
    #[test]
    fn merge_unordered_is_commutative_and_associative() {
        let a = sample_snapshot(key());
        let mut b = sample_snapshot(key());
        b.decisions[0].kind = "prefetch.excl".into();
        b.decisions[0].post_cpi = None;
        b.blacklist = vec![41];
        let mut c = sample_snapshot(key());
        c.decisions = vec![DecisionRecord {
            loop_head: 99,
            kind: "noprefetch".into(),
            reverted: false,
            baseline_cpi: 2.0,
            post_cpi: Some(1.9),
        }];
        c.winners = Vec::new();
        let bytes = |s: &Snapshot| {
            s.records()
                .iter()
                .map(encode_record)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let all = merge_unordered(&[a.clone(), b.clone(), c.clone()]).unwrap();
        for perm in [
            vec![a.clone(), c.clone(), b.clone()],
            vec![b.clone(), a.clone(), c.clone()],
            vec![c.clone(), b.clone(), a.clone()],
        ] {
            assert_eq!(bytes(&merge_unordered(&perm).unwrap()), bytes(&all));
        }
        // Incremental left fold and right-leaning fold both match.
        let inc = merge_unordered(&[merge_unordered(&[a.clone(), b.clone()]).unwrap(), c.clone()])
            .unwrap();
        assert_eq!(bytes(&inc), bytes(&all));
        let rl = merge_unordered(&[a.clone(), merge_unordered(&[c.clone(), b.clone()]).unwrap()])
            .unwrap();
        assert_eq!(bytes(&rl), bytes(&all));
        // A measured post-CPI beats an unmeasured record at the same head,
        // whatever the order.
        let kept = all.decisions.iter().find(|d| d.loop_head == 11).unwrap();
        assert!(kept.post_cpi.is_some());
        // Ages: head 11 confirmed by a and b (1 run each), head 99 by c.
        assert_eq!(all.confirmations()[&11], 2);
        assert_eq!(all.confirmations()[&99], 1);
        assert_eq!(all.runs, 3);
    }

    /// The fold as it stood before `fold_unordered`, kept verbatim as the
    /// reference: every input's every record ranked, all maps rebuilt.
    fn merge_unordered_reference(snapshots: &[Snapshot]) -> Result<Snapshot, String> {
        let first = snapshots.first().ok_or("nothing to merge")?;
        let mut out = Snapshot::empty(first.key);
        let mut decisions: BTreeMap<u32, (bool, String, DecisionRecord)> = BTreeMap::new();
        let mut winners: BTreeMap<u32, (String, WinnerRecord)> = BTreeMap::new();
        let mut blacklist: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        let mut seen: BTreeMap<u32, u64> = BTreeMap::new();
        for s in snapshots {
            if s.key != first.key {
                return Err(format!(
                    "key mismatch: cannot merge {} into {}",
                    s.key, first.key
                ));
            }
            out.runs += s.runs;
            out.profile = out.profile.checked_sum(&s.profile).expect("sums fit");
            for d in &s.decisions {
                let rank = (d.post_cpi.is_some(), canon(d));
                match decisions.get(&d.loop_head) {
                    Some((has_cpi, c, _))
                        if (*has_cpi, c.as_str()) >= (rank.0, rank.1.as_str()) => {}
                    _ => {
                        decisions.insert(d.loop_head, (rank.0, rank.1, d.clone()));
                    }
                }
            }
            for w in &s.winners {
                let c = canon(w);
                match winners.get(&w.loop_head) {
                    Some((prev, _)) if prev.as_str() >= c.as_str() => {}
                    _ => {
                        winners.insert(w.loop_head, (c, w.clone()));
                    }
                }
            }
            blacklist.extend(s.blacklist.iter().copied());
            for (head, seen_runs) in s.confirmations() {
                *seen.entry(head).or_insert(0) += seen_runs;
            }
        }
        out.decisions = decisions.into_values().map(|(_, _, d)| d).collect();
        out.blacklist = blacklist.into_iter().collect();
        out.winners = winners.into_values().map(|(_, w)| w).collect();
        out.ages = seen
            .into_iter()
            .map(|(loop_head, seen_runs)| AgeRecord {
                loop_head,
                seen_runs,
            })
            .collect();
        Ok(out)
    }

    /// `sample_snapshot` bent by the bits of `shape` into what an upload may
    /// legally look like: decisions out of order and twice at one head,
    /// with and without a measured `post_cpi`, winners contested or not,
    /// ages explicit (one for a head with no content) or left implicit,
    /// an unsorted blacklist, one delinquent pc listed twice.
    fn shaped_snapshot(shape: u32) -> Snapshot {
        let bit = |n: u32| shape >> n & 1 == 1;
        let mut s = sample_snapshot(key());
        s.runs = 1 + (shape & 3) as u64;
        s.decisions.clear();
        for (i, loop_head) in [11u32, 7, 11, 99].into_iter().enumerate() {
            let i = i as u32;
            if bit(2 + i) {
                s.decisions.push(DecisionRecord {
                    loop_head,
                    kind: RewriteKind::ALL[(shape >> (6 + 2 * i)) as usize % 3]
                        .name()
                        .into(),
                    reverted: bit(14 + i),
                    baseline_cpi: 1.5,
                    post_cpi: bit(18 + i).then_some(1.0 + (shape >> 22 & 3) as f64 / 4.0),
                });
            }
        }
        if bit(24) {
            let mut w = s.winners[0].clone();
            w.candidate = "noprefetch".into();
            s.winners.insert(0, w.clone());
            w.loop_head = 7;
            s.winners.insert(0, w);
        }
        if bit(25) {
            s.winners.clear();
        }
        if bit(26) {
            for loop_head in [500, 11, 7] {
                s.ages.push(AgeRecord {
                    loop_head,
                    seen_runs: s.runs.min(1 + (shape >> 27 & 1) as u64),
                });
            }
        }
        if bit(28) {
            s.blacklist = vec![41, 40, 3];
        }
        if bit(29) {
            let twice = s.profile.delinquent[0];
            s.profile
                .delinquent
                .insert(0, DelinquentRecord { pc: 90, ..twice });
            s.profile.delinquent.push(twice);
        }
        s
    }

    fn file_bytes(s: &Snapshot) -> String {
        let lines: Vec<String> = s.records().iter().map(encode_record).collect();
        lines.join("\n")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `fold_unordered`, one upload at a time from empty, writes the
        /// bytes the reference fold writes for the same inputs — and does
        /// so from a sorted accumulator that carries no ages yet (a
        /// classic snapshot a server restarts warm from).
        #[test]
        fn fold_unordered_matches_the_reference_fold(
            shapes in proptest::collection::vec(proptest::prelude::any::<u32>(), 1..7),
        ) {
            let inputs: Vec<Snapshot> = shapes.iter().map(|&s| shaped_snapshot(s)).collect();
            let want = merge_unordered_reference(&inputs).unwrap();
            proptest::prop_assert_eq!(
                file_bytes(&merge_unordered(&inputs).unwrap()),
                file_bytes(&want)
            );

            // What one input folds to, with the ages forgotten.
            let mut classic = merge_unordered(&inputs[..1]).unwrap();
            classic.ages.clear();
            let mut acc = classic.clone();
            for s in &inputs[1..] {
                acc.fold_unordered(s).unwrap();
            }
            let mut from_classic = vec![classic];
            from_classic.extend_from_slice(&inputs[1..]);
            let want = merge_unordered_reference(&from_classic).unwrap();
            if inputs.len() > 1 {
                proptest::prop_assert_eq!(file_bytes(&acc), file_bytes(&want));
            }
        }
    }

    /// A sum that would not fit is refused before anything is written:
    /// whichever counter it is, the accumulator keeps its exact bytes and
    /// goes on folding honest uploads. So is another key's upload. It is
    /// the same `Err` — not a panic, not a wrapped sum — when the oversized
    /// side is the one folded into (a prior snapshot from disk, at detach),
    /// and both are then as they were, so the caller can still save the
    /// fresh one.
    #[test]
    fn fold_that_would_overflow_is_refused_and_changes_nothing() {
        let mut acc = merge_unordered(&[sample_snapshot(key())]).unwrap();
        let before = file_bytes(&acc);
        let hostile: [fn(&mut Snapshot); 6] = [
            |s| s.runs = u64::MAX,
            |s| s.profile.samples = u64::MAX,
            |s| s.profile.delinquent[0].total_latency = u64::MAX,
            |s| s.profile.branch_pairs[0].count = u64::MAX,
            |s| {
                s.ages = vec![AgeRecord {
                    loop_head: 11,
                    seen_runs: u64::MAX,
                }]
            },
            |s| s.key.machine_fp += 1,
        ];
        for bend in hostile {
            let mut s = sample_snapshot(key());
            bend(&mut s);
            let mut prior = s.clone();
            for err in [acc.fold_unordered(&s), prior.fold_unordered(&acc)] {
                let err = err.unwrap_err();
                assert!(
                    err.contains("would overflow") || err.contains("key mismatch"),
                    "got: {err}"
                );
            }
            assert_eq!(file_bytes(&acc), before);
            assert_eq!(prior, s);
        }
        acc.fold_unordered(&sample_snapshot(key())).unwrap();
        assert_eq!(acc.runs, 2);
    }

    #[test]
    fn machine_fingerprint_ignores_the_host_engine() {
        // Neither engine may change guest-visible behaviour, so neither may
        // orphan a warm-start snapshot.
        let base = MachineConfig::smp4().with_host_accel(HostAccel::reference());
        let fast = base.clone().with_host_accel(HostAccel::fast());
        assert_eq!(machine_fingerprint(&base), machine_fingerprint(&fast));
        assert_ne!(
            machine_fingerprint(&base),
            machine_fingerprint(&MachineConfig::altix8())
        );
        let mut bigger_l3 = base.clone();
        bigger_l3.l3.size *= 2;
        assert_ne!(machine_fingerprint(&base), machine_fingerprint(&bigger_l3));
    }

    #[test]
    fn image_hash_ignores_trace_appendix() {
        let mut a = cobra_isa::Assembler::new();
        a.movi(4, 7);
        a.hlt();
        let mut img = a.finish();
        let pristine = image_hash(&img);
        img.append_trace(&[cobra_isa::Insn::new(cobra_isa::insn::Op::Nop {
            unit: cobra_isa::Unit::M,
        })]);
        assert_eq!(
            image_hash(&img),
            pristine,
            "appended traces must not re-key"
        );
        let mut b = cobra_isa::Assembler::new();
        b.movi(4, 8);
        b.hlt();
        assert_ne!(image_hash(&b.finish()), pristine);
    }
}
