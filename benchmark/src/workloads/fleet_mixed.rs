//! `fleet_mixed`: the service path, no simulator time at all.
//!
//! An in-process `FleetServer` on loopback (default configuration, in
//! memory) driven in a **closed loop**: each connection sends its next
//! request only when the previous reply has arrived. One pass starts a
//! fresh server and runs three phases — A: one connection uploads seeded
//! snapshots spread over 32 keys; B: one connection fetches seeds; C: two
//! connections at once, one uploading and one fetching, so a fetch gain
//! paid for by fold cost shows. Frame codec, shard fold and seed
//! filter/verify are the layers; every reply is checked against the fold
//! state the requests imply.

use std::time::{Duration, Instant};

use cobra_fleet::{FleetClient, FleetConfig, FleetServer};
use cobra_store::{DecisionRecord, ProfileRecord, Snapshot, StoreKey};

use crate::calib::Inline;
use crate::probes::{self, SplitMix};
use crate::scenario::{Layers, PassOut, Scenario};
use crate::sim::CellTime;
use crate::span::Tracer;
use crate::stats::percentile;

pub const KEYS: u64 = 32;
const UPLOADS_A: usize = 20_000;
const FETCHES_B: usize = 25_000;
const EACH_C: usize = 10_000;
/// Every phase is timed in chunks of this many requests per connection,
/// each a cell with its own host slowdown. Chunk `i` of a phase meets the
/// same server state in every pass.
const CHUNK: usize = 5_000;

pub fn key(k: u64) -> StoreKey {
    StoreKey {
        image_hash: 0x1000 + k,
        machine_fp: 0x2000,
    }
}

/// One run's worth of upload for `key`, drawn from `rng`: a profile and
/// one to four decisions over a handful of loop heads, so folds both add
/// records and merge into existing ones.
pub fn seeded_snapshot(key: StoreKey, rng: &mut SplitMix) -> Snapshot {
    let mut s = Snapshot::empty(key);
    s.runs = 1;
    s.profile = ProfileRecord {
        instructions: 10_000 + rng.below(1_000),
        cycles: 20_000 + rng.below(1_000),
        samples: 100,
        ..ProfileRecord::default()
    };
    for _ in 0..=rng.below(4) {
        let head = 8 + 16 * rng.below(8) as u32;
        if s.decisions.iter().any(|d| d.loop_head == head) {
            continue;
        }
        s.decisions.push(DecisionRecord {
            loop_head: head,
            kind: if rng.below(2) == 0 {
                "noprefetch".into()
            } else {
                "prefetch.excl".into()
            },
            reverted: false,
            baseline_cpi: 1.5,
            post_cpi: (rng.below(3) == 0).then_some(1.2),
        });
    }
    s
}

/// The inputs of one pass, generated in set-up from the seed.
struct Inputs {
    uploads_a: Vec<Snapshot>,
    fetches_b: Vec<StoreKey>,
    uploads_c: Vec<Snapshot>,
    fetches_c: Vec<StoreKey>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let mut rng = SplitMix::new(seed);
        let mut snaps = |n: usize| -> Vec<Snapshot> {
            (0..n)
                .map(|_| {
                    let k = key(rng.below(KEYS));
                    seeded_snapshot(k, &mut rng)
                })
                .collect()
        };
        let uploads_a = snaps(UPLOADS_A);
        let uploads_c = snaps(EACH_C);
        // Only keys phase A has uploaded to, so no fetch can miss.
        let present: Vec<StoreKey> = uploads_a.iter().map(|s| s.key).collect();
        let mut keys = |n: usize| -> Vec<StoreKey> {
            (0..n)
                .map(|_| present[rng.below(present.len() as u64) as usize])
                .collect()
        };
        Inputs {
            fetches_b: keys(FETCHES_B),
            fetches_c: keys(EACH_C),
            uploads_a,
            uploads_c,
        }
    }
}

/// Outcome of one connection's closed loop.
#[derive(Default)]
struct Loop {
    failed: u64,
    error: Option<String>,
    rtt_ns: Vec<u64>,
}

impl Loop {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.error.get_or_insert(e);
    }

    fn absorb(&mut self, other: Loop) {
        self.failed += other.failed;
        self.error = self.error.take().or(other.error);
        self.rtt_ns.extend(other.rtt_ns);
    }
}

/// Upload `snaps` one by one. `runs[k]` is the number of runs the server
/// has folded for key `k`; every reply must report exactly the next count
/// when this is the only uploader. `inline` samples the host between
/// requests, when the server is idle; phase C has none, because its other
/// connection keeps the server busy.
fn upload_loop(
    client: &mut FleetClient,
    snaps: &[Snapshot],
    runs: &mut [u64],
    timed: bool,
    mut inline: Option<&mut Inline>,
) -> Loop {
    let mut out = Loop::default();
    for s in snaps {
        if let Some(inline) = &mut inline {
            inline.poll();
        }
        let k = (s.key.image_hash - 0x1000) as usize;
        let t = timed.then(Instant::now);
        let reply = client.upload(s, None);
        if let Some(t) = t {
            out.rtt_ns.push(t.elapsed().as_nanos() as u64);
        }
        runs[k] += 1;
        match reply {
            Ok((total, _)) if total == runs[k] => {}
            Ok((total, _)) => out.fail(format!(
                "upload to key {k}: server folded {total} runs, {} sent",
                runs[k]
            )),
            Err(e) => out.fail(e),
        }
    }
    out
}

/// Fetch `keys` one by one. Every reply must be a seed for the key asked
/// for, folding at least `min_runs[k]` runs.
fn fetch_loop(
    client: &mut FleetClient,
    keys: &[StoreKey],
    min_runs: &[u64],
    timed: bool,
    mut inline: Option<&mut Inline>,
) -> Loop {
    let mut out = Loop::default();
    for key in keys {
        if let Some(inline) = &mut inline {
            inline.poll();
        }
        let k = (key.image_hash - 0x1000) as usize;
        let t = timed.then(Instant::now);
        let reply = client.fetch_seed(key);
        if let Some(t) = t {
            out.rtt_ns.push(t.elapsed().as_nanos() as u64);
        }
        match reply {
            Ok(Some(seed)) if seed.key == *key && seed.runs >= min_runs[k] => {}
            Ok(Some(seed)) => out.fail(format!(
                "fetch of key {k}: got key {} with {} runs, expected at least {}",
                seed.key.file_stem(),
                seed.runs,
                min_runs[k]
            )),
            Ok(None) => out.fail(format!("fetch of key {k}: no seed")),
            Err(e) => out.fail(e),
        }
    }
    out
}

pub struct FleetMixed {
    seed: u64,
    /// Round-trip times pooled over the passes of a traced run.
    upload_rtt: Vec<u64>,
    fetch_rtt: Vec<u64>,
    fetch_rtt_c: Vec<u64>,
}

impl FleetMixed {
    pub fn new(seed: u64) -> FleetMixed {
        FleetMixed {
            seed,
            upload_rtt: Vec::new(),
            fetch_rtt: Vec::new(),
            fetch_rtt_c: Vec::new(),
        }
    }
}

impl Scenario for FleetMixed {
    fn pass(&mut self, tr: &mut Tracer) -> Result<PassOut, String> {
        let timed = tr.enabled();
        let root = tr.enter("pass");

        let t = Instant::now();
        let s = tr.enter("fleet.inputs");
        let inputs = Inputs::generate(self.seed);
        tr.exit(s);
        let s = tr.enter("fleet.start");
        let server = FleetServer::start("127.0.0.1:0", FleetConfig::default())?;
        let addr = server.local_addr().to_string();
        let mut uploader = FleetClient::connect(&addr)?;
        let mut fetcher = FleetClient::connect(&addr)?;
        tr.exit(s);
        let mut setup = t.elapsed();

        let mut runs = vec![0u64; KEYS as usize];
        let mut cells = Vec::new();
        // One chunk of requests: a cell. A traced run samples the host at
        // the chunk's ends only, as `run_cell` does.
        let mut cell = |tr: &mut Tracer, work: &mut dyn FnMut(Option<&mut Inline>)| {
            let mark = tr.host.mark();
            let t = Instant::now();
            let run = if timed {
                work(None);
                t.elapsed()
            } else {
                let mut inline = Inline::new(&mut tr.host);
                work(Some(&mut inline));
                t.elapsed() - inline.spent
            };
            cells.push(CellTime {
                setup: std::mem::take(&mut setup),
                run,
                slowdown: tr.host.slowdown_since(mark),
            });
            run
        };

        let s = tr.enter("fleet.phase_a");
        let mut a = Loop::default();
        let mut time_a = Duration::ZERO;
        for chunk in inputs.uploads_a.chunks(CHUNK) {
            time_a += cell(tr, &mut |inline| {
                a.absorb(upload_loop(&mut uploader, chunk, &mut runs, timed, inline))
            });
        }
        tr.exit(s);

        let s = tr.enter("fleet.phase_b");
        let mut b = Loop::default();
        for chunk in inputs.fetches_b.chunks(CHUNK) {
            cell(tr, &mut |inline| {
                b.absorb(fetch_loop(&mut fetcher, chunk, &runs, timed, inline))
            });
        }
        tr.exit(s);

        let s = tr.enter("fleet.phase_c");
        let after_a = runs.clone();
        let (mut c_up, mut c_fetch) = (Loop::default(), Loop::default());
        let mut time_c = Duration::ZERO;
        for (ups, fetches) in inputs
            .uploads_c
            .chunks(CHUNK)
            .zip(inputs.fetches_c.chunks(CHUNK))
        {
            time_c += cell(tr, &mut |_| {
                let (up, fetch) = std::thread::scope(|scope| {
                    let up =
                        scope.spawn(|| upload_loop(&mut uploader, ups, &mut runs, timed, None));
                    let fetch = fetch_loop(&mut fetcher, fetches, &after_a, timed, None);
                    (up.join().expect("upload loop does not panic"), fetch)
                });
                c_up.absorb(up);
                c_fetch.absorb(fetch);
            });
        }
        tr.exit(s);

        let stats = server.stats();
        drop((uploader, fetcher));
        server.shutdown();
        tr.exit(root);

        let loops = [&a, &b, &c_up, &c_fetch];
        let mut failed: u64 = loops.iter().map(|l| l.failed).sum();
        let mut error = loops.iter().find_map(|l| l.error.clone());
        let uploads = (UPLOADS_A + EACH_C) as u64;
        let fetches = (FETCHES_B + EACH_C) as u64;
        let clean = stats.uploads == uploads
            && stats.seed_hits == fetches
            && stats.upload_rejects == 0
            && stats.frames_rejected == 0
            && stats.persist_errors == 0;
        if !clean {
            failed += 1;
            error.get_or_insert(format!(
                "server counters disagree with the requests sent: {stats:?}"
            ));
        }

        if timed {
            // Two clock reads around every request.
            tr.add_clock_reads(2 * (uploads + fetches));
        }
        self.upload_rtt.extend(&a.rtt_ns);
        self.fetch_rtt.extend(&b.rtt_ns);
        self.fetch_rtt_c.extend(&c_fetch.rtt_ns);

        let per_s = |n: usize, d: Duration| n as f64 / d.as_secs_f64();
        Ok(PassOut {
            cells,
            ops: uploads + fetches,
            attempted: uploads + fetches + 1,
            failed,
            digest: 0,
            layers: vec![
                ("fleet.fold_per_s", per_s(UPLOADS_A, time_a)),
                ("fleet.mixed_ops_per_s", per_s(2 * EACH_C, time_c)),
                ("fleet.uploads", stats.uploads as f64),
                ("fleet.upload_rejects", stats.upload_rejects as f64),
                ("fleet.seed_hits", stats.seed_hits as f64),
                ("fleet.served_unverified", stats.served_unverified as f64),
                ("fleet.frames_rejected", stats.frames_rejected as f64),
                ("fleet.persist_errors", stats.persist_errors as f64),
            ],
            error,
        })
    }

    fn probes(&mut self, _tr: &mut Tracer) -> Result<Layers, String> {
        let pct = |v: &mut Vec<u64>, p: f64| {
            v.sort_unstable();
            percentile(v, p) as f64 / 1e3
        };
        let mut l = vec![
            ("fleet.fetch_p50_us", pct(&mut self.fetch_rtt, 50.0)),
            ("fleet.fetch_p99_us", pct(&mut self.fetch_rtt, 99.0)),
            ("fleet.upload_rtt_p50_us", pct(&mut self.upload_rtt, 50.0)),
            ("fleet.upload_rtt_p99_us", pct(&mut self.upload_rtt, 99.0)),
            ("fleet.fetch_rtt_c_p50_us", pct(&mut self.fetch_rtt_c, 50.0)),
            ("fleet.fetch_rtt_c_p99_us", pct(&mut self.fetch_rtt_c, 99.0)),
        ];
        l.extend(probes::frames(self.seed)?);
        l.extend(probes::merge(self.seed)?);
        Ok(l)
    }
}
