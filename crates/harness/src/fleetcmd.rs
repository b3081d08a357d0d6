//! `cobra-repro fleet` — operate the `cobra-fleet` profile-aggregation
//! server:
//!
//! * `fleet serve` runs a server in the foreground (prints the bound
//!   address, then blocks);
//! * `fleet upload` pushes snapshot files at a server;
//! * `fleet fetch` pulls one key's aggregated warm seed;
//! * `fleet stats` prints the server's counters.
//!
//! What the server costs is measured by the `fleet_mixed` workload of
//! `benchmark/`, not here.

use std::io::Write;
use std::path::Path;

use cobra_fleet::{FleetClient, FleetConfig, FleetServer, FleetStats};
use cobra_store::{read_snapshot_file, StoreKey};

use crate::profilecmd::snapshot_files;

/// Parse a key in `file_stem` form: `<image_hash hex>-<machine_fp hex>`.
pub fn parse_key(stem: &str) -> Result<StoreKey, String> {
    let err = || format!("bad key {stem:?}; expected IMAGEHEX-MACHINEHEX (snapshot file stem)");
    let (img, fp) = stem.split_once('-').ok_or_else(err)?;
    Ok(StoreKey {
        image_hash: u64::from_str_radix(img, 16).map_err(|_| err())?,
        machine_fp: u64::from_str_radix(fp, 16).map_err(|_| err())?,
    })
}

/// `fleet serve`: run a server in the foreground until killed. The bound
/// address goes to `out` first (and is flushed), so scripts can scrape an
/// ephemeral port from `--addr 127.0.0.1:0`.
pub fn serve(
    addr: &str,
    dir: Option<&Path>,
    shards: usize,
    max_age_runs: Option<u64>,
    out: &mut dyn Write,
) -> Result<std::convert::Infallible, String> {
    let server = FleetServer::start(
        addr,
        FleetConfig {
            shards,
            dir: dir.map(Path::to_path_buf),
            max_age_runs,
        },
    )?;
    let stats = server.stats();
    let banner = format!(
        "fleet server listening on {}\n  {} shard(s), {} key(s) / {} run(s) restored{}{}\n",
        server.local_addr(),
        stats.shards,
        stats.keys,
        stats.runs_total,
        match dir {
            Some(d) => format!(", persisting to {}", d.display()),
            None => ", in-memory only".into(),
        },
        match max_age_runs {
            Some(n) => format!(", aging after {n} unconfirmed run(s)"),
            None => String::new(),
        },
    );
    out.write_all(banner.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write output: {e}"))?;
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `fleet upload`: push every snapshot in `path` (file or directory).
pub fn upload(addr: &str, path: &Path) -> Result<String, String> {
    let mut client = FleetClient::connect(addr)?;
    let mut out = String::new();
    for file in snapshot_files(path)? {
        let lr = read_snapshot_file(&file, None);
        let snap = lr.snapshot.ok_or_else(|| {
            format!(
                "{}: {}",
                file.display(),
                lr.error.unwrap_or_else(|| "no valid records".into())
            )
        })?;
        if lr.skipped_records > 0 {
            eprintln!(
                "warning: {} damaged record(s) skipped in {}",
                lr.skipped_records,
                file.display()
            );
        }
        let (runs_total, records) = client.upload(&snap, None)?;
        out.push_str(&format!(
            "{}: uploaded {} record(s); fleet now holds {} run(s) / {} record(s) of {}\n",
            file.display(),
            snap.record_count(),
            runs_total,
            records,
            snap.key.file_stem(),
        ));
    }
    Ok(out)
}

/// `fleet fetch`: pull one key's aggregated seed; optionally save it as a
/// local snapshot file for `profile inspect` / offline warm starts.
pub fn fetch(addr: &str, key: &StoreKey, out: Option<&Path>) -> Result<String, String> {
    let mut client = FleetClient::connect(addr)?;
    match client.fetch_seed(key)? {
        Some(snap) => {
            let mut msg = format!("{}: {}\n", key.file_stem(), snap.summary());
            if let Some(path) = out {
                cobra_store::write_snapshot_file(path, &snap)?;
                msg.push_str(&format!("  written to {}\n", path.display()));
            }
            Ok(msg)
        }
        None => Err(format!("fleet has no profile for key {}", key.file_stem())),
    }
}

/// `fleet stats`: human-readable server counters.
pub fn stats(addr: &str) -> Result<String, String> {
    let st = FleetClient::connect(addr)?.stats()?;
    Ok(render_stats(&st))
}

fn render_stats(st: &FleetStats) -> String {
    format!(
        "fleet stats —\n  \
         {} key(s), {} run(s) total, {} shard(s)\n  \
         uploads: {} accepted, {} rejected\n  \
         seeds: {} request(s), {} hit(s), {} served unverified\n  \
         aging: {} decision(s), {} winner(s) withheld\n  \
         verification: {} seed record(s) dropped\n  \
         frames rejected: {}\n  \
         persist errors: {}\n",
        st.keys,
        st.runs_total,
        st.shards,
        st.uploads,
        st.upload_rejects,
        st.seed_requests,
        st.seed_hits,
        st.served_unverified,
        st.aged_decisions,
        st.aged_winners,
        st.verify_dropped,
        st.frames_rejected,
        st.persist_errors,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_parsing_round_trips_and_rejects_garbage() {
        let k = StoreKey {
            image_hash: 0xdead_beef,
            machine_fp: 0x77,
        };
        assert_eq!(parse_key(&k.file_stem()).unwrap(), k);
        assert!(parse_key("nodash").is_err());
        assert!(parse_key("xyz-77").is_err());
    }

    #[test]
    fn cli_upload_fetch_stats_round_trip() {
        let dir = std::env::temp_dir().join(format!("cobra-fleetcmd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let server = FleetServer::start("127.0.0.1:0", FleetConfig::default()).unwrap();
        let addr = server.local_addr().to_string();

        let mut snap = cobra_store::Snapshot::empty(StoreKey {
            image_hash: 0xabc,
            machine_fp: 0xdef,
        });
        snap.runs = 1;
        snap.blacklist = vec![8, 24];
        let file = dir.join("up.jsonl");
        cobra_store::write_snapshot_file(&file, &snap).unwrap();

        let msg = upload(&addr, &file).unwrap();
        assert!(msg.contains("uploaded"), "{msg}");
        let out = dir.join("seed.jsonl");
        let msg = fetch(&addr, &snap.key, Some(&out)).unwrap();
        assert!(msg.contains("1 run(s)"), "{msg}");
        let fetched = read_snapshot_file(&out, None).snapshot.unwrap();
        assert_eq!(fetched.key, snap.key);
        let msg = stats(&addr).unwrap();
        assert!(msg.contains("1 key(s)"), "{msg}");
        assert!(
            fetch(&addr, &parse_key("1-2").unwrap(), None)
                .unwrap_err()
                .contains("no profile"),
            "unknown key is a clean error"
        );
        server.shutdown();
    }
}
