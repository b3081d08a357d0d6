//! # cobra-fleet — sharded fleet-scale profile aggregation
//!
//! COBRA's adaptive loop is per-process; its payoff compounds when what
//! one run learned seeds every other run of the same binary on the same
//! machine class. This crate is that pooling layer: a TCP server that
//! ingests [`cobra_store::Snapshot`] uploads from many concurrent
//! clients, folds them per [`StoreKey`] with the order-free
//! [`cobra_store::Snapshot::fold_unordered`], ages out decisions the
//! fleet stops re-confirming, and serves aggregated warm-start seeds back
//! out — every served bundle filtered through `cobra_verify::check_seed`.
//!
//! ## Sharding
//!
//! The acceptor hands each connection to a thread of its own, and that
//! thread does the whole request: parse the frame, take the lock of the
//! one shard map the key hashes to (`fnv1a(key) % N`), fold the upload in
//! place and persist it, drop the lock, write the reply. A key also holds
//! at most one seed reply, encoded with its length prefix (`Arc<[u8]>`).
//! A fetch builds it under the lock only when a fold has dropped it, and
//! otherwise holds the lock for an `Arc` clone; the reply is one write
//! after the lock drops. Every fold drops the frame, so a reply is always
//! what a fresh build writes, and the serve counters count each serve,
//! not each build. Keys on different shards fold in parallel; one key's
//! folds are serial under its shard's lock. Because the fold is
//! commutative and the on-disk layout is flat (one file per key, written
//! only under the key's lock), the persisted state is a pure function of
//! the upload multiset: byte-identical across any shard count, connection
//! interleaving, or restart point. Restart loads each key from its own
//! `<stem>.jsonl` only, as `Store::load` does, so a copy under another
//! name is no second key. The ingest tests pin all of this.
//!
//! ## Degradation
//!
//! The server never panics on client input: malformed frames, torn
//! connections, key/image mismatches and persistence failures are counted
//! in [`FleetStats`] and drop at most the offending connection. Clients
//! (`cobra_rt`'s `builder().fleet(addr)`) degrade fleet → local store →
//! cold on any error, counted and telemetered, never fatal.

pub mod client;
pub mod proto;
pub mod server;

use serde::{Deserialize, Serialize};

pub use client::FleetClient;
pub use proto::{read_frame, write_frame, Request, Response, MAX_FRAME_BYTES};
pub use server::{FleetConfig, FleetServer};

/// Server-wide counters, served verbatim for a `Stats` request. Every
/// field defaults so newer servers can add counters without breaking
/// older CLI clients.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetStats {
    /// Snapshot uploads folded.
    #[serde(default)]
    pub uploads: u64,
    /// Uploads rejected (image-hash mismatch, fold error).
    #[serde(default)]
    pub upload_rejects: u64,
    /// Seed fetches served (hit or miss).
    #[serde(default)]
    pub seed_requests: u64,
    /// Seed fetches that returned a snapshot.
    #[serde(default)]
    pub seed_hits: u64,
    /// Frames dropped: unparseable, oversized, or torn mid-stream.
    #[serde(default)]
    pub frames_rejected: u64,
    /// Decisions withheld from served seeds by the aging policy.
    #[serde(default)]
    pub aged_decisions: u64,
    /// Winners withheld from served seeds by the aging policy.
    #[serde(default)]
    pub aged_winners: u64,
    /// Seed heads dropped because `check_seed` rejected them.
    #[serde(default)]
    pub verify_dropped: u64,
    /// Seeds served without server-side verification because no client
    /// ever uploaded the image words for the key (the client's own
    /// warm-start verify gate still applies).
    #[serde(default)]
    pub served_unverified: u64,
    /// Shard persistence failures (state stays in memory, counted).
    #[serde(default)]
    pub persist_errors: u64,
    /// Distinct keys currently held.
    #[serde(default)]
    pub keys: u64,
    /// Runs folded across all keys (including warm-restart state).
    #[serde(default)]
    pub runs_total: u64,
    /// Shard count of the serving process (independently locked key maps).
    #[serde(default)]
    pub shards: u64,
}

/// Shard owning `key` under an `n`-way split: FNV-1a of the key's stable
/// file stem, modulo `n`. Stable across processes and restarts. The stem
/// (`{image_hash:016x}-{machine_fp:016x}`) is spelled here digit by digit,
/// not through the formatter: this runs on every request.
pub fn shard_for(key: &cobra_store::StoreKey, n: usize) -> usize {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut stem = [b'-'; 33];
    for (half, word) in [key.image_hash, key.machine_fp].into_iter().enumerate() {
        for (i, digit) in stem[17 * half..17 * half + 16].iter_mut().enumerate() {
            *digit = HEX[(word >> (60 - 4 * i)) as usize & 0xf];
        }
    }
    (cobra_store::fnv1a(&stem) % n.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use cobra_store::{fnv1a, StoreKey};

    /// The shard of a key is a persisted fact (which file a restarted
    /// server hands to which map): hashing from the stack must give what
    /// hashing the formatted stem always gave.
    #[test]
    fn shard_for_is_fnv1a_of_the_file_stem() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..300u64 {
            x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i);
            let key = StoreKey {
                image_hash: if i < 8 { i } else { x },
                machine_fp: if i % 7 == 0 {
                    u64::MAX - i
                } else {
                    x.rotate_left(29)
                },
            };
            for n in [1usize, 4, 6, 1023] {
                let want = fnv1a(key.file_stem().as_bytes()) % n as u64;
                assert_eq!(super::shard_for(&key, n) as u64, want, "{key} over {n}");
            }
        }
    }
}
