//! # cobra-fleet — fleet-scale profile aggregation
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
//! ## One lock
//!
//! The acceptor hands each connection to a thread of its own, and that
//! thread does the whole request: parse the frame, take the server's one
//! lock (every key's state and the counters behind it), fold the upload in
//! place and persist it, drop the lock, write the reply. A key also holds
//! at most one seed reply, encoded with its length prefix (`Arc<[u8]>`).
//! A fetch builds it under the lock only when a fold has dropped it, and
//! otherwise holds the lock for an `Arc` clone; the reply is one write
//! after the lock drops. Every fold drops the frame, so a reply is always
//! what a fresh build writes, and the serve counters count each serve,
//! not each build. Folds are serial under the lock, and a `Stats` reply
//! reads `keys` and `runs_total` off the map rather than counting them.
//! Because the fold is commutative and the on-disk layout is flat (one
//! file per key, written only under the lock), the persisted state is a
//! pure function of the upload multiset: byte-identical across any
//! connection interleaving or restart point. Restart loads each key from
//! its own `<stem>.jsonl` only, as `Store::load` does, so a copy under
//! another name is no second key. The ingest tests pin all of this.
//!
//! ## Degradation
//!
//! The server never panics on client input: malformed frames, torn
//! connections, key/image mismatches and persistence failures are counted
//! in [`FleetStats`] and drop at most the offending connection. Clients
//! (`cobra_rt`'s `builder().fleet(addr)`) degrade fleet → local store →
//! cold on any error, counted and telemetered, never fatal.

pub(crate) mod client;
pub mod proto;
pub(crate) mod server;

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
    /// Persistence failures (state stays in memory, counted).
    #[serde(default)]
    pub persist_errors: u64,
    /// Distinct keys currently held.
    #[serde(default)]
    pub keys: u64,
    /// Runs folded across all keys (including warm-restart state).
    #[serde(default)]
    pub runs_total: u64,
}
