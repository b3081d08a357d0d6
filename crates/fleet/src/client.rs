//! Blocking fleet client: one TCP connection, lockstep request/response.
//! Used by `cobra_rt`'s attach/detach wiring and the `cobra-repro fleet`
//! CLI. Every failure is a `String` error the caller counts and degrades
//! on — a fleet outage must never take a run down with it.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use cobra_store::{Snapshot, StoreKey};
use serde::Serialize;

use crate::proto::{read_frame, write_frame, Request, Response, UploadRef};
use crate::FleetStats;

/// Default connect/read/write timeout: the client is on a run's attach
/// path, so a dead server must fail fast, not hang the workload.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

/// A connected fleet client.
pub struct FleetClient {
    stream: TcpStream,
    /// The same socket, read through a buffer: a reply is one `recv`.
    replies: BufReader<TcpStream>,
}

impl FleetClient {
    /// Connect with [`DEFAULT_TIMEOUT`].
    pub fn connect(addr: &str) -> Result<FleetClient, String> {
        FleetClient::connect_timeout(addr, DEFAULT_TIMEOUT)
    }

    /// Connect with an explicit timeout applied to the dial and to every
    /// subsequent read/write.
    pub fn connect_timeout(addr: &str, timeout: Duration) -> Result<FleetClient, String> {
        let resolved: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve {addr}: {e}"))?
            .collect();
        let first = resolved
            .first()
            .ok_or_else(|| format!("{addr} resolves to nothing"))?;
        let stream = TcpStream::connect_timeout(first, timeout)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .map_err(|e| format!("cannot set timeouts: {e}"))?;
        let _ = stream.set_nodelay(true);
        let replies = stream
            .try_clone()
            .map_err(|e| format!("cannot clone the connection: {e}"))?;
        let replies = BufReader::new(replies);
        Ok(FleetClient { stream, replies })
    }

    fn call(&mut self, req: &impl Serialize) -> Result<Response, String> {
        write_frame(&mut self.stream, req)?;
        read_frame(&mut self.replies)?.ok_or_else(|| "server closed the connection".to_string())
    }

    /// Upload one run's snapshot (optionally with the pristine main image
    /// words so the server can verify served seeds). Returns the server's
    /// folded `(runs_total, records)` for the key.
    pub fn upload(
        &mut self,
        snapshot: &Snapshot,
        image_words: Option<&[u64]>,
    ) -> Result<(u64, u64), String> {
        match self.call(&UploadRef {
            snapshot,
            image_words,
        })? {
            Response::UploadOk {
                runs_total,
                records,
            } => Ok((runs_total, records)),
            Response::Err { detail } => Err(format!("upload rejected: {detail}")),
            other => Err(format!("unexpected reply to upload: {other:?}")),
        }
    }

    /// Fetch the aggregated warm seed for `key`; `Ok(None)` means the
    /// fleet holds nothing for it.
    pub fn fetch_seed(&mut self, key: &StoreKey) -> Result<Option<Snapshot>, String> {
        match self.call(&Request::FetchSeed { key: *key })? {
            Response::Seed { snapshot } => Ok(snapshot),
            Response::Err { detail } => Err(format!("fetch rejected: {detail}")),
            other => Err(format!("unexpected reply to fetch: {other:?}")),
        }
    }

    /// Server-wide counters.
    pub fn stats(&mut self) -> Result<FleetStats, String> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Err { detail } => Err(format!("stats rejected: {detail}")),
            other => Err(format!("unexpected reply to stats: {other:?}")),
        }
    }
}
