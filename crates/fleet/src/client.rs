//! Blocking fleet client: one TCP connection, lockstep request/response.
//! Used by `cobra_rt`'s attach/detach wiring and the `cobra-repro fleet`
//! CLI. Every failure is a `String` error the caller counts and degrades
//! on — a fleet outage must never take a run down with it.

use std::io::{BufReader, ErrorKind};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use cobra_store::{Snapshot, StoreKey};
use serde::Serialize;

use crate::proto::{read_frame, write_frame, Request, Response, UploadRef};
use crate::FleetStats;

/// The connect/read/write timeout: the client is on a run's attach path,
/// so a dead server must fail fast, not hang the workload.
const TIMEOUT: Duration = Duration::from_secs(5);

/// A connected fleet client.
pub struct FleetClient {
    stream: TcpStream,
    /// The same socket, read through a buffer: a reply is one `recv`.
    replies: BufReader<TcpStream>,
}

impl FleetClient {
    /// Connect, with `TIMEOUT` (5 s) applied to the dial and to every
    /// subsequent read/write.
    pub fn connect(addr: &str) -> Result<FleetClient, String> {
        let resolved: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve {addr}: {e}"))?
            .collect();
        if resolved.is_empty() {
            return Err(format!("{addr} resolves to nothing"));
        }
        let stream =
            dial(&resolved, TIMEOUT).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
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

/// Dials each address in turn, as `TcpStream::connect` does, all within one
/// `timeout`: a name can resolve to an address nobody listens on ahead of
/// the one the server is bound to (`localhost` as `::1`, then `127.0.0.1`).
/// The error is that of the last address tried.
fn dial(addrs: &[SocketAddr], timeout: Duration) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    let mut last = std::io::Error::new(ErrorKind::InvalidInput, "no address to dial");
    for addr in addrs {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match TcpStream::connect_timeout(addr, left) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetConfig, FleetServer};

    #[test]
    fn dial_falls_through_a_refused_address_to_a_live_server() {
        // A port that was just free: nothing listens there now.
        let refused = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .unwrap();
        let server = FleetServer::start("127.0.0.1:0", FleetConfig::default()).unwrap();
        let live = server.local_addr();
        let e = dial(&[refused], TIMEOUT).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::ConnectionRefused);
        let stream = dial(&[refused, live], TIMEOUT).unwrap();
        assert_eq!(stream.peer_addr().unwrap(), live);
        drop(stream);
        server.shutdown();
    }
}
