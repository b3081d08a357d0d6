//! Wire protocol: length-prefixed JSON frames over a plain TCP stream.
//!
//! Every frame is a 4-byte big-endian payload length followed by exactly
//! that many bytes of JSON — one [`Request`] (client → server) or one
//! [`Response`] (server → client) — handed to the socket in one write per
//! frame. A connection carries any number of request/response pairs in
//! lockstep; there is no pipelining, so a buffered reader never holds
//! bytes of a reply that has not been asked for. Anything
//! the server cannot parse — oversized length, truncated payload, JSON
//! that is not a `Request` — is counted in [`FleetStats::frames_rejected`]
//! and drops only that connection, never the server.
//!
//! [`FleetStats::frames_rejected`]: crate::FleetStats

use std::io::{Read, Write};

use cobra_store::{Snapshot, StoreKey};
use serde::{Deserialize, Serialize, Writer};

use crate::FleetStats;

/// Bumped on incompatible frame changes; echoed nowhere yet (a key-content
/// mismatch is already a hard reject), reserved for future handshakes.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on a single frame's payload. A class-S NPB image is a few
/// thousand words and a merged snapshot a few hundred records, so real
/// frames sit far below this; the cap exists so a hostile or corrupt
/// length prefix cannot make the server allocate memory without limit.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// One client request. The size skew between `Upload` (a whole
/// snapshot) and `Stats` (a unit) is fine: exactly one request is alive
/// per connection at a time.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Fold one run's snapshot into the shard owning its key. The
    /// optional pristine main-image words let the server verify served
    /// seeds with `cobra-verify::check_seed`; they are validated against
    /// `snapshot.key.image_hash` and cached per key.
    Upload {
        snapshot: Snapshot,
        image_words: Option<Vec<u64>>,
    },
    /// Fetch the aggregated, age-filtered, verify-filtered seed snapshot
    /// for one key.
    FetchSeed { key: StoreKey },
    /// Server-wide counters.
    Stats,
}

/// [`Request::Upload`] as the client sends it: the same frame byte for
/// byte, serialised from what the caller lent instead of from copies of
/// the snapshot and a few thousand image words.
pub(crate) struct UploadRef<'a> {
    pub snapshot: &'a Snapshot,
    pub image_words: Option<&'a [u64]>,
}

impl Serialize for UploadRef<'_> {
    fn serialize(&self, w: &mut Writer) {
        w.begin(b'{');
        w.quoted_key("\"Upload\":");
        w.begin(b'{');
        w.quoted_key("\"snapshot\":");
        self.snapshot.serialize(w);
        w.quoted_key("\"image_words\":");
        self.image_words.serialize(w);
        w.end(b'}');
        w.end(b'}');
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Upload folded. `runs_total` is the folded run count for the key
    /// after this upload; `records` the record count of the shard state.
    UploadOk {
        runs_total: u64,
        records: u64,
    },
    /// `snapshot: None` means the server holds nothing for the key — the
    /// client degrades to its local store, then cold.
    Seed {
        snapshot: Option<Snapshot>,
    },
    Stats(FleetStats),
    /// The request was understood but could not be served (key mismatch,
    /// image-hash mismatch, persistence failure, ...).
    Err {
        detail: String,
    },
}

/// Write one length-prefixed frame: the body is encoded in place behind
/// room for the prefix, and both leave in a single write, so an unbuffered
/// socket with `TCP_NODELAY` sends one segment, not two.
pub fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> Result<(), String> {
    send_frame(w, &encode_frame(msg)?)
}

/// One whole frame, length prefix included, as [`write_frame`] sends it.
pub(crate) fn encode_frame<T: Serialize>(msg: &T) -> Result<Vec<u8>, String> {
    // An upload of one run is about half a kilobyte: no regrowth for it.
    let mut frame = Vec::with_capacity(1024);
    frame.extend_from_slice(&[0; 4]);
    let mut json = Writer::new(frame, false);
    msg.serialize(&mut json);
    let mut frame = json.into_bytes();
    let len = frame.len() - 4;
    if len > MAX_FRAME_BYTES as usize {
        return Err(format!("frame of {len} bytes exceeds {MAX_FRAME_BYTES}"));
    }
    frame[..4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(frame)
}

/// Send an encoded frame in one write.
pub(crate) fn send_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), String> {
    w.write_all(frame)
        .and_then(|()| w.flush())
        .map_err(|e| format!("frame write failed: {e}"))
}

/// Read one length-prefixed frame and parse it. `Ok(None)` is a clean EOF
/// at a frame boundary (the peer finished); any torn, oversized or
/// unparseable frame is an `Err`.
pub fn read_frame<T: Deserialize>(r: &mut impl Read) -> Result<Option<T>, String> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None), // clean EOF at a boundary
            Ok(0) => return Err(format!("torn frame: EOF after {filled} length byte(s)")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("frame length read failed: {e}")),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(format!("frame length {len} exceeds {MAX_FRAME_BYTES}"));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)
        .map_err(|e| format!("frame body read failed: {e}"))?;
    let text = std::str::from_utf8(&body).map_err(|e| format!("frame is not UTF-8: {e}"))?;
    serde_json::from_str(text)
        .map(Some)
        .map_err(|e| format!("frame does not parse: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let key = StoreKey {
            image_hash: 1,
            machine_fp: 2,
        };
        let reqs = vec![
            Request::Upload {
                snapshot: Snapshot::empty(key),
                image_words: Some(vec![7, 8, 9]),
            },
            Request::FetchSeed { key },
            Request::Stats,
        ];
        let mut buf = Vec::new();
        for r in &reqs {
            write_frame(&mut buf, r).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for want in &reqs {
            let got: Request = read_frame(&mut cursor).unwrap().unwrap();
            assert_eq!(&got, want);
        }
        assert_eq!(read_frame::<Request>(&mut cursor).unwrap(), None);
    }

    #[test]
    fn borrowed_upload_is_the_owned_upload_on_the_wire() {
        let mut snapshot = Snapshot::empty(StoreKey {
            image_hash: 1,
            machine_fp: 2,
        });
        snapshot.runs = 3;
        snapshot.blacklist = vec![40, 41];
        for image_words in [None, Some(vec![7u64, 8, u64::MAX])] {
            let (mut owned, mut borrowed) = (Vec::new(), Vec::new());
            let lent = UploadRef {
                snapshot: &snapshot,
                image_words: image_words.as_deref(),
            };
            write_frame(&mut borrowed, &lent).unwrap();
            let req = Request::Upload {
                snapshot: snapshot.clone(),
                image_words,
            };
            write_frame(&mut owned, &req).unwrap();
            assert_eq!(borrowed, owned);
            let back: Request = read_frame(&mut std::io::Cursor::new(borrowed))
                .unwrap()
                .unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn oversized_and_torn_frames_are_errors_not_panics() {
        let refusal = |buf: &[u8]| read_frame::<Request>(&mut &buf[..]).unwrap_err();
        let framed = |body: &[u8]| [&(body.len() as u32).to_be_bytes()[..], body].concat();
        // Hostile length prefix.
        assert!(refusal(&(MAX_FRAME_BYTES + 1).to_be_bytes()).contains("exceeds"));
        // Length promises more bytes than the stream has.
        let mut buf = 100u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"short");
        assert!(refusal(&buf).contains("body read failed"));
        // Valid length, payload is not a Request.
        let mut buf = Vec::new();
        write_frame(&mut buf, &"not a request".to_string()).unwrap();
        assert!(refusal(&buf).contains("does not parse"));
        // A Request with one byte that is not UTF-8 inside a string.
        assert!(refusal(&framed(b"{\"Err\":{\"detail\":\"\xff\"}}")).contains("not UTF-8"));
        // A Request and then something else.
        assert!(refusal(&framed(b"\"Stats\" 1")).contains("trailing characters"));
        // EOF mid-length-prefix (2 of 4 bytes) is torn, not clean.
        assert!(refusal(&[0, 0]).contains("torn frame"));
    }
}
