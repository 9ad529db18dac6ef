//! The versioned wire format spoken between PIR clients and servers.
//!
//! Every message is a **length-prefixed frame**:
//!
//! ```text
//! [ length: u32 LE ][ tag: u8 ][ body ... ]
//! ```
//!
//! where `length` counts the tag byte plus the body. All integers are
//! explicit little-endian, and the encoding is hand-rolled here and nowhere
//! else. A connection starts with
//! a handshake: the client sends [`Frame::Hello`] (which carries the
//! 4-byte protocol magic and the client's [`WIRE_VERSION`]) and the server
//! answers [`Frame::HelloAck`] with its own version and a
//! [`ServerInfo`] describing the database it serves.
//!
//! Decoding is hardened against hostile peers: frames longer than
//! [`MAX_FRAME_BYTES`] are rejected **before** any allocation, truncated or
//! trailing-garbage bodies decode to [`PirError::Protocol`] (never a
//! panic), and no length prefix inside a body can drive an allocation
//! larger than the already-bounded frame it arrived in.
//!
//! # Session multiplexing
//!
//! Many **logical sessions** can share one TCP connection: after the
//! (connection-level, unwrapped) handshake, a peer wraps a session's
//! frames in [`Frame::Mux`], which prefixes the inner frame with a `u32`
//! session id. Plain unwrapped frames keep their pre-multiplexing meaning
//! (they belong to the connection's root session), so a v1 client that
//! never sends `Mux` talks to a multiplexing server unchanged. A `Mux`
//! inside a `Mux` is a protocol violation on both the encode and decode
//! side. [`Frame::Overloaded`] is the server's typed load-shedding
//! refusal: the request was dropped before execution and may be retried
//! after the carried backoff hint.

use std::io::{Read, Write};

use impir_dpf::{DpfKey, PartyId, SelectorVector};

use crate::batch::UpdateOutcome;
use crate::error::PirError;
use crate::protocol::{QueryShare, ServerResponse};
use crate::server::phases::{PhaseBreakdown, PhaseTime};

/// The 4-byte protocol magic opening every connection.
pub const WIRE_MAGIC: [u8; 4] = *b"IMPR";

/// The protocol version this build speaks. Bumped on any incompatible
/// change to the frame layout; the handshake rejects mismatches.
pub const WIRE_VERSION: u16 = 1;

/// Hard upper bound on one frame's length field. A peer announcing a
/// larger frame is cut off before a single byte of it is buffered.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Bytes of framing around every body: the `u32` length prefix plus the
/// tag byte.
pub const FRAME_HEADER_BYTES: usize = 5;

/// Extra body bytes a [`Frame::Mux`] wrapper adds around its inner
/// frame's body: the `u32` session id plus the inner frame's tag byte.
pub const MUX_OVERHEAD_BYTES: usize = 4 + 1;

/// Fixed wire size of a [`PhaseTime`]: wall `f64`, presence flag, and the
/// simulated-seconds `f64` (zeroed when absent).
const PHASE_TIME_BYTES: usize = 8 + 1 + 8;

/// Fixed wire size of a [`PhaseBreakdown`] (five phases).
const PHASES_BYTES: usize = 5 * PHASE_TIME_BYTES;

/// Fixed wire size of a [`ServerInfo`].
const SERVER_INFO_BYTES: usize = 8 + 4 + 4 + 8;

/// What a server reports about itself during the handshake (and on
/// [`Frame::InfoRequest`]): the database geometry a client must match and
/// the server's current shard/epoch state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Number of records in the served database.
    pub num_records: u64,
    /// Record size in bytes.
    pub record_size: usize,
    /// Number of engine shards behind the server.
    pub shard_count: usize,
    /// The server's database epoch (see
    /// [`crate::engine::QueryEngine::database_epoch`]).
    pub epoch: u64,
}

/// Fixed wire size of an [`EpochInfo`].
const EPOCH_INFO_BYTES: usize = 8 + 8;

/// A server's answer to [`Frame::EpochInfoRequest`]: where its database
/// epoch stands and how far back its update journal can replay. A client
/// that detects replica divergence compares both replicas' `EpochInfo` to
/// decide which is behind and whether the journal still covers the lag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochInfo {
    /// The server's current database epoch.
    pub current_epoch: u64,
    /// The oldest epoch the server's journal can replay *from*: a peer at
    /// this epoch (or later) can be caught up; one behind it cannot.
    pub oldest_replayable: u64,
}

/// One protocol frame. See the module docs for the connection lifecycle;
/// the request/response pairing is `QueryBatch → ResponseBatch`,
/// `UpdateBatch → UpdateAck`, `InfoRequest → Info`,
/// `SelectorScan → SelectorResult`, `EpochInfoRequest → EpochInfo`,
/// `UpdateReplayRequest → UpdateReplay | JournalTruncated`, with `Error`
/// as the server's reply to any request it cannot serve and `Goodbye` as
/// the client's clean close.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: opens the connection. Carries the protocol magic
    /// and the client's wire version.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u16,
    },
    /// Server → client: accepts the handshake.
    HelloAck {
        /// The server's [`WIRE_VERSION`].
        version: u16,
        /// The served database's geometry and state.
        info: ServerInfo,
    },
    /// Client → server: a batch of DPF query shares.
    QueryBatch {
        /// The shares, answered in order.
        shares: Vec<QueryShare>,
    },
    /// Server → client: the answers to one [`Frame::QueryBatch`].
    ResponseBatch {
        /// Database epoch the batch executed against.
        epoch: u64,
        /// Server-side wall time of the batch, in seconds.
        wall_seconds: f64,
        /// Server-side per-phase accounting of the batch.
        phases: PhaseBreakdown,
        /// Responses, in the same order as the request's shares.
        responses: Vec<ServerResponse>,
    },
    /// Client → server: a bulk database update (§3.3), pairs of global
    /// record index and replacement bytes.
    UpdateBatch {
        /// The update entries, applied all-or-nothing.
        updates: Vec<(u64, Vec<u8>)>,
    },
    /// Server → client: a successful [`Frame::UpdateBatch`].
    UpdateAck {
        /// The engine's aggregated update outcome.
        outcome: UpdateOutcome,
    },
    /// Client → server: asks for a fresh [`ServerInfo`].
    InfoRequest,
    /// Server → client: the answer to [`Frame::InfoRequest`].
    Info {
        /// The served database's geometry and state.
        info: ServerInfo,
    },
    /// Client → server: a full-domain linear selector share to scan (the
    /// n-server naive scheme of [`crate::multi_server`]).
    SelectorScan {
        /// The selector share, one bit per record.
        selector: SelectorVector,
    },
    /// Server → client: the XOR subresult of one [`Frame::SelectorScan`].
    SelectorResult {
        /// Database epoch the scan executed against. An n-server query is
        /// `n` sequential scans; the client cross-checks these so an
        /// update landing between scans is detected instead of XOR-ing
        /// subresults from different database versions.
        epoch: u64,
        /// The record-sized XOR payload.
        payload: Vec<u8>,
        /// Server-side per-phase accounting of the scan.
        phases: PhaseBreakdown,
    },
    /// Client → server: asks where the server's epoch and journal stand.
    EpochInfoRequest,
    /// Server → client: the answer to [`Frame::EpochInfoRequest`].
    EpochInfo {
        /// The server's epoch and journal coverage.
        info: EpochInfo,
    },
    /// Client → server: asks for every update batch applied after
    /// `from_epoch`, so a replica stuck at that epoch can catch up.
    UpdateReplayRequest {
        /// The requester's (lagging) epoch.
        from_epoch: u64,
    },
    /// Server → client: the batches a [`Frame::UpdateReplayRequest`] asked
    /// for — applying them in order advances a replica from `from_epoch`
    /// to the server's epoch at reply time.
    UpdateReplay {
        /// The missed batches, oldest first; batch `i` moves the database
        /// from epoch `from_epoch + i` to `from_epoch + i + 1`.
        batches: Vec<Vec<(u64, Vec<u8>)>>,
    },
    /// Server → client: the journal no longer reaches back to the
    /// requested epoch. Carried as a dedicated frame (not a generic
    /// [`Frame::Error`]) so clients can distinguish "cannot recover
    /// automatically" from transient failures and fail closed.
    JournalTruncated {
        /// The epoch the request asked to replay from.
        from_epoch: u64,
        /// The oldest epoch the journal can still replay from.
        oldest_replayable: u64,
        /// The server's current epoch.
        current_epoch: u64,
    },
    /// Server → client: the request could not be served. The connection
    /// stays usable unless the error was a framing violation.
    Error {
        /// Human-readable description, also carried into
        /// [`PirError::Protocol`] on the client.
        message: String,
    },
    /// Client → server: clean connection close.
    Goodbye,
    /// Either direction: a frame addressed to one logical session. Many
    /// logical sessions share a TCP connection by wrapping their frames
    /// in `Mux`; the body carries the session id followed by the inner
    /// frame's tag and body (the outer length prefix already bounds
    /// both, so the inner frame gets no redundant prefix of its own).
    /// Nesting a `Mux` inside a `Mux` is rejected by encoder and decoder
    /// alike.
    Mux {
        /// The logical session the inner frame belongs to.
        session: u32,
        /// The wrapped frame.
        frame: Box<Frame>,
    },
    /// Server → client: the admission queue is saturated and the request
    /// was shed **without being executed**. Typed (not a generic
    /// [`Frame::Error`]) so clients can back off and retry instead of
    /// failing the query; the connection stays usable.
    Overloaded {
        /// The server's backoff hint: milliseconds to wait before
        /// retrying.
        retry_after_ms: u64,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_QUERY_BATCH: u8 = 3;
const TAG_RESPONSE_BATCH: u8 = 4;
const TAG_UPDATE_BATCH: u8 = 5;
const TAG_UPDATE_ACK: u8 = 6;
const TAG_INFO_REQUEST: u8 = 7;
const TAG_INFO: u8 = 8;
const TAG_SELECTOR_SCAN: u8 = 9;
const TAG_SELECTOR_RESULT: u8 = 10;
const TAG_ERROR: u8 = 11;
const TAG_GOODBYE: u8 = 12;
const TAG_EPOCH_INFO_REQUEST: u8 = 13;
const TAG_EPOCH_INFO: u8 = 14;
const TAG_UPDATE_REPLAY_REQUEST: u8 = 15;
const TAG_UPDATE_REPLAY: u8 = 16;
const TAG_JOURNAL_TRUNCATED: u8 = 17;
const TAG_MUX: u8 = 18;
const TAG_OVERLOADED: u8 = 19;

/// Shorthand for a [`PirError::Protocol`].
pub(crate) fn protocol_error(reason: impl Into<String>) -> PirError {
    PirError::Protocol {
        reason: reason.into(),
    }
}

/// The reply frame for a request that failed with `err`. The two typed
/// refusals keep their own frames so a client can rebuild the typed error:
/// a truncated journal ([`Frame::JournalTruncated`]) and load shedding
/// ([`Frame::Overloaded`]); anything else is an [`Frame::Error`] carrying
/// the error's text. The session stays open either way.
#[must_use]
pub fn error_reply(err: &PirError) -> Frame {
    match *err {
        PirError::JournalTruncated {
            from_epoch,
            oldest_replayable,
            current_epoch,
        } => Frame::JournalTruncated {
            from_epoch,
            oldest_replayable,
            current_epoch,
        },
        PirError::Overloaded { retry_after_ms } => Frame::Overloaded { retry_after_ms },
        _ => Frame::Error {
            message: err.to_string(),
        },
    }
}

/// The client side of [`error_reply`]: a refusal frame becomes its error
/// ([`PirError::JournalTruncated`], [`PirError::Overloaded`], or
/// [`PirError::Protocol`] for an [`Frame::Error`]); every other reply is
/// returned as it is.
///
/// # Errors
///
/// The error the refusal frame carries.
pub fn check_reply(reply: Frame) -> Result<Frame, PirError> {
    match reply {
        Frame::JournalTruncated {
            from_epoch,
            oldest_replayable,
            current_epoch,
        } => Err(PirError::JournalTruncated {
            from_epoch,
            oldest_replayable,
            current_epoch,
        }),
        Frame::Overloaded { retry_after_ms } => Err(PirError::Overloaded { retry_after_ms }),
        Frame::Error { message } => Err(protocol_error(format!(
            "server rejected request: {message}"
        ))),
        reply => Ok(reply),
    }
}

/// Maps a transport-level I/O failure into [`PirError::Protocol`].
pub(crate) fn io_error(context: &str, err: &std::io::Error) -> PirError {
    protocol_error(format!("{context}: {err}"))
}

// ---------------------------------------------------------------------------
// Little-endian body writer/reader.
// ---------------------------------------------------------------------------

struct BodyWriter {
    buf: Vec<u8>,
}

impl BodyWriter {
    fn with_capacity(capacity: usize) -> Self {
        BodyWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    fn u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    fn u16(&mut self, value: u16) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    fn u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    fn u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a `u32` length prefix followed by the bytes.
    fn bytes(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.len() <= u32::MAX as usize);
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    fn phase_time(&mut self, time: &PhaseTime) {
        self.f64(time.wall_seconds);
        match time.simulated_seconds {
            None => {
                self.u8(0);
                self.f64(0.0);
            }
            Some(simulated) => {
                self.u8(1);
                self.f64(simulated);
            }
        }
    }

    fn phases(&mut self, phases: &PhaseBreakdown) {
        self.phase_time(&phases.eval);
        self.phase_time(&phases.copy_to_pim);
        self.phase_time(&phases.dpxor);
        self.phase_time(&phases.copy_from_pim);
        self.phase_time(&phases.aggregate);
    }

    fn server_info(&mut self, info: &ServerInfo) {
        self.u64(info.num_records);
        debug_assert!(info.record_size <= u32::MAX as usize);
        self.u32(info.record_size as u32);
        debug_assert!(info.shard_count <= u32::MAX as usize);
        self.u32(info.shard_count as u32);
        self.u64(info.epoch);
    }

    fn epoch_info(&mut self, info: &EpochInfo) {
        self.u64(info.current_epoch);
        self.u64(info.oldest_replayable);
    }
}

struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BodyReader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, count: usize) -> Result<&'a [u8], PirError> {
        if count > self.remaining() {
            return Err(protocol_error(format!(
                "truncated frame body: wanted {count} more bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + count];
        self.pos += count;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, PirError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, PirError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, PirError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, PirError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, PirError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `u32`-length-prefixed byte string. The length is validated
    /// against the bytes actually present **before** anything is copied, so
    /// a hostile prefix cannot drive an allocation beyond the (already
    /// size-capped) frame.
    fn bytes(&mut self) -> Result<&'a [u8], PirError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn phase_time(&mut self) -> Result<PhaseTime, PirError> {
        let wall_seconds = self.f64()?;
        let flag = self.u8()?;
        let simulated = self.f64()?;
        let simulated_seconds = match flag {
            0 => None,
            1 => Some(simulated),
            other => {
                return Err(protocol_error(format!(
                    "invalid phase-time presence flag {other}"
                )))
            }
        };
        Ok(PhaseTime {
            wall_seconds,
            simulated_seconds,
        })
    }

    fn phases(&mut self) -> Result<PhaseBreakdown, PirError> {
        Ok(PhaseBreakdown {
            eval: self.phase_time()?,
            copy_to_pim: self.phase_time()?,
            dpxor: self.phase_time()?,
            copy_from_pim: self.phase_time()?,
            aggregate: self.phase_time()?,
        })
    }

    fn server_info(&mut self) -> Result<ServerInfo, PirError> {
        Ok(ServerInfo {
            num_records: self.u64()?,
            record_size: self.u32()? as usize,
            shard_count: self.u32()? as usize,
            epoch: self.u64()?,
        })
    }

    fn epoch_info(&mut self) -> Result<EpochInfo, PirError> {
        Ok(EpochInfo {
            current_epoch: self.u64()?,
            oldest_replayable: self.u64()?,
        })
    }

    fn finish(self) -> Result<(), PirError> {
        if self.remaining() != 0 {
            return Err(protocol_error(format!(
                "{} bytes of trailing garbage after frame body",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Per-item wire sizes. `QueryShare::size_bytes` / `ServerResponse::size_bytes`
// delegate here so the sizes the bench harness reports are the bytes a
// socket actually carries.
// ---------------------------------------------------------------------------

/// Serialized size of one [`QueryShare`] inside a [`Frame::QueryBatch`]:
/// the query id, the key-length prefix and the key bytes.
#[must_use]
pub fn share_wire_bytes(share: &QueryShare) -> usize {
    8 + 4 + share.key.size_bytes()
}

/// Serialized size of one [`ServerResponse`] inside a
/// [`Frame::ResponseBatch`]: the query id, the party byte, the
/// payload-length prefix and the payload.
#[must_use]
pub fn response_wire_bytes(response: &ServerResponse) -> usize {
    8 + 1 + 4 + response.payload.len()
}

/// Total on-the-wire size of the [`Frame::QueryBatch`] carrying `shares`
/// (framing included) — the upload cost of one batch.
#[must_use]
pub fn query_batch_frame_bytes(shares: &[QueryShare]) -> usize {
    FRAME_HEADER_BYTES + 4 + shares.iter().map(share_wire_bytes).sum::<usize>()
}

/// Total on-the-wire size of the [`Frame::ResponseBatch`] carrying
/// `responses` (framing, epoch, timing and phases included) — the download
/// cost of one batch.
#[must_use]
pub fn response_batch_frame_bytes(responses: &[ServerResponse]) -> usize {
    FRAME_HEADER_BYTES
        + 8
        + 8
        + PHASES_BYTES
        + 4
        + responses.iter().map(response_wire_bytes).sum::<usize>()
}

/// Total on-the-wire size of the [`Frame::UpdateBatch`] carrying `updates`.
#[must_use]
pub fn update_batch_frame_bytes(updates: &[(u64, Vec<u8>)]) -> usize {
    FRAME_HEADER_BYTES
        + 4
        + updates
            .iter()
            .map(|(_, bytes)| 8 + 4 + bytes.len())
            .sum::<usize>()
}

/// Total on-the-wire size of the [`Frame::UpdateReplay`] carrying
/// `batches` — the download cost of one catch-up.
#[must_use]
pub fn update_replay_frame_bytes(batches: &[Vec<(u64, Vec<u8>)>]) -> usize {
    FRAME_HEADER_BYTES
        + 4
        + batches
            .iter()
            // Per batch: an entry count, then each entry's index, length
            // prefix and bytes — the same layout an UpdateBatch body uses.
            .map(|updates| update_batch_frame_bytes(updates) - FRAME_HEADER_BYTES)
            .sum::<usize>()
}

/// Total on-the-wire size of the [`Frame::SelectorScan`] carrying
/// `selector` — the per-server upload cost of one naive n-server query.
#[must_use]
pub fn selector_scan_frame_bytes(selector: &SelectorVector) -> usize {
    selector_scan_frame_bytes_for_bits(selector.len())
}

/// [`selector_scan_frame_bytes`] for a selector of `bits` bits, without
/// needing the selector itself. Selectors travel in their packed word
/// layout (little-endian `u64`s, the same bytes that go to DPU MRAM), so
/// the size rounds up to whole words.
#[must_use]
pub fn selector_scan_frame_bytes_for_bits(bits: usize) -> usize {
    FRAME_HEADER_BYTES + 8 + 4 + bits.div_ceil(64) * 8
}

impl Frame {
    /// The frame's body size on the wire (excluding the 5 framing bytes).
    fn body_bytes(&self) -> usize {
        match self {
            Frame::Hello { .. } => 4 + 2,
            Frame::HelloAck { .. } => 2 + SERVER_INFO_BYTES,
            Frame::QueryBatch { shares } => query_batch_frame_bytes(shares) - FRAME_HEADER_BYTES,
            Frame::ResponseBatch { responses, .. } => {
                response_batch_frame_bytes(responses) - FRAME_HEADER_BYTES
            }
            Frame::UpdateBatch { updates } => {
                update_batch_frame_bytes(updates) - FRAME_HEADER_BYTES
            }
            Frame::UpdateAck { .. } => 8 + 8 + 8 + 8,
            Frame::InfoRequest | Frame::Goodbye => 0,
            Frame::Info { .. } => SERVER_INFO_BYTES,
            Frame::SelectorScan { selector } => {
                selector_scan_frame_bytes(selector) - FRAME_HEADER_BYTES
            }
            Frame::SelectorResult { payload, .. } => 8 + 4 + payload.len() + PHASES_BYTES,
            Frame::EpochInfoRequest => 0,
            Frame::EpochInfo { .. } => EPOCH_INFO_BYTES,
            Frame::UpdateReplayRequest { .. } => 8,
            Frame::UpdateReplay { batches } => {
                update_replay_frame_bytes(batches) - FRAME_HEADER_BYTES
            }
            Frame::JournalTruncated { .. } => 8 + 8 + 8,
            Frame::Error { message } => 4 + message.len(),
            Frame::Mux { frame, .. } => MUX_OVERHEAD_BYTES + frame.body_bytes(),
            Frame::Overloaded { .. } => 8,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => TAG_HELLO,
            Frame::HelloAck { .. } => TAG_HELLO_ACK,
            Frame::QueryBatch { .. } => TAG_QUERY_BATCH,
            Frame::ResponseBatch { .. } => TAG_RESPONSE_BATCH,
            Frame::UpdateBatch { .. } => TAG_UPDATE_BATCH,
            Frame::UpdateAck { .. } => TAG_UPDATE_ACK,
            Frame::InfoRequest => TAG_INFO_REQUEST,
            Frame::Info { .. } => TAG_INFO,
            Frame::SelectorScan { .. } => TAG_SELECTOR_SCAN,
            Frame::SelectorResult { .. } => TAG_SELECTOR_RESULT,
            Frame::EpochInfoRequest => TAG_EPOCH_INFO_REQUEST,
            Frame::EpochInfo { .. } => TAG_EPOCH_INFO,
            Frame::UpdateReplayRequest { .. } => TAG_UPDATE_REPLAY_REQUEST,
            Frame::UpdateReplay { .. } => TAG_UPDATE_REPLAY,
            Frame::JournalTruncated { .. } => TAG_JOURNAL_TRUNCATED,
            Frame::Error { .. } => TAG_ERROR,
            Frame::Goodbye => TAG_GOODBYE,
            Frame::Mux { .. } => TAG_MUX,
            Frame::Overloaded { .. } => TAG_OVERLOADED,
        }
    }

    /// The frame kind's name, for error messages (a `Debug` dump of a
    /// query batch would put whole keys in the message).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::HelloAck { .. } => "HelloAck",
            Frame::QueryBatch { .. } => "QueryBatch",
            Frame::ResponseBatch { .. } => "ResponseBatch",
            Frame::UpdateBatch { .. } => "UpdateBatch",
            Frame::UpdateAck { .. } => "UpdateAck",
            Frame::InfoRequest => "InfoRequest",
            Frame::Info { .. } => "Info",
            Frame::SelectorScan { .. } => "SelectorScan",
            Frame::SelectorResult { .. } => "SelectorResult",
            Frame::EpochInfoRequest => "EpochInfoRequest",
            Frame::EpochInfo { .. } => "EpochInfo",
            Frame::UpdateReplayRequest { .. } => "UpdateReplayRequest",
            Frame::UpdateReplay { .. } => "UpdateReplay",
            Frame::JournalTruncated { .. } => "JournalTruncated",
            Frame::Error { .. } => "Error",
            Frame::Goodbye => "Goodbye",
            Frame::Mux { .. } => "Mux",
            Frame::Overloaded { .. } => "Overloaded",
        }
    }

    /// The frame's size on the wire, framing bytes included — what
    /// [`Frame::encode`] would produce, without encoding.
    #[must_use]
    pub fn encoded_bytes(&self) -> usize {
        FRAME_HEADER_BYTES + self.body_bytes()
    }

    /// Whether the frame is a request whose re-execution cannot change the
    /// server's state, so a lost reply may be answered by sending it again
    /// (to the same replica or another one). Of the requests, only
    /// [`Frame::UpdateBatch`] is not.
    #[must_use]
    pub fn is_idempotent_request(&self) -> bool {
        matches!(
            self,
            Frame::QueryBatch { .. }
                | Frame::SelectorScan { .. }
                | Frame::InfoRequest
                | Frame::EpochInfoRequest
                | Frame::UpdateReplayRequest { .. }
        )
    }

    /// Serializes the frame, framing bytes included.
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] if the frame would exceed
    /// [`MAX_FRAME_BYTES`] — the encoder enforces the same bound the
    /// decoder does, so an oversized batch fails loudly at the sender
    /// instead of poisoning the connection.
    pub fn encode(&self) -> Result<Vec<u8>, PirError> {
        if let Frame::Mux { frame, .. } = self {
            if matches!(**frame, Frame::Mux { .. }) {
                return Err(protocol_error("Mux frame nested inside a Mux frame"));
            }
        }
        encode_with_body(self.tag(), self.body_bytes(), |w| self.write_body(w))
    }

    /// Writes the frame's body (everything after the tag byte) into `w`.
    fn write_body(&self, w: &mut BodyWriter) {
        match self {
            Frame::Hello { version } => {
                w.raw(&WIRE_MAGIC);
                w.u16(*version);
            }
            Frame::HelloAck { version, info } => {
                w.u16(*version);
                w.server_info(info);
            }
            Frame::QueryBatch { shares } => write_query_batch_body(w, shares),
            Frame::ResponseBatch {
                epoch,
                wall_seconds,
                phases,
                responses,
            } => {
                w.u64(*epoch);
                w.f64(*wall_seconds);
                w.phases(phases);
                w.u32(responses.len() as u32);
                for response in responses {
                    w.u64(response.query_id);
                    w.u8(response.party.index());
                    w.bytes(&response.payload);
                }
            }
            Frame::UpdateBatch { updates } => write_update_batch_body(w, updates),
            Frame::UpdateAck { outcome } => {
                w.u64(outcome.records_updated as u64);
                w.u64(outcome.bytes_pushed);
                w.f64(outcome.simulated_seconds);
                w.u64(outcome.epoch);
            }
            Frame::InfoRequest | Frame::Goodbye => {}
            Frame::Info { info } => w.server_info(info),
            Frame::SelectorScan { selector } => write_selector_scan_body(w, selector),
            Frame::SelectorResult {
                epoch,
                payload,
                phases,
            } => {
                w.u64(*epoch);
                w.bytes(payload);
                w.phases(phases);
            }
            Frame::EpochInfoRequest => {}
            Frame::EpochInfo { info } => w.epoch_info(info),
            Frame::UpdateReplayRequest { from_epoch } => w.u64(*from_epoch),
            Frame::UpdateReplay { batches } => {
                w.u32(batches.len() as u32);
                for updates in batches {
                    write_update_batch_body(w, updates);
                }
            }
            Frame::JournalTruncated {
                from_epoch,
                oldest_replayable,
                current_epoch,
            } => {
                w.u64(*from_epoch);
                w.u64(*oldest_replayable);
                w.u64(*current_epoch);
            }
            Frame::Error { message } => w.bytes(message.as_bytes()),
            Frame::Mux { session, frame } => {
                w.u32(*session);
                w.u8(frame.tag());
                frame.write_body(w);
            }
            Frame::Overloaded { retry_after_ms } => w.u64(*retry_after_ms),
        }
    }

    /// Parses one frame from a byte slice that must contain exactly the
    /// frame (framing bytes included).
    ///
    /// # Errors
    ///
    /// Returns [`PirError::Protocol`] for truncated, oversized,
    /// trailing-garbage or otherwise malformed input. Never panics.
    pub fn decode(bytes: &[u8]) -> Result<Frame, PirError> {
        if bytes.len() < FRAME_HEADER_BYTES {
            return Err(protocol_error("frame shorter than its header"));
        }
        let length = u32::from_le_bytes(bytes[..4].try_into().expect("4")) as usize;
        if length == 0 {
            return Err(protocol_error("frame with empty length"));
        }
        if length > MAX_FRAME_BYTES {
            return Err(protocol_error(format!(
                "frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
            )));
        }
        if bytes.len() != 4 + length {
            return Err(protocol_error(format!(
                "frame length field says {length} bytes but {} follow the prefix",
                bytes.len() - 4
            )));
        }
        Frame::decode_body(bytes[4], &bytes[FRAME_HEADER_BYTES..])
    }

    /// Parses a frame body given its tag.
    fn decode_body(tag: u8, body: &[u8]) -> Result<Frame, PirError> {
        let mut r = BodyReader::new(body);
        let frame = match tag {
            TAG_HELLO => {
                let magic = r.take(4)?;
                if magic != WIRE_MAGIC {
                    return Err(protocol_error(format!(
                        "bad protocol magic {magic:02x?} (expected {WIRE_MAGIC:02x?})"
                    )));
                }
                Frame::Hello { version: r.u16()? }
            }
            TAG_HELLO_ACK => Frame::HelloAck {
                version: r.u16()?,
                info: r.server_info()?,
            },
            TAG_QUERY_BATCH => {
                let count = r.u32()?;
                let mut shares = Vec::new();
                for _ in 0..count {
                    let query_id = r.u64()?;
                    let key = DpfKey::from_bytes(r.bytes()?).map_err(|err| {
                        protocol_error(format!("malformed DPF key in query batch: {err}"))
                    })?;
                    shares.push(QueryShare::new(query_id, key));
                }
                Frame::QueryBatch { shares }
            }
            TAG_RESPONSE_BATCH => {
                let epoch = r.u64()?;
                let wall_seconds = r.f64()?;
                let phases = r.phases()?;
                let count = r.u32()?;
                let mut responses = Vec::new();
                for _ in 0..count {
                    let query_id = r.u64()?;
                    let party = match r.u8()? {
                        0 => PartyId::Server1,
                        1 => PartyId::Server2,
                        other => return Err(protocol_error(format!("invalid party byte {other}"))),
                    };
                    responses.push(ServerResponse::new(query_id, party, r.bytes()?.to_vec()));
                }
                Frame::ResponseBatch {
                    epoch,
                    wall_seconds,
                    phases,
                    responses,
                }
            }
            TAG_UPDATE_BATCH => {
                let count = r.u32()?;
                let mut updates = Vec::new();
                for _ in 0..count {
                    let index = r.u64()?;
                    updates.push((index, r.bytes()?.to_vec()));
                }
                Frame::UpdateBatch { updates }
            }
            TAG_UPDATE_ACK => Frame::UpdateAck {
                outcome: UpdateOutcome {
                    records_updated: usize::try_from(r.u64()?).map_err(|_| {
                        protocol_error("updated-record count exceeds this platform's usize")
                    })?,
                    bytes_pushed: r.u64()?,
                    simulated_seconds: r.f64()?,
                    epoch: r.u64()?,
                },
            },
            TAG_INFO_REQUEST => Frame::InfoRequest,
            TAG_INFO => Frame::Info {
                info: r.server_info()?,
            },
            TAG_SELECTOR_SCAN => {
                let bits = r.u64()?;
                let bit_len = usize::try_from(bits)
                    .map_err(|_| protocol_error("selector bit length exceeds usize"))?;
                let bytes = r.bytes()?;
                // Exactly the packed word layout — no shorter (truncated)
                // and no longer (smuggled payload after the words).
                if bytes.len() != bit_len.div_ceil(64) * 8 {
                    return Err(protocol_error(format!(
                        "selector of {bit_len} bits needs {} packed bytes, got {}",
                        bit_len.div_ceil(64) * 8,
                        bytes.len()
                    )));
                }
                let selector = SelectorVector::from_bytes(bytes, bit_len).ok_or_else(|| {
                    protocol_error(format!(
                        "selector of {} bytes cannot hold {bit_len} bits",
                        bytes.len()
                    ))
                })?;
                // Padding bits beyond `bit_len` must be clear: the scan
                // kernels rely on that invariant, and a hostile peer could
                // otherwise XOR phantom records into the subresult.
                let tail_bits = bit_len % 64;
                if tail_bits != 0 {
                    let last = *selector.words().last().expect("non-empty for tail bits");
                    if last >> tail_bits != 0 {
                        return Err(protocol_error(
                            "selector has padding bits set beyond its length",
                        ));
                    }
                }
                Frame::SelectorScan { selector }
            }
            TAG_SELECTOR_RESULT => Frame::SelectorResult {
                epoch: r.u64()?,
                payload: r.bytes()?.to_vec(),
                phases: r.phases()?,
            },
            TAG_ERROR => {
                let message = String::from_utf8(r.bytes()?.to_vec())
                    .map_err(|_| protocol_error("error message is not valid UTF-8"))?;
                Frame::Error { message }
            }
            TAG_GOODBYE => Frame::Goodbye,
            TAG_EPOCH_INFO_REQUEST => Frame::EpochInfoRequest,
            TAG_EPOCH_INFO => Frame::EpochInfo {
                info: r.epoch_info()?,
            },
            TAG_UPDATE_REPLAY_REQUEST => Frame::UpdateReplayRequest {
                from_epoch: r.u64()?,
            },
            TAG_UPDATE_REPLAY => {
                // Both counts are hostile input: the loops pull from the
                // (already size-capped) frame, so neither can drive an
                // allocation the frame bytes don't back.
                let batch_count = r.u32()?;
                let mut batches = Vec::new();
                for _ in 0..batch_count {
                    let count = r.u32()?;
                    let mut updates = Vec::new();
                    for _ in 0..count {
                        let index = r.u64()?;
                        updates.push((index, r.bytes()?.to_vec()));
                    }
                    batches.push(updates);
                }
                Frame::UpdateReplay { batches }
            }
            TAG_JOURNAL_TRUNCATED => Frame::JournalTruncated {
                from_epoch: r.u64()?,
                oldest_replayable: r.u64()?,
                current_epoch: r.u64()?,
            },
            TAG_MUX => {
                let session = r.u32()?;
                let inner_tag = r.u8()?;
                if inner_tag == TAG_MUX {
                    return Err(protocol_error("Mux frame nested inside a Mux frame"));
                }
                // The inner frame owns everything left in the body; its
                // own decoder enforces the no-trailing-garbage rule.
                let rest = r.remaining();
                let inner_body = r.take(rest)?;
                Frame::Mux {
                    session,
                    frame: Box::new(Frame::decode_body(inner_tag, inner_body)?),
                }
            }
            TAG_OVERLOADED => Frame::Overloaded {
                retry_after_ms: r.u64()?,
            },
            other => return Err(protocol_error(format!("unknown frame tag {other}"))),
        };
        r.finish()?;
        Ok(frame)
    }
}

fn write_query_batch_body(w: &mut BodyWriter, shares: &[QueryShare]) {
    w.u32(shares.len() as u32);
    for share in shares {
        w.u64(share.query_id);
        w.bytes(&share.key.to_bytes());
    }
}

fn write_update_batch_body(w: &mut BodyWriter, updates: &[(u64, Vec<u8>)]) {
    w.u32(updates.len() as u32);
    for (index, bytes) in updates {
        w.u64(*index);
        w.bytes(bytes);
    }
}

/// Streams the selector's packed words straight into the body — no
/// intermediate `to_bytes` allocation.
fn write_selector_scan_body(w: &mut BodyWriter, selector: &SelectorVector) {
    w.u64(selector.len() as u64);
    w.u32((selector.words().len() * 8) as u32);
    for word in selector.words() {
        w.raw(&word.to_le_bytes());
    }
}

/// Encodes the complete frame (header + tag + body) that `write_body`
/// produces, enforcing [`MAX_FRAME_BYTES`] like [`Frame::encode`].
fn encode_with_body(
    tag: u8,
    body_bytes: usize,
    write_body: impl FnOnce(&mut BodyWriter),
) -> Result<Vec<u8>, PirError> {
    if 1 + body_bytes > MAX_FRAME_BYTES {
        return Err(protocol_error(format!(
            "frame of {body_bytes} body bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    let mut w = BodyWriter::with_capacity(FRAME_HEADER_BYTES + body_bytes);
    w.u32((1 + body_bytes) as u32);
    w.u8(tag);
    write_body(&mut w);
    debug_assert_eq!(w.buf.len(), FRAME_HEADER_BYTES + body_bytes);
    Ok(w.buf)
}

/// Encodes a [`Frame::QueryBatch`] straight from a borrowed slice —
/// byte-identical to building the owned frame first, without cloning every
/// DPF key on the client's hot send path.
///
/// # Errors
///
/// Returns [`PirError::Protocol`] if the frame would exceed
/// [`MAX_FRAME_BYTES`].
pub fn encode_query_batch(shares: &[QueryShare]) -> Result<Vec<u8>, PirError> {
    encode_with_body(
        TAG_QUERY_BATCH,
        query_batch_frame_bytes(shares) - FRAME_HEADER_BYTES,
        |w| write_query_batch_body(w, shares),
    )
}

/// Serializes `frame` into `writer`, returning the number of bytes put on
/// the wire.
///
/// # Errors
///
/// Returns [`PirError::Protocol`] for oversized frames and for I/O
/// failures.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> Result<usize, PirError> {
    let encoded = frame.encode()?;
    writer
        .write_all(&encoded)
        .map_err(|err| io_error("writing frame", &err))?;
    writer
        .flush()
        .map_err(|err| io_error("flushing frame", &err))?;
    Ok(encoded.len())
}

/// Reads one frame from `reader`, returning it along with the number of
/// bytes taken off the wire.
///
/// # Errors
///
/// Returns [`PirError::Protocol`] for I/O failures (including a peer
/// closing mid-frame), oversized length prefixes — rejected before any
/// buffer is allocated — and malformed bodies.
pub fn read_frame(reader: &mut impl Read) -> Result<(Frame, usize), PirError> {
    let mut prefix = [0u8; 4];
    reader
        .read_exact(&mut prefix)
        .map_err(|err| io_error("reading frame length", &err))?;
    let length = u32::from_le_bytes(prefix) as usize;
    if length == 0 {
        return Err(protocol_error("frame with empty length"));
    }
    if length > MAX_FRAME_BYTES {
        return Err(protocol_error(format!(
            "frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    let mut buf = vec![0u8; length];
    reader
        .read_exact(&mut buf)
        .map_err(|err| io_error("reading frame body", &err))?;
    let frame = Frame::decode_body(buf[0], &buf[1..])?;
    Ok((frame, 4 + length))
}

#[cfg(test)]
mod tests {
    use super::*;
    use impir_dpf::gen::generate_keys;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_shares(count: usize) -> Vec<QueryShare> {
        let mut rng = StdRng::seed_from_u64(7);
        (0..count)
            .map(|i| {
                let (k1, k2) = generate_keys(10, (i as u64 * 37) % 1024, &mut rng).unwrap();
                QueryShare::new(i as u64, if i % 2 == 0 { k1 } else { k2 })
            })
            .collect()
    }

    fn sample_frames() -> Vec<Frame> {
        let info = ServerInfo {
            num_records: 4096,
            record_size: 32,
            shard_count: 3,
            epoch: 9,
        };
        let phases = PhaseBreakdown {
            eval: PhaseTime::host(0.25),
            dpxor: PhaseTime::pim(0.5, 0.0125),
            ..PhaseBreakdown::zero()
        };
        vec![
            Frame::Hello {
                version: WIRE_VERSION,
            },
            Frame::HelloAck {
                version: WIRE_VERSION,
                info,
            },
            Frame::QueryBatch {
                shares: sample_shares(3),
            },
            Frame::ResponseBatch {
                epoch: 4,
                wall_seconds: 0.75,
                phases,
                responses: vec![
                    ServerResponse::new(0, PartyId::Server1, vec![1, 2, 3]),
                    ServerResponse::new(1, PartyId::Server2, vec![4, 5, 6]),
                ],
            },
            Frame::UpdateBatch {
                updates: vec![(3, vec![0xAA; 8]), (77, vec![0x55; 8])],
            },
            Frame::UpdateAck {
                outcome: UpdateOutcome {
                    records_updated: 2,
                    bytes_pushed: 16,
                    simulated_seconds: 0.001,
                    epoch: 5,
                },
            },
            Frame::InfoRequest,
            Frame::Info { info },
            Frame::SelectorScan {
                selector: (0..321).map(|i| i % 5 == 0).collect(),
            },
            Frame::SelectorResult {
                epoch: 3,
                payload: vec![9; 32],
                phases,
            },
            Frame::Error {
                message: "no such record".to_string(),
            },
            Frame::Goodbye,
            Frame::EpochInfoRequest,
            Frame::EpochInfo {
                info: EpochInfo {
                    current_epoch: 12,
                    oldest_replayable: 5,
                },
            },
            Frame::UpdateReplayRequest { from_epoch: 7 },
            Frame::UpdateReplay {
                batches: vec![
                    vec![(3, vec![0xAA; 8]), (77, vec![0x55; 8])],
                    vec![],
                    vec![(0, vec![1, 2, 3])],
                ],
            },
            Frame::JournalTruncated {
                from_epoch: 2,
                oldest_replayable: 6,
                current_epoch: 12,
            },
            Frame::Mux {
                session: 3,
                frame: Box::new(Frame::QueryBatch {
                    shares: sample_shares(2),
                }),
            },
            Frame::Mux {
                session: u32::MAX,
                frame: Box::new(Frame::Goodbye),
            },
            Frame::Overloaded {
                retry_after_ms: 250,
            },
        ]
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        for frame in sample_frames() {
            let encoded = frame.encode().unwrap();
            assert_eq!(Frame::decode(&encoded).unwrap(), frame, "{frame:?}");
            let mut cursor = std::io::Cursor::new(encoded.clone());
            let (read, taken) = read_frame(&mut cursor).unwrap();
            assert_eq!(read, frame);
            assert_eq!(taken, encoded.len());
        }
    }

    #[test]
    fn encoded_length_matches_the_size_helpers() {
        let shares = sample_shares(4);
        let frame = Frame::QueryBatch {
            shares: shares.clone(),
        };
        assert_eq!(
            frame.encode().unwrap().len(),
            query_batch_frame_bytes(&shares)
        );

        let responses = vec![
            ServerResponse::new(0, PartyId::Server1, vec![0; 32]),
            ServerResponse::new(1, PartyId::Server2, vec![1; 32]),
        ];
        let frame = Frame::ResponseBatch {
            epoch: 0,
            wall_seconds: 0.0,
            phases: PhaseBreakdown::zero(),
            responses: responses.clone(),
        };
        assert_eq!(
            frame.encode().unwrap().len(),
            response_batch_frame_bytes(&responses)
        );

        let updates = vec![(0u64, vec![7u8; 16]), (5, vec![8; 16])];
        let frame = Frame::UpdateBatch {
            updates: updates.clone(),
        };
        assert_eq!(
            frame.encode().unwrap().len(),
            update_batch_frame_bytes(&updates)
        );

        let selector: SelectorVector = (0..100).map(|i| i % 2 == 0).collect();
        let frame = Frame::SelectorScan {
            selector: selector.clone(),
        };
        assert_eq!(
            frame.encode().unwrap().len(),
            selector_scan_frame_bytes(&selector)
        );

        let batches = vec![vec![(0u64, vec![7u8; 16])], vec![], vec![(5, vec![8; 16])]];
        let frame = Frame::UpdateReplay {
            batches: batches.clone(),
        };
        assert_eq!(
            frame.encode().unwrap().len(),
            update_replay_frame_bytes(&batches)
        );
    }

    #[test]
    fn the_borrowed_query_encoder_matches_the_owned_frame_byte_for_byte() {
        let shares = sample_shares(3);
        assert_eq!(
            encode_query_batch(&shares).unwrap(),
            Frame::QueryBatch {
                shares: shares.clone()
            }
            .encode()
            .unwrap()
        );
    }

    #[test]
    fn truncated_frames_decode_to_clean_errors() {
        for frame in sample_frames() {
            let encoded = frame.encode().unwrap();
            for cut in 0..encoded.len() {
                assert!(
                    matches!(
                        Frame::decode(&encoded[..cut]),
                        Err(PirError::Protocol { .. })
                    ),
                    "{frame:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        // Announces a ~4 GiB frame; decoding must fail fast, not allocate.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.push(TAG_GOODBYE);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(PirError::Protocol { .. })
        ));
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(PirError::Protocol { .. })
        ));
    }

    #[test]
    fn hostile_inner_length_prefixes_cannot_outgrow_the_frame() {
        // A query batch whose key-length prefix claims more bytes than the
        // frame holds: the reader must reject it instead of allocating.
        let mut w = Vec::new();
        w.extend_from_slice(&[0u8; 4]); // patched below
        w.push(TAG_QUERY_BATCH);
        w.extend_from_slice(&1u32.to_le_bytes()); // one share
        w.extend_from_slice(&9u64.to_le_bytes()); // query id
        w.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile key length
        let length = (w.len() - 4) as u32;
        w[..4].copy_from_slice(&length.to_le_bytes());
        assert!(matches!(Frame::decode(&w), Err(PirError::Protocol { .. })));
    }

    #[test]
    fn bad_magic_and_unknown_tags_are_rejected() {
        let mut hello = Frame::Hello {
            version: WIRE_VERSION,
        }
        .encode()
        .unwrap();
        hello[FRAME_HEADER_BYTES] ^= 0xFF; // corrupt the magic
        assert!(matches!(
            Frame::decode(&hello),
            Err(PirError::Protocol { .. })
        ));

        let mut goodbye = Frame::Goodbye.encode().unwrap();
        goodbye[4] = 200; // unknown tag
        assert!(matches!(
            Frame::decode(&goodbye),
            Err(PirError::Protocol { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut encoded = Frame::InfoRequest.encode().unwrap();
        // Grow the body (and fix the length prefix so framing stays valid):
        // the *body decoder* must notice the extra byte.
        encoded.push(0xAB);
        let length = (encoded.len() - 4) as u32;
        encoded[..4].copy_from_slice(&length.to_le_bytes());
        assert!(matches!(
            Frame::decode(&encoded),
            Err(PirError::Protocol { .. })
        ));
    }

    #[test]
    fn nested_mux_frames_are_rejected_on_both_sides() {
        // The encoder refuses to put a Mux inside a Mux on the wire …
        let nested = Frame::Mux {
            session: 2,
            frame: Box::new(Frame::Mux {
                session: 1,
                frame: Box::new(Frame::Goodbye),
            }),
        };
        assert!(matches!(nested.encode(), Err(PirError::Protocol { .. })));

        // … and the decoder rejects hand-built nested bytes a hostile
        // peer sends anyway (without recursing into the inner body).
        let inner = Frame::Mux {
            session: 1,
            frame: Box::new(Frame::Goodbye),
        }
        .encode()
        .unwrap();
        let mut outer = Vec::new();
        outer.extend_from_slice(&[0u8; 4]); // patched below
        outer.push(TAG_MUX);
        outer.extend_from_slice(&9u32.to_le_bytes()); // outer session id
        outer.extend_from_slice(&inner[4..]); // inner tag + body
        let length = (outer.len() - 4) as u32;
        outer[..4].copy_from_slice(&length.to_le_bytes());
        assert!(matches!(
            Frame::decode(&outer),
            Err(PirError::Protocol { .. })
        ));
    }

    #[test]
    fn mux_wrapping_is_transparent_to_the_inner_frame_bytes() {
        // A Mux body is exactly session id + the inner frame's tag and
        // body — the bytes a plain encoding of the inner frame carries
        // after its length prefix.
        let inner = Frame::UpdateReplayRequest { from_epoch: 41 };
        let plain = inner.encode().unwrap();
        let muxed = Frame::Mux {
            session: 7,
            frame: Box::new(inner),
        }
        .encode()
        .unwrap();
        assert_eq!(muxed.len(), plain.len() + MUX_OVERHEAD_BYTES);
        assert_eq!(&muxed[FRAME_HEADER_BYTES + 4..], &plain[4..]);
    }

    #[test]
    fn invalid_party_and_flag_bytes_are_rejected() {
        let frame = Frame::ResponseBatch {
            epoch: 0,
            wall_seconds: 0.0,
            phases: PhaseBreakdown::zero(),
            responses: vec![ServerResponse::new(0, PartyId::Server1, vec![1])],
        };
        let mut encoded = frame.encode().unwrap();
        // The party byte sits after the header, epoch, wall time, phases
        // and count (4) + query id (8).
        let offset = FRAME_HEADER_BYTES + 8 + 8 + PHASES_BYTES + 4 + 8;
        assert_eq!(encoded[offset], 0);
        encoded[offset] = 9;
        assert!(matches!(
            Frame::decode(&encoded),
            Err(PirError::Protocol { .. })
        ));

        // Phase presence flags other than 0/1 are rejected too.
        let mut encoded = frame.encode().unwrap();
        let flag_offset = FRAME_HEADER_BYTES + 8 + 8 + 8;
        assert_eq!(encoded[flag_offset], 0);
        encoded[flag_offset] = 2;
        assert!(matches!(
            Frame::decode(&encoded),
            Err(PirError::Protocol { .. })
        ));
    }
}
