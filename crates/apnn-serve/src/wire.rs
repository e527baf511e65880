//! The network boundary: a hand-rolled length-prefixed binary protocol
//! over `std::net` TCP.
//!
//! ## Frame layout
//!
//! Every message travels as one frame: a `u32` little-endian payload
//! length (at most [`MAX_FRAME`]), then the payload. The first payload
//! byte is the message type; all integers are little-endian, all strings
//! are `u16` length + UTF-8 bytes.
//!
//! ```text
//! request  (type 1): u64 id · str model · spec · u32 version(0=active)
//!                    · str tenant · u8 has_deadline [· u64 deadline]
//!                    · i32 priority · image
//! spec             : u8 kind — 0 uniform (u8 tag [· u8 w · u8 a])
//!                              1 scheduled (u16 n · n×(u8 w · u8 a))
//! image            : u16 h · u16 w · u16 c · u8 bits · u8 encoding
//!                    · h·w·c × u32 codes
//! response (type 2): u64 id · u8 status — 0 ok (u16 classes · n×i32)
//!                    · else a [`crate::ServeError`] code + fields
//! hello    (type 3): u64 client_id
//! ```
//!
//! ## Idempotent resubmission
//!
//! A client that announces a stable `client_id` with a hello frame gets
//! **exactly-once execution across reconnects**: the server remembers the
//! [`Ticket`] behind every `(client_id, request id)` it accepted, so a
//! resubmission after a dropped connection (what [`RetryClient`] does)
//! re-delivers the original request's result instead of executing it
//! twice. Deduplicated resubmissions are surfaced as
//! [`crate::ServeStats::client_retries`].
//!
//! Malformed input is a **typed** [`WireError`], never a panic — and
//! because framing is resolved before parsing, one bad payload never
//! desyncs the stream: the server answers with an error response (id 0 if
//! the id itself was unreadable) and keeps reading at the next frame
//! boundary. Only frame-level violations (oversized length, mid-frame
//! EOF) close the connection, since the boundary itself is lost.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use apnn_bitpack::{BitTensor4, Encoding};
use apnn_nn::{LayerPrecision, NetPrecision, PrecisionSchedule};

use crate::api::Request;
use crate::fault::{splitmix64, FaultSite, Injector};
use crate::registry::{ModelKey, PlanSpec};
use crate::server::Server;
use crate::{ServeError, Ticket};

/// Largest accepted frame payload (16 MiB — a 32×32×3 image is ~12 KiB,
/// so this bounds hostile allocations, not legitimate traffic).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Largest accepted image edge/channel extent — bounds decoder
/// allocations independently of the frame cap.
const MAX_DIM: usize = 4096;

const MSG_REQUEST: u8 = 1;
const MSG_RESPONSE: u8 = 2;
const MSG_HELLO: u8 = 3;

/// How many request ids the server remembers per announced client (the
/// idempotency window), and how many distinct clients it tracks — both
/// FIFO-evicted, bounding the dedup ledger regardless of traffic.
const MAX_IDEM_IDS: usize = 1024;
const MAX_IDEM_CLIENTS: usize = 1024;

/// Why a frame failed to parse or a connection failed to transport it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The frame header announced a payload beyond [`MAX_FRAME`], or
    /// [`write_frame`] was handed one.
    FrameTooLarge {
        /// The payload length, saturated at `u32::MAX`.
        len: u32,
    },
    /// The payload ended before the named field was complete.
    UnexpectedEof {
        /// Which field was being read.
        context: &'static str,
    },
    /// The first payload byte is not a known message type.
    UnknownMessageType(u8),
    /// A field held a value outside its domain (bad encoding byte, zero
    /// dimension, out-of-range bit width, …).
    BadValue {
        /// Which field was malformed.
        context: &'static str,
    },
    /// A string field was not valid UTF-8.
    BadUtf8 {
        /// Which field was malformed.
        context: &'static str,
    },
    /// The payload parsed but left unconsumed bytes.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// A read or write exceeded the connection's configured
    /// [`WireTimeouts`] — the peer accepted the connection but stopped
    /// responding.
    TimedOut,
    /// A transport-level I/O failure.
    Io(String),
    /// An error reported by the remote peer (seen only inside
    /// [`ServeError::Wire`] decoded from a response).
    Remote(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::UnexpectedEof { context } => {
                write!(f, "payload ended inside `{context}`")
            }
            WireError::UnknownMessageType(t) => write!(f, "unknown message type {t}"),
            WireError::BadValue { context } => write!(f, "malformed `{context}` field"),
            WireError::BadUtf8 { context } => write!(f, "`{context}` is not valid UTF-8"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the message")
            }
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::TimedOut => write!(f, "peer unresponsive: read/write timed out"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Remote(e) => write!(f, "remote error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

fn io_err(e: std::io::Error) -> WireError {
    match e.kind() {
        // Platform-dependent: a socket read deadline surfaces as
        // `WouldBlock` on Unix and `TimedOut` on Windows.
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::TimedOut,
        _ => WireError::Io(e.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Payload reader/writer
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::UnexpectedEof { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, context)?[0])
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2, context)?.try_into().unwrap(),
        ))
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4, context)?.try_into().unwrap(),
        ))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().unwrap(),
        ))
    }

    fn i32(&mut self, context: &'static str) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(
            self.take(4, context)?.try_into().unwrap(),
        ))
    }

    fn str(&mut self, context: &'static str) -> Result<String, WireError> {
        let len = self.u16(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8 { context })
    }

    fn finish(self) -> Result<(), WireError> {
        let extra = self.buf.len() - self.pos;
        if extra == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes { extra })
        }
    }
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(msg_type: u8) -> Self {
        Writer {
            buf: vec![msg_type],
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize);
        self.u16(s.len().min(u16::MAX as usize) as u16);
        self.buf
            .extend_from_slice(&s.as_bytes()[..s.len().min(u16::MAX as usize)]);
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// The length prefix for a `len`-byte payload, or
/// [`WireError::FrameTooLarge`] when `len` exceeds [`MAX_FRAME`]. The check
/// runs on the `usize` — a length past `u32::MAX` reports `u32::MAX` rather
/// than wrapping into a small, valid-looking prefix.
fn frame_len(len: usize) -> Result<u32, WireError> {
    let len = u32::try_from(len).unwrap_or(u32::MAX);
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len });
    }
    Ok(len)
}

/// Write one frame (length prefix + payload) as one vectored write: on a
/// `TcpStream` that is a single `writev(2)` — one segment under
/// `TCP_NODELAY`, with no copy and no allocation. Short writes continue
/// where they stopped, `Interrupted` retries, and a writer that accepts
/// no bytes is a [`WireError::Io`], not a spin.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let prefix = frame_len(payload.len())?.to_le_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut bufs = &mut slices[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io_err(std::io::ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(e)),
        }
    }
    w.flush().map_err(io_err)
}

/// Read one frame's payload. `Ok(None)` is a clean close (EOF exactly at
/// a frame boundary); EOF *inside* a frame is
/// [`WireError::UnexpectedEof`] — the boundary is lost and the connection
/// must drop.
///
/// Over a socket, pass a [`BufReader`]: then a frame that is already in
/// the kernel's receive queue costs at most one `read(2)`, and a frame
/// pipelined behind it is served from the buffer with none. Every socket
/// this module owns is read that way. The bulk of a payload larger than
/// the buffer bypasses it and lands straight in the returned `Vec`.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len4 = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len4[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::UnexpectedEof {
                    context: "frame length",
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(e)),
        }
    }
    let len = u32::from_le_bytes(len4);
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::UnexpectedEof {
                context: "frame payload",
            }
        } else {
            io_err(e)
        }
    })?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

/// Encode `req` (with a caller-chosen correlation `id`) as a request
/// payload.
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    let mut w = Writer::new(MSG_REQUEST);
    w.u64(id);
    let key = req.model_key();
    w.str(&key.model);
    match &key.spec {
        PlanSpec::Uniform(p) => {
            w.u8(0);
            match p {
                NetPrecision::Fp32 => w.u8(0),
                NetPrecision::Fp16 => w.u8(1),
                NetPrecision::Int8 => w.u8(2),
                NetPrecision::Bnn => w.u8(3),
                NetPrecision::Apnn { w: wb, a } => {
                    w.u8(4);
                    w.u8(*wb as u8);
                    w.u8(*a as u8);
                }
            }
        }
        PlanSpec::Scheduled(s) => {
            w.u8(1);
            w.u16(s.layers().len() as u16);
            for l in s.layers() {
                w.u8(l.w as u8);
                w.u8(l.a as u8);
            }
        }
    }
    w.u32(key.version.unwrap_or(0));
    w.str(req.tenant_label());
    match req.deadline_ticks() {
        Some(d) => {
            w.u8(1);
            w.u64(d);
        }
        None => w.u8(0),
    }
    w.i32(req.priority_value());
    let img = req.image_ref();
    let (_, h, wd, c) = img.shape();
    w.u16(h as u16);
    w.u16(wd as u16);
    w.u16(c as u16);
    w.u8(img.bits() as u8);
    w.u8(match img.encoding() {
        Encoding::ZeroOne => 0,
        Encoding::PlusMinusOne => 1,
    });
    let mut row = vec![0u32; wd * c];
    w.buf.reserve(h * row.len() * 4);
    for hh in 0..h {
        img.unpack_row(0, hh, &mut row);
        w.buf.extend(row.iter().flat_map(|code| code.to_le_bytes()));
    }
    w.buf
}

/// Decode a request payload back into `(id, Request)`. Every malformed
/// input is a typed [`WireError`]; valid-but-unknown models/versions pass
/// through here and fail later, at admission, with the server's own typed
/// [`ServeError`].
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), WireError> {
    let mut r = Reader::new(payload);
    let msg = r.u8("message type")?;
    if msg != MSG_REQUEST {
        return Err(WireError::UnknownMessageType(msg));
    }
    let id = r.u64("request id")?;
    let model = r.str("model name")?;
    let spec = match r.u8("spec kind")? {
        0 => {
            let p = match r.u8("uniform precision tag")? {
                0 => NetPrecision::Fp32,
                1 => NetPrecision::Fp16,
                2 => NetPrecision::Int8,
                3 => NetPrecision::Bnn,
                4 => {
                    let w = r.u8("weight bits")? as u32;
                    let a = r.u8("activation bits")? as u32;
                    if !(1..=8).contains(&w) || !(1..=8).contains(&a) {
                        return Err(WireError::BadValue {
                            context: "uniform precision bits",
                        });
                    }
                    NetPrecision::Apnn { w, a }
                }
                _ => {
                    return Err(WireError::BadValue {
                        context: "uniform precision tag",
                    })
                }
            };
            PlanSpec::Uniform(p)
        }
        1 => {
            let n = r.u16("schedule length")? as usize;
            if n == 0 {
                return Err(WireError::BadValue {
                    context: "schedule length",
                });
            }
            let mut layers = Vec::with_capacity(n);
            for _ in 0..n {
                let w = r.u8("schedule weight bits")? as u32;
                let a = r.u8("schedule activation bits")? as u32;
                if !(1..=8).contains(&w) || !(1..=8).contains(&a) {
                    return Err(WireError::BadValue {
                        context: "schedule bits",
                    });
                }
                layers.push(LayerPrecision::new(w, a));
            }
            PlanSpec::Scheduled(PrecisionSchedule::new(layers))
        }
        _ => {
            return Err(WireError::BadValue {
                context: "spec kind",
            })
        }
    };
    let version = r.u32("version")?;
    let tenant = r.str("tenant")?;
    let deadline = match r.u8("deadline flag")? {
        0 => None,
        1 => Some(r.u64("deadline")?),
        _ => {
            return Err(WireError::BadValue {
                context: "deadline flag",
            })
        }
    };
    let priority = r.i32("priority")?;
    let h = r.u16("image height")? as usize;
    let wd = r.u16("image width")? as usize;
    let c = r.u16("image channels")? as usize;
    if h == 0 || wd == 0 || c == 0 || h > MAX_DIM || wd > MAX_DIM || c > MAX_DIM {
        return Err(WireError::BadValue {
            context: "image dimensions",
        });
    }
    let bits = r.u8("image bits")? as u32;
    if !(1..=8).contains(&bits) {
        return Err(WireError::BadValue {
            context: "image bits",
        });
    }
    let enc = match r.u8("image encoding")? {
        0 => Encoding::ZeroOne,
        1 => Encoding::PlusMinusOne,
        _ => {
            return Err(WireError::BadValue {
                context: "image encoding",
            })
        }
    };
    if enc == Encoding::PlusMinusOne && bits != 1 {
        return Err(WireError::BadValue {
            context: "image encoding (±1 is one bit wide)",
        });
    }
    // Bounds-check the code count against the remaining payload *before*
    // allocating the tensor, so a hostile header cannot force a large
    // allocation backed by nothing.
    let codes = h
        .checked_mul(wd)
        .and_then(|x| x.checked_mul(c))
        .ok_or(WireError::BadValue {
            context: "image dimensions",
        })?;
    if payload.len().saturating_sub(r.pos) < codes * 4 {
        return Err(WireError::UnexpectedEof {
            context: "image codes",
        });
    }
    // A row at a time: parse, range-check the row's OR (a code is in range
    // iff it has no bit at or above `bits`), then pack every plane at once.
    let mut image = BitTensor4::zeros(1, h, wd, c, bits, enc);
    let mut row = vec![0u32; wd * c];
    for hh in 0..h {
        let bytes = r.take(row.len() * 4, "image codes")?;
        for (code, le) in row.iter_mut().zip(bytes.chunks_exact(4)) {
            *code = u32::from_le_bytes(le.try_into().expect("chunks of four"));
        }
        if row.iter().fold(0, |any, &code| any | code) >> bits != 0 {
            return Err(WireError::BadValue {
                context: "image code out of range for bit width",
            });
        }
        image.pack_row(0, hh, &row);
    }
    r.finish()?;
    let mut key = ModelKey {
        model,
        spec,
        version: None,
    };
    if version > 0 {
        key = key.at_version(version);
    }
    let mut req = Request::new(key, image).tenant(tenant).priority(priority);
    if let Some(d) = deadline {
        req = req.deadline(d);
    }
    Ok((id, req))
}

// ---------------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------------

/// Encode one response payload for correlation `id`.
pub fn encode_response(id: u64, result: &Result<Vec<i32>, ServeError>) -> Vec<u8> {
    let mut w = Writer::new(MSG_RESPONSE);
    w.u64(id);
    match result {
        Ok(logits) => {
            w.u8(0);
            w.u16(logits.len() as u16);
            for &l in logits {
                w.i32(l);
            }
        }
        Err(e) => match e {
            ServeError::UnknownModel(m) => {
                w.u8(1);
                w.str(m);
            }
            ServeError::NotServable(why) => {
                w.u8(2);
                w.str(why);
            }
            ServeError::BadInput(why) => {
                w.u8(3);
                w.str(why);
            }
            ServeError::ShuttingDown => w.u8(4),
            ServeError::UnknownVersion { model, version } => {
                w.u8(6);
                w.str(model);
                w.u32(*version);
            }
            ServeError::Shed { key, tenant } => {
                w.u8(7);
                w.str(key);
                w.str(tenant);
            }
            ServeError::Expired {
                key,
                tenant,
                deadline_ticks,
                waited_ticks,
            } => {
                w.u8(8);
                w.str(key);
                w.str(tenant);
                w.u64(*deadline_ticks);
                w.u64(*waited_ticks);
            }
            ServeError::Cancelled => w.u8(9),
            ServeError::Wire(we) => {
                w.u8(10);
                w.str(&we.to_string());
            }
            ServeError::Poisoned { key, tenant, why } => {
                w.u8(11);
                w.str(key);
                w.str(tenant);
                w.str(why);
            }
        },
    }
    w.buf
}

/// Decode a response payload back into `(id, result)`. Round-trips every
/// [`ServeError`] variant structurally except `Wire`, which arrives as
/// [`WireError::Remote`] (the peer's rendering of its own wire error).
pub fn decode_response(payload: &[u8]) -> Result<(u64, Result<Vec<i32>, ServeError>), WireError> {
    let mut r = Reader::new(payload);
    let msg = r.u8("message type")?;
    if msg != MSG_RESPONSE {
        return Err(WireError::UnknownMessageType(msg));
    }
    let id = r.u64("response id")?;
    let status = r.u8("status")?;
    let result = match status {
        0 => {
            let n = r.u16("logit count")? as usize;
            let mut logits = Vec::with_capacity(n);
            for _ in 0..n {
                logits.push(r.i32("logits")?);
            }
            Ok(logits)
        }
        1 => Err(ServeError::UnknownModel(r.str("model")?)),
        2 => Err(ServeError::NotServable(r.str("reason")?)),
        3 => Err(ServeError::BadInput(r.str("reason")?)),
        4 => Err(ServeError::ShuttingDown),
        6 => Err(ServeError::UnknownVersion {
            model: r.str("model")?,
            version: r.u32("version")?,
        }),
        7 => Err(ServeError::Shed {
            key: r.str("key")?,
            tenant: r.str("tenant")?,
        }),
        8 => Err(ServeError::Expired {
            key: r.str("key")?,
            tenant: r.str("tenant")?,
            deadline_ticks: r.u64("deadline")?,
            waited_ticks: r.u64("waited")?,
        }),
        9 => Err(ServeError::Cancelled),
        10 => Err(ServeError::Wire(WireError::Remote(r.str("reason")?))),
        11 => Err(ServeError::Poisoned {
            key: r.str("key")?,
            tenant: r.str("tenant")?,
            why: r.str("reason")?,
        }),
        _ => {
            return Err(WireError::BadValue {
                context: "response status",
            })
        }
    };
    r.finish()?;
    Ok((id, result))
}

// ---------------------------------------------------------------------------
// Hello codec
// ---------------------------------------------------------------------------

/// Encode a hello payload announcing a stable client identity for
/// idempotent resubmission (see the module docs).
pub fn encode_hello(client_id: u64) -> Vec<u8> {
    let mut w = Writer::new(MSG_HELLO);
    w.u64(client_id);
    w.buf
}

/// Decode a hello payload back into its client id.
pub fn decode_hello(payload: &[u8]) -> Result<u64, WireError> {
    let mut r = Reader::new(payload);
    let msg = r.u8("message type")?;
    if msg != MSG_HELLO {
        return Err(WireError::UnknownMessageType(msg));
    }
    let id = r.u64("client id")?;
    r.finish()?;
    Ok(id)
}

// ---------------------------------------------------------------------------
// TCP server front-end
// ---------------------------------------------------------------------------

/// Handle over a running TCP front-end: the bound address, plus shutdown.
pub struct TcpServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl TcpServeHandle {
    /// The address the listener actually bound (port 0 resolves here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, sever every open connection, and join the I/O
    /// threads. In-queue requests still drain through the batching core —
    /// their responses just have nowhere to go.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for c in conns {
            let _ = c.shutdown(Shutdown::Both);
        }
        let threads =
            std::mem::take(&mut *self.conn_threads.lock().unwrap_or_else(|e| e.into_inner()));
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServeHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Start the TCP front-end for `server` on `addr` (use port 0 for an
/// ephemeral port; read it back from [`TcpServeHandle::addr`]).
///
/// Each connection gets a reader thread (decode frame → submit into the
/// batching core) and a writer thread (await tickets → respond **in
/// submission order**, so a pipelining client sees FIFO responses with
/// matching correlation ids). The reader reads frames through a
/// [`BufReader`], so requests a client pipelines into one segment cost
/// one `read(2)` between them; the writer sends each response as one
/// vectored write ([`write_frame`]). Decode failures inside a well-framed
/// payload are answered with a typed error response; frame-boundary
/// violations close the connection.
pub fn serve_tcp(
    server: Arc<Server>,
    addr: impl ToSocketAddrs,
) -> Result<TcpServeHandle, WireError> {
    let listener = TcpListener::bind(addr).map_err(io_err)?;
    let local = listener.local_addr().map_err(io_err)?;
    listener.set_nonblocking(true).map_err(io_err)?;
    let stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    // Listener-wide: the idempotency ledger spans connections (a
    // reconnecting client must land on its prior identity), and the fault
    // injector is the server's, so one seed drives one schedule.
    let idem = Arc::new(IdemStore::default());
    let faults = server.injector();
    let accept = {
        let (stop, conns, conn_threads) = (
            Arc::clone(&stop),
            Arc::clone(&conns),
            Arc::clone(&conn_threads),
        );
        std::thread::Builder::new()
            .name("apnn-wire-accept".into())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let _ = stream.set_nodelay(true);
                            let _ = stream.set_nonblocking(false);
                            if let Ok(clone) = stream.try_clone() {
                                conns.lock().unwrap_or_else(|e| e.into_inner()).push(clone);
                            }
                            let server = Arc::clone(&server);
                            let idem = Arc::clone(&idem);
                            let faults = Arc::clone(&faults);
                            if let Ok(h) = std::thread::Builder::new()
                                .name("apnn-wire-conn".into())
                                .spawn(move || handle_connection(server, stream, idem, faults))
                            {
                                conn_threads
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .push(h);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => {
                            // Transient accept failure; back off and retry
                            // unless shutting down.
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            })
            .map_err(io_err)?
    };
    Ok(TcpServeHandle {
        addr: local,
        stop,
        accept: Some(accept),
        conns,
        conn_threads,
    })
}

enum Outcome {
    Ticket(Ticket),
    Immediate(ServeError),
}

/// One announced client's idempotency window: the [`Ticket`] behind every
/// remembered request id, FIFO-evicted at [`MAX_IDEM_IDS`].
#[derive(Default)]
struct ClientLedger {
    tickets: HashMap<u64, Ticket>,
    order: VecDeque<u64>,
}

/// The listener-wide idempotency ledger, shared across connections so a
/// client reconnecting lands on its prior identity no matter which
/// connection (and thread) handles it.
#[derive(Default)]
struct IdemStore {
    clients: Mutex<IdemClients>,
}

#[derive(Default)]
struct IdemClients {
    by_id: HashMap<u64, ClientLedger>,
    order: VecDeque<u64>,
}

impl IdemStore {
    /// The remembered ticket for `(client, id)`, if this is a resubmission.
    fn lookup(&self, client: u64, id: u64) -> Option<Ticket> {
        let clients = self.clients.lock().unwrap_or_else(|e| e.into_inner());
        clients.by_id.get(&client)?.tickets.get(&id).cloned()
    }

    /// Remember the ticket behind an accepted `(client, id)`.
    fn record(&self, client: u64, id: u64, ticket: Ticket) {
        let mut clients = self.clients.lock().unwrap_or_else(|e| e.into_inner());
        if !clients.by_id.contains_key(&client) {
            while clients.order.len() >= MAX_IDEM_CLIENTS {
                if let Some(evict) = clients.order.pop_front() {
                    clients.by_id.remove(&evict);
                }
            }
            clients.order.push_back(client);
        }
        let ledger = clients.by_id.entry(client).or_default();
        if ledger.tickets.insert(id, ticket).is_none() {
            ledger.order.push_back(id);
            while ledger.order.len() > MAX_IDEM_IDS {
                if let Some(evict) = ledger.order.pop_front() {
                    ledger.tickets.remove(&evict);
                }
            }
        }
    }
}

fn handle_connection(
    server: Arc<Server>,
    stream: TcpStream,
    idem: Arc<IdemStore>,
    faults: Arc<Injector>,
) {
    let mut read_half = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<(u64, Outcome)>();
    let writer = std::thread::Builder::new()
        .name("apnn-wire-write".into())
        .spawn(move || {
            let mut stream = stream;
            for (id, outcome) in rx {
                let result = match outcome {
                    Outcome::Ticket(t) => t.wait(),
                    Outcome::Immediate(e) => Err(e),
                };
                let mut payload = encode_response(id, &result);
                if faults.fire(FaultSite::WireWriteStall) {
                    std::thread::sleep(faults.stall_for());
                }
                if faults.fire(FaultSite::WireCorrupt) {
                    // Flip the *type* byte: the peer's decoder rejects the
                    // frame outright (the protocol carries no checksum, so
                    // corrupting a logit byte would be silent — structural
                    // corruption stands in for every malformed response).
                    payload[0] ^= 0x55;
                }
                if faults.fire(FaultSite::WireTruncate) {
                    // Announce the full frame, deliver half, sever: the
                    // peer sees EOF mid-frame and must drop the connection.
                    let len = payload.len() as u32;
                    let _ = stream.write_all(&len.to_le_bytes());
                    let _ = stream.write_all(&payload[..payload.len() / 2]);
                    let _ = stream.flush();
                    let _ = stream.shutdown(Shutdown::Both);
                    break;
                }
                if write_frame(&mut stream, &payload).is_err() {
                    // Peer is gone; keep draining tickets so accepted work
                    // still resolves, but stop writing.
                    break;
                }
                if faults.fire(FaultSite::WireDuplicate) {
                    let _ = write_frame(&mut stream, &payload);
                }
                if faults.fire(FaultSite::WireDisconnect) {
                    let _ = stream.shutdown(Shutdown::Both);
                    break;
                }
            }
        });
    // The stable identity this connection announced via a hello frame
    // (None until then: anonymous requests are never deduplicated).
    let mut client_id: Option<u64> = None;
    // Read until clean close, mid-frame EOF, or transport error.
    while let Ok(Some(payload)) = read_frame(&mut read_half) {
        if payload.first() == Some(&MSG_HELLO) {
            match decode_hello(&payload) {
                Ok(cid) => client_id = Some(cid),
                Err(e) => {
                    if tx
                        .send((0, Outcome::Immediate(ServeError::Wire(e))))
                        .is_err()
                    {
                        break;
                    }
                }
            }
            continue;
        }
        match decode_request(&payload) {
            Ok((id, req)) => {
                // Exactly-once across reconnects: a resubmission of an id
                // this client already got accepted re-delivers the original
                // ticket instead of executing again.
                if let Some(cid) = client_id {
                    if let Some(ticket) = idem.lookup(cid, id) {
                        server.note_wire_retry();
                        if tx.send((id, Outcome::Ticket(ticket))).is_err() {
                            break;
                        }
                        continue;
                    }
                }
                let outcome = match server.submit_request(req) {
                    Ok(ticket) => {
                        if let Some(cid) = client_id {
                            idem.record(cid, id, ticket.clone());
                        }
                        Outcome::Ticket(ticket)
                    }
                    Err(e) => Outcome::Immediate(e),
                };
                if tx.send((id, outcome)).is_err() {
                    break;
                }
            }
            Err(e) => {
                // The frame boundary held: answer with a typed error
                // (correlate by id when the prefix was readable) and
                // keep the stream alive.
                let id = recover_request_id(&payload);
                if tx
                    .send((id, Outcome::Immediate(ServeError::Wire(e))))
                    .is_err()
                {
                    break;
                }
            }
        }
    }
    drop(tx);
    if let Ok(w) = writer {
        let _ = w.join();
    }
    // Actively close once the writer has drained: the handle's shutdown
    // registry holds a dup of this socket, so without an explicit shutdown
    // a peer waiting on a dead connection would never see EOF.
    let _ = read_half.get_ref().shutdown(Shutdown::Both);
}

/// Best-effort id extraction from a malformed request payload, so the
/// error response still correlates when the header was intact.
fn recover_request_id(payload: &[u8]) -> u64 {
    if payload.len() >= 9 && payload[0] == MSG_REQUEST {
        u64::from_le_bytes(payload[1..9].try_into().unwrap())
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Socket deadlines for a [`WireClient`] connection. The defaults (30 s
/// each way) are deliberately **on**: a silent peer — accepted connection,
/// no responses — surfaces as [`WireError::TimedOut`] instead of hanging
/// the caller forever. `None` disables a deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTimeouts {
    /// Deadline for each blocking read (awaiting a response frame).
    pub read: Option<Duration>,
    /// Deadline for each blocking write (sending a request frame).
    pub write: Option<Duration>,
}

impl Default for WireTimeouts {
    fn default() -> Self {
        WireTimeouts {
            read: Some(Duration::from_secs(30)),
            write: Some(Duration::from_secs(30)),
        }
    }
}

impl WireTimeouts {
    /// The same deadline for reads and writes.
    pub fn both(d: Duration) -> WireTimeouts {
        WireTimeouts {
            read: Some(d),
            write: Some(d),
        }
    }
}

/// A blocking client over the wire protocol.
///
/// [`WireClient::infer`] is the one-shot path; [`WireClient::send`] /
/// [`WireClient::recv`] pipeline: the server answers in submission order,
/// with each response carrying the id `send` returned. Reads and writes
/// carry the [`WireTimeouts`] deadlines (default 30 s), so a silent peer
/// is a typed [`WireError::TimedOut`], never an indefinite hang. Each
/// request leaves as one vectored write ([`write_frame`]); responses are
/// read through a [`BufReader`] over a clone of the socket, so replies
/// that arrive together are parsed from one `read(2)`. For retries and
/// reconnects, wrap the same protocol in [`RetryClient`].
pub struct WireClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl WireClient {
    /// Connect to a [`serve_tcp`] front-end with the default
    /// [`WireTimeouts`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<WireClient, WireError> {
        Self::connect_with(addr, WireTimeouts::default())
    }

    /// Connect with explicit socket deadlines.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        timeouts: WireTimeouts,
    ) -> Result<WireClient, WireError> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(timeouts.read).map_err(io_err)?;
        stream.set_write_timeout(timeouts.write).map_err(io_err)?;
        let reader = BufReader::new(stream.try_clone().map_err(io_err)?);
        Ok(WireClient {
            stream,
            reader,
            next_id: 1,
        })
    }

    /// Announce a stable client identity for idempotent resubmission:
    /// after this, the server remembers every accepted request id and a
    /// resubmission (same identity, same id — what [`RetryClient`] sends
    /// after a reconnect) re-delivers the original result instead of
    /// executing twice.
    pub fn hello(&mut self, client_id: u64) -> Result<(), WireError> {
        write_frame(&mut self.stream, &encode_hello(client_id))
    }

    /// Send one request under a caller-chosen correlation id (the
    /// resubmission primitive — pair with [`WireClient::hello`]).
    pub fn send_as(&mut self, id: u64, req: &Request) -> Result<u64, WireError> {
        write_frame(&mut self.stream, &encode_request(id, req))?;
        Ok(id)
    }

    /// Send one request; returns its (auto-assigned) correlation id.
    pub fn send(&mut self, req: &Request) -> Result<u64, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_as(id, req)
    }

    /// Receive the next response `(id, result)` in FIFO order.
    pub fn recv(&mut self) -> Result<(u64, Result<Vec<i32>, ServeError>), WireError> {
        match read_frame(&mut self.reader)? {
            Some(payload) => decode_response(&payload),
            None => Err(WireError::Closed),
        }
    }

    /// Send one request and block for its response.
    pub fn infer(&mut self, req: &Request) -> Result<Vec<i32>, ServeError> {
        let id = self.send(req)?;
        loop {
            let (rid, result) = self.recv()?;
            if rid == id {
                return result;
            }
            // A stale response from an earlier pipelined send the caller
            // abandoned; skip it.
        }
    }
}

// ---------------------------------------------------------------------------
// Retrying client
// ---------------------------------------------------------------------------

/// Retry/backoff knobs for a [`RetryClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Socket deadlines for every connection the client opens.
    pub timeouts: WireTimeouts,
    /// Total attempts per request (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base × 2ⁿ` (capped), scaled by a
    /// deterministic jitter in `[50%, 100%]`.
    pub backoff_base: Duration,
    /// Upper bound on the un-jittered backoff.
    pub backoff_cap: Duration,
    /// Seed for the jitter stream (deterministic per client: mixed with
    /// the client id, so a replayed run backs off identically).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeouts: WireTimeouts::default(),
            max_attempts: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            jitter_seed: 0,
        }
    }
}

/// Process-local counter so every [`RetryClient`] in this process gets a
/// distinct identity even within one clock tick.
static CLIENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// A [`WireClient`] wrapped in timeouts, capped-exponential-backoff
/// retries, and reconnect-with-resubmission — **without** double
/// execution: the client announces a stable identity ([`WireClient::hello`])
/// and pins each request's correlation id across attempts, so the server's
/// idempotency ledger re-delivers the original result for any attempt that
/// actually executed before the connection died.
///
/// Wire-level failures (timeout, disconnect, malformed frame) are retried;
/// **server-side results are not** — an `Err([`ServeError::Shed`])` is an
/// answer, not a transport failure. When every attempt fails at the wire,
/// the last wire error surfaces as [`ServeError::Wire`].
pub struct RetryClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    client_id: u64,
    conn: Option<WireClient>,
    next_id: u64,
    retries: u64,
    jitter: u64,
}

impl RetryClient {
    /// Connect lazily to `addr` with the default [`RetryPolicy`] and a
    /// process-derived client identity.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<RetryClient, WireError> {
        Self::with_policy(addr, RetryPolicy::default())
    }

    /// Connect lazily with explicit retry knobs.
    pub fn with_policy(
        addr: impl ToSocketAddrs,
        policy: RetryPolicy,
    ) -> Result<RetryClient, WireError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(io_err)?
            .next()
            .ok_or(WireError::BadValue {
                context: "socket address",
            })?;
        let client_id = (u64::from(std::process::id()) << 32)
            | (CLIENT_SEQ.fetch_add(1, Ordering::Relaxed) + 1);
        let jitter = splitmix64(policy.jitter_seed ^ client_id);
        Ok(RetryClient {
            addr,
            policy,
            client_id,
            conn: None,
            next_id: 1,
            retries: 0,
            jitter,
        })
    }

    /// The stable identity this client announces (diagnostics).
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// How many retry attempts (excluding first tries) this client has
    /// made across all requests.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Send one request and block for its response, retrying wire-level
    /// failures per the policy. The request id is assigned once, before
    /// the first attempt, so every retry is an idempotent resubmission.
    pub fn infer(&mut self, req: &Request) -> Result<Vec<i32>, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut last = WireError::Closed;
        for attempt in 0..self.policy.max_attempts.max(1) {
            if attempt > 0 {
                self.retries += 1;
                std::thread::sleep(self.backoff(attempt - 1));
            }
            match self.attempt(id, req) {
                // A server-side error is an *answer*; only wire-level
                // failures retry.
                Ok(result) => return result,
                Err(e) => {
                    last = e;
                    self.conn = None;
                }
            }
        }
        Err(ServeError::Wire(last))
    }

    fn attempt(
        &mut self,
        id: u64,
        req: &Request,
    ) -> Result<Result<Vec<i32>, ServeError>, WireError> {
        if self.conn.is_none() {
            let mut conn = WireClient::connect_with(self.addr, self.policy.timeouts)?;
            conn.hello(self.client_id)?;
            self.conn = Some(conn);
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        conn.send_as(id, req)?;
        loop {
            let (rid, result) = conn.recv()?;
            if rid == id {
                return Ok(result);
            }
            // A duplicate or stale frame from an earlier attempt's id (the
            // server may redeliver under WireDuplicate faults); skip it.
        }
    }

    /// Deterministic capped exponential backoff: `base × 2ⁿ` up to the
    /// cap, scaled into `[50%, 100%]` by the jitter stream.
    fn backoff(&mut self, n: u32) -> Duration {
        let exp = self.policy.backoff_base.saturating_mul(1u32 << n.min(16));
        let capped = exp.min(self.policy.backoff_cap);
        self.jitter = splitmix64(self.jitter);
        let per_mille = 500 + self.jitter % 501;
        Duration::from_micros((capped.as_micros() as u64).saturating_mul(per_mille) / 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apnn_bitpack::{Layout, Tensor4};

    fn image(seed: u64) -> BitTensor4 {
        let codes = Tensor4::<u32>::from_fn(1, 3, 4, 4, Layout::Nhwc, |_, c, h, w| {
            ((seed as usize + 3 * c + 5 * h + 7 * w) % 256) as u32
        });
        BitTensor4::from_tensor(&codes, 8, Encoding::ZeroOne)
    }

    fn sample_request() -> Request {
        Request::new(
            ModelKey::new("AlexNet-Tiny", NetPrecision::w1a2()).at_version(2),
            image(7),
        )
        .tenant("acme")
        .deadline(48)
        .priority(-3)
    }

    #[test]
    fn request_roundtrip_preserves_every_field_and_code() {
        let req = sample_request();
        let payload = encode_request(99, &req);
        let (id, back) = decode_request(&payload).unwrap();
        assert_eq!(id, 99);
        assert_eq!(back.model_key(), req.model_key());
        assert_eq!(back.tenant_label(), "acme");
        assert_eq!(back.deadline_ticks(), Some(48));
        assert_eq!(back.priority_value(), -3);
        let (a, b) = (req.image_ref(), back.image_ref());
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.bits(), b.bits());
        assert_eq!(a.encoding(), b.encoding());
        let (_, h, w, c) = a.shape();
        for hh in 0..h {
            for ww in 0..w {
                for cc in 0..c {
                    assert_eq!(a.get_code(0, hh, ww, cc), b.get_code(0, hh, ww, cc));
                }
            }
        }
    }

    #[test]
    fn scheduled_and_unpinned_requests_roundtrip() {
        let sched = PrecisionSchedule::new(vec![
            LayerPrecision::new(1, 2),
            LayerPrecision::new(2, 2),
            LayerPrecision::new(1, 1),
        ]);
        let req = Request::new(ModelKey::scheduled("M", sched), image(0));
        let (_, back) = decode_request(&encode_request(1, &req)).unwrap();
        assert_eq!(back.model_key(), req.model_key());
        assert_eq!(back.model_key().version, None, "version 0 = follow active");
        assert_eq!(back.deadline_ticks(), None);
    }

    #[test]
    fn response_roundtrip_ok_and_every_error_class() {
        let cases: Vec<Result<Vec<i32>, ServeError>> = vec![
            Ok(vec![1, -5, 1 << 30]),
            Ok(vec![]),
            Err(ServeError::UnknownModel("M".into())),
            Err(ServeError::NotServable("why".into())),
            Err(ServeError::BadInput("why".into())),
            Err(ServeError::ShuttingDown),
            Err(ServeError::UnknownVersion {
                model: "M".into(),
                version: 9,
            }),
            Err(ServeError::Shed {
                key: "M@APNN-w1a2".into(),
                tenant: "t".into(),
            }),
            Err(ServeError::Expired {
                key: "M@APNN-w1a2".into(),
                tenant: "t".into(),
                deadline_ticks: 8,
                waited_ticks: 12,
            }),
            Err(ServeError::Cancelled),
            Err(ServeError::Poisoned {
                key: "M@APNN-w1a2".into(),
                tenant: "t".into(),
                why: "injected poisoned request (fault-inject)".into(),
            }),
        ];
        for (i, case) in cases.iter().enumerate() {
            let (id, back) = decode_response(&encode_response(i as u64, case)).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(&back, case, "case {i}");
        }
        // Wire errors survive as Remote (the peer's rendering).
        let wire = Err(ServeError::Wire(WireError::UnknownMessageType(7)));
        let (_, back) = decode_response(&encode_response(0, &wire)).unwrap();
        assert!(matches!(back, Err(ServeError::Wire(WireError::Remote(_)))));
    }

    #[test]
    fn every_truncation_is_a_typed_error_never_a_panic() {
        let req = encode_request(3, &sample_request());
        let resp = encode_response(3, &Ok(vec![1, 2, 3]));
        for payload in [&req, &resp] {
            for cut in 0..payload.len() {
                let truncated = &payload[..cut];
                let outcome = if payload[0] == MSG_REQUEST {
                    decode_request(truncated).map(|_| ())
                } else {
                    decode_response(truncated).map(|_| ())
                };
                assert!(
                    matches!(outcome, Err(WireError::UnexpectedEof { .. })),
                    "cut at {cut}: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn malformed_fields_are_typed_errors() {
        // Unknown message type.
        assert_eq!(
            decode_request(&[9]).unwrap_err(),
            WireError::UnknownMessageType(9)
        );
        // Response parsed as request and vice versa.
        let resp = encode_response(1, &Ok(vec![]));
        assert!(matches!(
            decode_request(&resp).unwrap_err(),
            WireError::UnknownMessageType(MSG_RESPONSE)
        ));
        // Bad spec kind.
        let mut bad = encode_request(1, &sample_request());
        // id(8) + type(1) + "AlexNet-Tiny"(2+12) = offset 23 is spec kind.
        bad[23] = 7;
        assert!(matches!(
            decode_request(&bad).unwrap_err(),
            WireError::BadValue {
                context: "spec kind"
            }
        ));
        // Unassigned response statuses: type(1) + id(8) = offset 9.
        let mut bad = encode_response(1, &Err(ServeError::ShuttingDown));
        for status in [5, 12] {
            bad[9] = status;
            assert_eq!(
                decode_response(&bad).unwrap_err(),
                WireError::BadValue {
                    context: "response status"
                }
            );
        }
        // Trailing garbage.
        let mut long = encode_request(1, &sample_request());
        long.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            decode_request(&long).unwrap_err(),
            WireError::TrailingBytes { extra: 3 }
        );
        // Out-of-range image code for the declared bit width.
        let narrow = Request::new(
            ModelKey::new("M", NetPrecision::w1a2()),
            BitTensor4::zeros(1, 1, 1, 1, 2, Encoding::ZeroOne),
        );
        let mut payload = encode_request(1, &narrow);
        let n = payload.len();
        payload[n - 4..].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            decode_request(&payload).unwrap_err(),
            WireError::BadValue { .. }
        ));
    }

    #[test]
    fn frame_roundtrip_and_violations() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
        // Oversized announced length.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut &huge[..]).unwrap_err(),
            WireError::FrameTooLarge { .. }
        ));
        // EOF inside the length prefix.
        assert!(matches!(
            read_frame(&mut &[1u8, 0][..]).unwrap_err(),
            WireError::UnexpectedEof {
                context: "frame length"
            }
        ));
        // EOF inside the payload.
        let mut short = Vec::new();
        short.extend_from_slice(&10u32.to_le_bytes());
        short.extend_from_slice(b"abc");
        assert!(matches!(
            read_frame(&mut &short[..]).unwrap_err(),
            WireError::UnexpectedEof {
                context: "frame payload"
            }
        ));
    }

    #[test]
    fn frame_len_saturates_instead_of_wrapping() {
        assert_eq!(frame_len(0), Ok(0));
        assert_eq!(frame_len(MAX_FRAME as usize), Ok(MAX_FRAME));
        assert_eq!(
            frame_len(MAX_FRAME as usize + 1),
            Err(WireError::FrameTooLarge { len: MAX_FRAME + 1 })
        );
        #[cfg(target_pointer_width = "64")]
        for len in [1usize << 32, (1usize << 32) + 5] {
            // `len as u32` would announce 0 and 5 bytes.
            assert_eq!(
                frame_len(len),
                Err(WireError::FrameTooLarge { len: u32::MAX })
            );
        }
    }

    /// A `Write` that counts its calls by kind and keeps what it accepted:
    /// at most `max` bytes per call, and `Interrupted` instead on the call
    /// numbered `interrupt_at` (0-based).
    struct MockWriter {
        bytes: Vec<u8>,
        writes: usize,
        vectored: usize,
        max: usize,
        interrupt_at: Option<usize>,
    }

    impl MockWriter {
        fn new(max: usize, interrupt_at: Option<usize>) -> Self {
            MockWriter {
                bytes: Vec::new(),
                writes: 0,
                vectored: 0,
                max,
                interrupt_at,
            }
        }

        fn accept(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if self.interrupt_at == Some(self.writes + self.vectored - 1) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.max - n);
                self.bytes.extend_from_slice(&b[..take]);
                n += take;
            }
            Ok(n)
        }
    }

    impl Write for MockWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.accept(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored += 1;
            self.accept(bufs)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_frame_is_one_vectored_write_of_prefix_then_payload() {
        let payload = encode_request(5, &sample_request());
        let mut w = MockWriter::new(usize::MAX, None);
        write_frame(&mut w, &payload).unwrap();
        assert_eq!((w.vectored, w.writes), (1, 0));
        let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&payload);
        assert_eq!(w.bytes, expected);
    }

    #[test]
    fn short_and_interrupted_writes_still_round_trip() {
        let mut w = MockWriter::new(3, Some(1));
        write_frame(&mut w, b"ten bytes!").unwrap();
        write_frame(&mut w, b"").unwrap();
        // 14 + 4 bytes at up to 3 per call is 5 + 2 calls, plus the
        // interrupted one.
        assert_eq!((w.vectored, w.writes), (8, 0));
        let mut cursor = &w.bytes[..];
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"ten bytes!");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn a_writer_that_accepts_nothing_is_an_error_not_a_hang() {
        let mut w = MockWriter::new(0, None);
        assert!(matches!(
            write_frame(&mut w, b"payload"),
            Err(WireError::Io(_))
        ));
        assert_eq!(w.vectored, 1);
    }

    #[test]
    fn buffered_reads_split_pipelined_frames_at_their_boundaries() {
        let big: Vec<u8> = (0..20_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut buf = Vec::new();
        for payload in [&b"first"[..], &big, b""] {
            write_frame(&mut buf, payload).unwrap();
        }
        // A tiny buffer makes prefixes straddle refills; the default one
        // holds the first frame and the head of the second.
        for capacity in [7, 8 * 1024] {
            let mut r = BufReader::with_capacity(capacity, std::io::Cursor::new(&buf));
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"first");
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), big);
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
            assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        }
        let mut cut = BufReader::new(std::io::Cursor::new(&buf[..9 + 100]));
        assert_eq!(read_frame(&mut cut).unwrap().unwrap(), b"first");
        assert!(matches!(
            read_frame(&mut cut).unwrap_err(),
            WireError::UnexpectedEof {
                context: "frame payload"
            }
        ));
    }

    #[test]
    fn recovered_ids_correlate_when_the_header_survives() {
        let payload = encode_request(42, &sample_request());
        assert_eq!(recover_request_id(&payload), 42);
        assert_eq!(recover_request_id(&payload[..5]), 0);
        assert_eq!(recover_request_id(&[]), 0);
    }

    #[test]
    fn hello_roundtrip_and_rejections() {
        let payload = encode_hello(0xDEAD_BEEF_0000_0042);
        assert_eq!(decode_hello(&payload).unwrap(), 0xDEAD_BEEF_0000_0042);
        assert!(matches!(
            decode_hello(&payload[..4]),
            Err(WireError::UnexpectedEof { .. })
        ));
        let mut long = payload.clone();
        long.push(0);
        assert_eq!(
            decode_hello(&long).unwrap_err(),
            WireError::TrailingBytes { extra: 1 }
        );
        assert!(matches!(
            decode_hello(&[MSG_REQUEST]),
            Err(WireError::UnknownMessageType(MSG_REQUEST))
        ));
    }

    #[test]
    fn read_timeout_surfaces_a_silent_server_as_timed_out() {
        // An accept-only peer: takes the connection, never responds. The
        // default-on read deadline must turn the would-be-forever hang
        // into a typed TimedOut.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut client =
            WireClient::connect_with(addr, WireTimeouts::both(Duration::from_millis(50))).unwrap();
        let err = client.infer(&sample_request()).unwrap_err();
        assert_eq!(err, ServeError::Wire(WireError::TimedOut));
        drop(hold.join());
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(80),
            jitter_seed: 7,
            ..RetryPolicy::default()
        };
        let mut a = RetryClient::with_policy("127.0.0.1:1", policy).unwrap();
        let mut b = RetryClient::with_policy("127.0.0.1:1", policy).unwrap();
        // Different client ids → different jitter streams; same id+seed
        // replays identically (rebuild with a pinned stream instead).
        let seq_a: Vec<Duration> = (0..6).map(|n| a.backoff(n)).collect();
        for (n, d) in seq_a.iter().enumerate() {
            let cap = Duration::from_millis(80).min(Duration::from_millis(10) * (1 << n));
            assert!(*d <= cap, "backoff {n} = {d:?} above cap {cap:?}");
            assert!(*d >= cap / 2, "backoff {n} = {d:?} below half the cap");
        }
        let _ = b.backoff(0);
        assert_ne!(a.client_id(), b.client_id(), "identities are distinct");
        assert_eq!(a.retries(), 0, "backoff alone is not a retry");
    }
}
