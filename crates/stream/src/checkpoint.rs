//! The durability plane: a versioned byte codec for hub state.
//!
//! A hub serving long-lived standing queries restarts, upgrades, and
//! rebalances; all three need the accumulated window state to survive.
//! This module defines the **checkpoint format** — a hand-rolled,
//! dependency-free byte codec with explicit versioning — and the traits
//! that let every layer of the serving plane write itself into it:
//!
//! * [`Encoder`]/[`Decoder`] — little-endian primitives, length-framed
//!   sections, and sequence helpers with allocation guards;
//! * [`EncodeState`]/[`DecodeState`] — the value-object layer
//!   ([`Object`], [`TimedObject`], [`Snapshot`]);
//! * [`EngineFactory`] — rebuilds engines by registered name on restore
//!   (a checkpoint stores *state*, not code). Engines carry no checkpoint
//!   bytes of their own: every engine is a deterministic exact top-k
//!   function of its window, so a session or consumer writes its retained
//!   raw window and a restore *replays* it into a fresh engine,
//!   reproducing every future emission byte-for-byte;
//! * [`Checkpoint`] — the framed artifact: magic, format version,
//!   payload, trailing FNV-1a checksum. Unknown magic, other versions,
//!   truncation, bit flips, and malformed payloads all surface as typed
//!   [`CheckpointError`]s — never a panic.
//!
//! What a checkpoint captures: session windows and pending buffers,
//! emitted-slide counters, previous snapshots (for delta continuity),
//! digest-group producers, and sharing counters. What it does not:
//! operation statistics ([`OpStats`](crate::metrics::OpStats) restart at
//! zero) and engine tuning knobs not implied by the engine name (restored
//! engines use their defaults — output-identical because every engine is
//! exact).
//!
//! The format version is bumped whenever the payload layout changes;
//! readers reject versions they do not know
//! ([`CheckpointError::UnsupportedVersion`]) rather than guessing. This
//! build writes format 4 and also reads format 3, whose isolated
//! sessions (session kinds 0 and 1) it restores as members of their
//! count and slide groups.
//!
//! ```
//! use sap_stream::checkpoint::EngineFactory;
//! use sap_stream::session::Hub;
//! use sap_stream::{Ingest, Object, Registration, SapError, SlidingTopK, WindowSpec};
//! # use sap_stream::metrics::OpStats;
//! # use sap_stream::object::top_k_of;
//! # struct Toy { spec: WindowSpec, window: Vec<Object>, result: Vec<Object> }
//! # impl Toy { fn new(spec: WindowSpec) -> Self { Toy { spec, window: Vec::new(), result: Vec::new() } } }
//! # impl SlidingTopK for Toy {
//! #     fn spec(&self) -> WindowSpec { self.spec }
//! #     fn slide(&mut self, batch: &[Object]) -> &[Object] {
//! #         self.window.extend_from_slice(batch);
//! #         let excess = self.window.len().saturating_sub(self.spec.n);
//! #         self.window.drain(..excess);
//! #         self.result = top_k_of(&self.window, self.spec.k);
//! #         &self.result
//! #     }
//! #     fn candidate_count(&self) -> usize { self.window.len() }
//! #     fn memory_bytes(&self) -> usize { 0 }
//! #     fn stats(&self) -> OpStats { OpStats::default() }
//! #     fn name(&self) -> &str { "toy" }
//! # }
//! # struct ToyFactory;
//! # impl EngineFactory for ToyFactory {
//! #     fn count(&self, name: &str, spec: WindowSpec) -> Result<Box<dyn SlidingTopK + Send>, SapError> {
//! #         match name {
//! #             "toy" => Ok(Box::new(Toy::new(spec))),
//! #             other => Err(SapError::checkpoint_unknown_engine(other)),
//! #         }
//! #     }
//! # }
//! let mut hub = Hub::new();
//! // ⟨n = 4, k = 2, s = 2⟩: with k ≥ s the engine runs the query's own spec
//! let spec = WindowSpec::new(4, 2, 2).unwrap();
//! let q = hub.subscribe(Registration::grouped(Box::new(Toy::new(spec.reduced())), 4, 2)).unwrap();
//!
//! // run half the stream, then checkpoint
//! let objects: Vec<Object> = (0..6).map(|i| Object::new(i, i as f64)).collect();
//! hub.publish(&objects);
//! let ckpt = hub.checkpoint();
//!
//! // the artifact round-trips through raw bytes (a file, a blob store…)
//! let bytes = ckpt.as_bytes().to_vec();
//! let ckpt = sap_stream::checkpoint::Checkpoint::from_bytes(&bytes).unwrap();
//! let mut restored = Hub::restore(&ckpt, &ToyFactory).unwrap();
//!
//! // both hubs now emit byte-identical results for the rest of the stream
//! let tail: Vec<Object> = (6..10).map(|i| Object::new(i, 1.0)).collect();
//! assert_eq!(hub.publish(&tail), restored.publish(&tail));
//! assert_eq!(hub.session(q).unwrap().last_snapshot(),
//!            restored.session(q).unwrap().last_snapshot());
//! ```

use crate::events::Snapshot;
use crate::object::{Object, TimedObject};
use crate::query::SapError;
use crate::window::{SlidingTopK, WindowSpec};

/// Leading magic bytes of every checkpoint artifact.
pub const MAGIC: [u8; 8] = *b"SAPCKPT\0";

/// The payload layout version this build writes. Bumped on any layout
/// change: version 3 added the admission plane (per-group predicates,
/// explicit count-group ordinals, and the ADMISSION counter section);
/// version 4 serves every count query on the arrival clock, so a count
/// member's consumer ring holds `min(k, s)` slots per slide, no session
/// has kind 0, and `COUNTERS` lost its isolated-rebuild slot. This build
/// also reads version 3; other versions are rejected with
/// [`CheckpointError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 4;

/// The oldest payload layout this build reads.
const OLDEST_READ_VERSION: u32 = 3;

/// Section tags of the payload layout (crate-internal; the framing
/// itself is what [`Encoder::section`] exposes publicly).
pub(crate) mod tags {
    /// One registry's full state (one per shard in a sharded checkpoint).
    pub const REGISTRY: u8 = 1;
    /// The sessions of one registry.
    pub const SESSIONS: u8 = 2;
    /// The event-clock groups of one registry.
    pub const GROUPS: u8 = 3;
    /// The digest sharing counters of one registry.
    pub const COUNTERS: u8 = 4;
    /// One session's framed engine state: a group member's consumer
    /// window (format 3's kind 1 also framed its adapter's producer).
    pub const ENGINE: u8 = 5;
    /// The arrival-clock groups of one registry (since version 2).
    pub const COUNT_GROUPS: u8 = 6;
    /// The admission-plane counters of one registry (version 3).
    pub const ADMISSION: u8 = 7;
}

/// Decode-side sanity bound on a restored query's window dimension `n`
/// (applied to count specs and to the Appendix-A reduction of timed
/// specs). Sessions allocate ring buffers proportional to `n`, so the
/// originating hub demonstrably *held* that much memory when the
/// checkpoint was written — a claimed dimension past this bound is
/// corrupt bytes (e.g. a flipped high bit in a length field), rejected
/// with a typed error before it can reach an allocator and abort.
pub const MAX_RESTORED_WINDOW: usize = 1 << 30;

/// FNV-1a 64-bit hash — the checkpoint's integrity checksum. Public so
/// tests (and external tooling) can frame or verify payloads themselves.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Why a checkpoint could not be decoded. Carried by
/// [`SapError::Checkpoint`]; every malformed input maps to one of these —
/// decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes do not start with [`MAGIC`]: not a checkpoint at all.
    BadMagic,
    /// The artifact was written by a layout this build does not know
    /// (usually: a newer one).
    UnsupportedVersion {
        /// The version the artifact claims.
        found: u32,
        /// The newest version this build reads (the one it writes).
        supported: u32,
    },
    /// The input ended before a field it promised.
    Truncated,
    /// The trailing FNV-1a checksum does not match the content —
    /// bit rot, a torn write, or tampering.
    ChecksumMismatch,
    /// The frame decoded, but a field violates an invariant of the state
    /// it claims to describe.
    Corrupt(&'static str),
    /// The checkpoint names an engine the [`EngineFactory`] cannot build.
    UnknownEngine(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint: bad magic bytes"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint format version {found} not supported \
                 (this build reads {OLDEST_READ_VERSION} through {supported})"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint checksum mismatch (corrupted bytes)")
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::UnknownEngine(name) => {
                write!(
                    f,
                    "checkpoint names engine {name:?}, which the factory cannot build"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CheckpointError> for SapError {
    fn from(e: CheckpointError) -> Self {
        SapError::Checkpoint(e)
    }
}

/// Little-endian byte writer with length-framed sections.
///
/// All integers are written LE; `f64` through its IEEE-754 bit pattern,
/// so encode→decode is exact for every finite score.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the format is width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` via its bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed sequence of encodable values.
    pub fn put_seq<T: EncodeState>(&mut self, items: &[T]) {
        self.put_u64(items.len() as u64);
        for item in items {
            item.encode_state(self);
        }
    }

    /// Writes a tagged, length-framed section: `tag (u8)`, `len (u64)`,
    /// then whatever `f` writes. Framing lets a reader skip or isolate a
    /// section without understanding its interior — the hook that keeps
    /// partial decoding (and future section additions) possible.
    pub fn section(&mut self, tag: u8, f: impl FnOnce(&mut Encoder)) {
        self.put_u8(tag);
        let patch = self.buf.len();
        self.put_u64(0);
        f(self);
        let len = (self.buf.len() - patch - 8) as u64;
        self.buf[patch..patch + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Splices an already-encoded fragment into this payload — how the
    /// async hub assembles the sections its shards framed on their
    /// worker threads. The fragment must itself be valid section-framed payload;
    /// nothing re-validates it here.
    pub(crate) fn put_encoded(&mut self, fragment: &[u8]) {
        self.buf.extend_from_slice(fragment);
    }

    /// Consumes the encoder, returning the raw (unframed) payload.
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Bounds-checked little-endian reader over a payload slice.
///
/// Every `take_*` returns [`CheckpointError::Truncated`] instead of
/// reading past the end; sequence lengths are validated against the
/// remaining input before any allocation, so a malicious length cannot
/// trigger an outsized `Vec::with_capacity`.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `payload`, positioned at the start.
    pub fn new(payload: &'a [u8]) -> Self {
        Decoder {
            buf: payload,
            pos: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the input is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take_bytes(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn take_usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| CheckpointError::Corrupt("size does not fit in usize"))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, CheckpointError> {
        let len = self.take_usize()?;
        let bytes = self.take_bytes(len)?;
        std::str::from_utf8(bytes).map_err(|_| CheckpointError::Corrupt("string is not UTF-8"))
    }

    /// Reads a sequence length, rejecting lengths that cannot possibly
    /// fit in the remaining input (each element costs ≥ 1 byte) — the
    /// allocation guard every `take_seq`-style loop goes through.
    pub fn take_seq_len(&mut self) -> Result<usize, CheckpointError> {
        let len = self.take_usize()?;
        if len > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        Ok(len)
    }

    /// Reads a length-prefixed sequence of decodable values.
    pub fn take_seq<T: DecodeState>(&mut self) -> Result<Vec<T>, CheckpointError> {
        let len = self.take_seq_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode_state(self)?);
        }
        Ok(out)
    }

    /// Reads a tagged, length-framed section header (written by
    /// [`Encoder::section`]) and returns a sub-decoder confined to its
    /// body; the parent decoder skips past it.
    pub fn section(&mut self, expected_tag: u8) -> Result<Decoder<'a>, CheckpointError> {
        let tag = self.take_u8()?;
        if tag != expected_tag {
            return Err(CheckpointError::Corrupt("unexpected section tag"));
        }
        let len = self.take_usize()?;
        Ok(Decoder::new(self.take_bytes(len)?))
    }

    /// Asserts the input is fully consumed — a section with trailing
    /// bytes means the writer and reader disagree about the layout.
    pub fn finish(&self) -> Result<(), CheckpointError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt("trailing bytes after section"))
        }
    }
}

/// A value that can write itself into an [`Encoder`].
pub trait EncodeState {
    /// Appends this value's canonical byte form.
    fn encode_state(&self, enc: &mut Encoder);
}

/// A value that can rebuild itself from a [`Decoder`].
pub trait DecodeState: Sized {
    /// Reads one value, validating its invariants.
    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError>;
}

impl EncodeState for Object {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.id);
        enc.put_f64(self.score);
    }
}

impl DecodeState for Object {
    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        let id = dec.take_u64()?;
        let score = dec.take_f64()?;
        if !score.is_finite() {
            return Err(CheckpointError::Corrupt("non-finite object score"));
        }
        Ok(Object { id, score })
    }
}

impl EncodeState for TimedObject {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.put_u64(self.id);
        enc.put_u64(self.timestamp);
        enc.put_f64(self.score);
    }
}

impl DecodeState for TimedObject {
    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        let id = dec.take_u64()?;
        let timestamp = dec.take_u64()?;
        let score = dec.take_f64()?;
        if !score.is_finite() {
            return Err(CheckpointError::Corrupt("non-finite object score"));
        }
        Ok(TimedObject {
            id,
            timestamp,
            score,
        })
    }
}

impl EncodeState for Snapshot {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.put_seq(self.as_slice());
    }
}

impl DecodeState for Snapshot {
    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        let objects: Vec<Object> = dec.take_seq()?;
        Ok(Snapshot::from_slice(&objects))
    }
}

/// Rebuilds engines by name on restore.
///
/// A checkpoint stores the *name* each engine reported through
/// [`SlidingTopK::name`] plus its query spec — not code. A time-based
/// query's engine is count-based too: it answers the Appendix-A
/// reduction of the query's durations. Restoring maps the name back to a fresh engine; the facade
/// crate ships a factory covering every engine in the workspace, and
/// embedders with custom engines supply their own (names the factory
/// does not know must return
/// [`CheckpointError::UnknownEngine`] via [`SapError::Checkpoint`]).
pub trait EngineFactory {
    /// Builds a fresh count-based engine for `name` over `spec`.
    fn count(&self, name: &str, spec: WindowSpec) -> Result<Box<dyn SlidingTopK + Send>, SapError>;
}

impl SapError {
    /// The canonical "factory does not know this engine" error — what an
    /// [`EngineFactory`] returns for a name it cannot build.
    pub fn checkpoint_unknown_engine(name: &str) -> SapError {
        SapError::Checkpoint(CheckpointError::UnknownEngine(name.to_owned()))
    }
}

/// A framed checkpoint artifact: [`MAGIC`], [`FORMAT_VERSION`], payload,
/// trailing [`fnv1a`] checksum — self-describing bytes safe to hand to a
/// file, a socket, or a blob store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    bytes: Vec<u8>,
}

/// Frame overhead: magic + version + checksum.
const FRAME_BYTES: usize = 8 + 4 + 8;

impl Checkpoint {
    /// Frames a payload written by this build: prepends magic and
    /// version, appends the checksum.
    pub(crate) fn from_payload(payload: Vec<u8>) -> Checkpoint {
        let mut bytes = Vec::with_capacity(payload.len() + FRAME_BYTES);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&payload);
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        Checkpoint { bytes }
    }

    /// Validates and adopts raw bytes: magic, then version, then
    /// checksum, in that order — so a version from the future is reported
    /// as [`CheckpointError::UnsupportedVersion`] even though this build
    /// cannot parse its payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < FRAME_BYTES {
            if bytes.len() >= 8 && bytes[..8] != MAGIC {
                return Err(CheckpointError::BadMagic);
            }
            return Err(CheckpointError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if !(OLDEST_READ_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let body = &bytes[..bytes.len() - 8];
        let claimed = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        if fnv1a(body) != claimed {
            return Err(CheckpointError::ChecksumMismatch);
        }
        Ok(Checkpoint {
            bytes: bytes.to_vec(),
        })
    }

    /// The full framed artifact.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total artifact size in bytes (frame included).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the payload is empty (the frame never is).
    pub fn is_empty(&self) -> bool {
        self.bytes.len() == FRAME_BYTES
    }

    /// The payload layout version this artifact was written under: 3 or
    /// [`FORMAT_VERSION`] for any value
    /// [`from_bytes`](Checkpoint::from_bytes) accepted.
    pub fn version(&self) -> u32 {
        u32::from_le_bytes(self.bytes[8..12].try_into().unwrap())
    }

    /// The payload between frame header and checksum.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.bytes[12..self.bytes.len() - 8]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX - 3);
        enc.put_f64(-0.125);
        enc.put_str("naïve");
        let payload = enc.into_payload();

        let mut dec = Decoder::new(&payload);
        assert_eq!(dec.take_u8().unwrap(), 7);
        assert_eq!(dec.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(dec.take_f64().unwrap(), -0.125);
        assert_eq!(dec.take_str().unwrap(), "naïve");
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn values_round_trip() {
        let snap = Snapshot::from_slice(&[Object::new(3, 9.5), Object::new(1, 2.0)]);
        let timed = TimedObject::new(9, 44, 7.25);
        let mut enc = Encoder::new();
        snap.encode_state(&mut enc);
        timed.encode_state(&mut enc);
        let payload = enc.into_payload();

        let mut dec = Decoder::new(&payload);
        assert_eq!(Snapshot::decode_state(&mut dec).unwrap(), snap);
        assert_eq!(TimedObject::decode_state(&mut dec).unwrap(), timed);
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn sections_frame_and_isolate() {
        let mut enc = Encoder::new();
        enc.section(1, |e| e.put_u64(42));
        enc.section(2, |e| e.put_str("after"));
        let payload = enc.into_payload();

        let mut dec = Decoder::new(&payload);
        let mut s1 = dec.section(1).unwrap();
        assert_eq!(s1.take_u64().unwrap(), 42);
        assert!(s1.finish().is_ok());
        let mut s2 = dec.section(2).unwrap();
        assert_eq!(s2.take_str().unwrap(), "after");
        assert!(dec.finish().is_ok());

        let mut dec = Decoder::new(&payload);
        assert_eq!(
            dec.section(9).unwrap_err(),
            CheckpointError::Corrupt("unexpected section tag")
        );
    }

    #[test]
    fn frame_rejects_foreign_bytes() {
        let ckpt = Checkpoint::from_payload(vec![1, 2, 3]);
        assert_eq!(Checkpoint::from_bytes(ckpt.as_bytes()).unwrap(), ckpt);

        // not a checkpoint at all
        assert_eq!(
            Checkpoint::from_bytes(b"definitely-not-a-checkpoint"),
            Err(CheckpointError::BadMagic)
        );
        // too short to even carry the frame
        assert_eq!(
            Checkpoint::from_bytes(&ckpt.as_bytes()[..5]),
            Err(CheckpointError::Truncated)
        );
        // any single bit flip trips the checksum (or the magic/version)
        let mut bent = ckpt.as_bytes().to_vec();
        bent[13] ^= 0x40;
        assert!(Checkpoint::from_bytes(&bent).is_err());

        // version 3 is still read; a future version, and the retired
        // version 2, are refused by name, checksum intact
        let mut old = ckpt.as_bytes()[..ckpt.len() - 8].to_vec();
        old[8..12].copy_from_slice(&3u32.to_le_bytes());
        let sum = fnv1a(&old);
        old.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(Checkpoint::from_bytes(&old).map(|c| c.version()), Ok(3));
        for version in [FORMAT_VERSION + 1, 2] {
            let mut reframed = ckpt.as_bytes()[..ckpt.len() - 8].to_vec();
            reframed[8..12].copy_from_slice(&version.to_le_bytes());
            let sum = fnv1a(&reframed);
            reframed.extend_from_slice(&sum.to_le_bytes());
            assert_eq!(
                Checkpoint::from_bytes(&reframed),
                Err(CheckpointError::UnsupportedVersion {
                    found: version,
                    supported: FORMAT_VERSION,
                })
            );
        }
    }

    #[test]
    fn seq_length_is_guarded() {
        // a claimed length far past the remaining input must fail before
        // allocating, not OOM
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX / 2);
        let payload = enc.into_payload();
        let mut dec = Decoder::new(&payload);
        assert_eq!(
            dec.take_seq::<Object>().unwrap_err(),
            CheckpointError::Truncated
        );
    }
}
