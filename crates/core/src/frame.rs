//! CRC-protected length-prefixed framing, shared by the divergence journal,
//! the variant snapshots and the remote replication wire protocol.
//!
//! Every consumer speaks the same frame layout, all little-endian:
//!
//! ```text
//! frame : body_len u32 | crc32(body) u32 | body
//! ```
//!
//! The CRC is the standard reflected CRC-32 (polynomial `0xEDB88320`), so a
//! torn write, a flipped bit or a truncated stream surfaces as a typed
//! error instead of silently wrong bytes.  The journal walks frames over an
//! in-memory slice ([`next_frame`]); the wire protocol pulls them off a
//! blocking byte stream ([`FrameReader`]).  Extracting the codec here keeps
//! the consumers from drifting: one encoder ([`push_frame_with`]), one CRC,
//! one framing discipline.
//!
//! ## What is hot, and what each piece guarantees
//!
//! A journaled call appends five to six frames and a remote call ships and
//! acknowledges as many, so all three pieces sit on the per-call path:
//!
//! * [`crc32`] is slice-by-8 over tables built at compile time.  Polynomial,
//!   initial value and final inversion are the ones the bitwise loop it
//!   replaced computed, so every stored journal, snapshot and wire fixture
//!   reads back unchanged and no format version moved.
//! * [`push_frame_with`] encodes in place: it reserves the 8-byte prefix in
//!   the destination, lets the caller append the body right behind it and
//!   then patches `body_len | crc` — no scratch body, no second copy.
//!   [`push_frame`] is the same encoder for a body that already exists.
//! * [`FrameReader`] keeps one buffer, takes whatever the stream hands over
//!   per `read` and splits frames out of it, so a burst of frames the writer
//!   coalesced into one `write` costs one `read`, not two per frame.  It
//!   makes the checks an unbuffered reader makes, in the same order: the
//!   length prefix is bounded by [`MAX_FRAME_BODY`] before the buffer grows
//!   for it, the CRC is verified before a body is returned, a clean end of
//!   stream is only an EOF with nothing buffered, and `Interrupted` reads
//!   are retried.

use std::fmt;
use std::io::{self, Read};

/// Bytes of frame overhead preceding every body (`body_len` + CRC).
pub const FRAME_OVERHEAD: usize = 8;

/// Upper bound a stream reader accepts for one frame body.  A corrupt or
/// adversarial length prefix otherwise turns into an unbounded allocation;
/// no legitimate journal or wire record comes anywhere near this.
pub const MAX_FRAME_BODY: usize = 1 << 20;

/// The reflected CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables: `CRC_TABLES[k][b]` is the CRC state after
/// byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// Reflected CRC-32 (polynomial `0xEDB88320`, CRC-32/ISO-HDLC), eight bytes
/// per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Appends one `body_len | crc | body` frame to `buf`, the body written in
/// place: `encode` receives `buf` with the prefix already reserved and must
/// only append to it.
pub fn push_frame_with(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let prefix = buf.len();
    buf.extend_from_slice(&[0u8; FRAME_OVERHEAD]);
    encode(buf);
    let (head, body) = buf[prefix..].split_at_mut(FRAME_OVERHEAD);
    head[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(body).to_le_bytes());
}

/// Appends one `body_len | crc | body` frame to `buf`.
pub fn push_frame(buf: &mut Vec<u8>, body: &[u8]) {
    push_frame_with(buf, |buf| buf.extend_from_slice(body));
}

/// Why a frame could not be split off a byte slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The slice ends mid-frame (inside the 8-byte prefix or the body).
    Truncated {
        /// Byte offset of the frame whose bytes ran out.
        offset: usize,
    },
    /// The frame's CRC does not match its body.
    Corrupt {
        /// Byte offset of the bad frame.
        offset: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { offset } => {
                write!(f, "frame truncated at byte {offset}")
            }
            FrameError::Corrupt { offset } => {
                write!(f, "frame at byte {offset} fails its CRC")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Splits one frame off `bytes` at `offset`.
///
/// Returns the CRC-verified body and the offset of the next frame, or
/// `Ok(None)` when `offset` sits exactly at the end of the slice (a clean
/// end of stream).  Anything else — a partial prefix, a partial body, a CRC
/// mismatch — is a typed [`FrameError`].
pub fn next_frame(bytes: &[u8], offset: usize) -> Result<Option<(&[u8], usize)>, FrameError> {
    if offset == bytes.len() {
        return Ok(None);
    }
    if bytes.len() - offset < FRAME_OVERHEAD {
        return Err(FrameError::Truncated { offset });
    }
    let body_len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().unwrap());
    if bytes.len() - offset - FRAME_OVERHEAD < body_len {
        return Err(FrameError::Truncated { offset });
    }
    let body = &bytes[offset + FRAME_OVERHEAD..offset + FRAME_OVERHEAD + body_len];
    if crc32(body) != crc {
        return Err(FrameError::Corrupt { offset });
    }
    Ok(Some((body, offset + FRAME_OVERHEAD + body_len)))
}

/// Why a [`FrameReader`] could not produce the next frame.
#[derive(Debug)]
pub enum ReadFrameError {
    /// The stream ended mid-frame (a torn connection or truncated write).
    Truncated,
    /// The frame's CRC does not match its body.
    Corrupt,
    /// The length prefix exceeds [`MAX_FRAME_BODY`] — treated as stream
    /// corruption rather than an allocation request.
    Oversized {
        /// The claimed body length.
        len: usize,
    },
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for ReadFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadFrameError::Truncated => write!(f, "stream ended mid-frame"),
            ReadFrameError::Corrupt => write!(f, "frame fails its CRC"),
            ReadFrameError::Oversized { len } => {
                write!(f, "frame claims {len} body bytes (max {MAX_FRAME_BODY})")
            }
            ReadFrameError::Io(err) => write!(f, "transport error: {err}"),
        }
    }
}

impl std::error::Error for ReadFrameError {}

/// Initial size of a [`FrameReader`]'s buffer: room for a few hundred
/// call-sized wire records, so one `read` drains whatever burst the peer
/// coalesced into a `write`.  A constant, not a setting — the buffer grows
/// (once, to fit) only for a single frame larger than this.
const READ_BUFFER: usize = 32 * 1024;

/// Pulls CRC-verified frames off a blocking byte stream through one
/// internal buffer: each `read` takes as many bytes as the stream hands
/// over, and frames are split out of the buffer until it runs dry.
///
/// `read_frame` returns `Ok(None)` on a clean end of stream (EOF with
/// nothing buffered, i.e. exactly at a frame boundary); EOF anywhere inside
/// a frame is [`ReadFrameError::Truncated`].  It never blocks while a whole
/// frame is already buffered.
pub struct FrameReader<R> {
    inner: R,
    /// Always fully initialised; `buf[start..end]` holds the bytes read
    /// off the stream and not yet returned.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: vec![0; READ_BUFFER],
            start: 0,
            end: 0,
        }
    }

    /// Returns the next frame's body, blocking until it is complete.
    ///
    /// The returned slice borrows the reader's internal buffer and is valid
    /// until the next call.
    pub fn read_frame(&mut self) -> Result<Option<&[u8]>, ReadFrameError> {
        let (body_len, crc) = loop {
            let buffered = self.end - self.start;
            let need = if buffered < FRAME_OVERHEAD {
                FRAME_OVERHEAD
            } else {
                let head = &self.buf[self.start..self.start + FRAME_OVERHEAD];
                let body_len = u32::from_le_bytes(head[..4].try_into().unwrap()) as usize;
                // Bounded before the buffer grows for it.
                if body_len > MAX_FRAME_BODY {
                    return Err(ReadFrameError::Oversized { len: body_len });
                }
                if buffered - FRAME_OVERHEAD >= body_len {
                    break (body_len, u32::from_le_bytes(head[4..].try_into().unwrap()));
                }
                FRAME_OVERHEAD + body_len
            };
            if self.fill(need)? == 0 {
                return match buffered {
                    0 => Ok(None),
                    _ => Err(ReadFrameError::Truncated),
                };
            }
        };
        let body_start = self.start + FRAME_OVERHEAD;
        self.start = body_start + body_len;
        let body = &self.buf[body_start..self.start];
        if crc32(body) != crc {
            return Err(ReadFrameError::Corrupt);
        }
        Ok(Some(body))
    }

    /// Makes room for a frame of `need` bytes at the front of the buffer
    /// and reads once into the free tail; returns the byte count (0 = EOF).
    ///
    /// Only called with fewer than `need` bytes buffered, so after the
    /// unread bytes move to the front the tail is never empty — a
    /// zero-length `read` would be indistinguishable from EOF.
    fn fill(&mut self, need: usize) -> Result<usize, ReadFrameError> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < need {
            self.buf.resize(need, 0);
        }
        loop {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(err) => return Err(ReadFrameError::Io(err)),
            }
        }
    }
}

/// Little-endian byte reader over a frame body.  The error is a
/// human-readable reason; the journal wraps it into
/// [`JournalError::Malformed`](crate::journal::JournalError::Malformed),
/// the wire protocol into its own corrupt-record error.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("body truncated at byte {}", self.pos))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, String> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The bytes not read yet.
    pub fn remaining(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Asserts the body was consumed exactly.
    pub fn finish(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after record body",
                self.bytes.len() - self.pos
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bitwise loop [`crc32`] replaced, kept as its reference.  It
    /// streams, so one pass yields the CRC of every prefix of `bytes`
    /// (`out[n]` covers `bytes[..n]`).
    fn crc32_bitwise_prefixes(bytes: &[u8]) -> Vec<u32> {
        let mut crc = 0xFFFF_FFFFu32;
        let mut out = vec![!crc];
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
            out.push(!crc);
        }
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise_prefixes(b"123456789")[9], 0xCBF4_3926);
    }

    proptest! {
        /// Every length 0..=300 at every alignment 0..8 of the backing
        /// buffer: the eight-byte main loop, its remainder and an
        /// unaligned start all agree with the bit loop.
        #[test]
        fn crc32_equals_the_bitwise_reference_at_every_length_and_offset(
            backing in proptest::collection::vec(any::<u8>(), 308..309),
        ) {
            for offset in 0..8 {
                let reference = crc32_bitwise_prefixes(&backing[offset..offset + 300]);
                for (len, &expected) in reference.iter().enumerate() {
                    prop_assert_eq!(
                        crc32(&backing[offset..offset + len]),
                        expected,
                        "offset {}, length {}",
                        offset,
                        len
                    );
                }
            }
        }
    }

    #[test]
    fn push_frame_with_patches_the_prefix_behind_earlier_bytes() {
        let mut buf = b"earlier".to_vec();
        push_frame_with(&mut buf, |body| {
            body.extend_from_slice(b"in");
            body.extend_from_slice(b"place");
        });
        let mut expected = b"earlier".to_vec();
        expected.extend_from_slice(&7u32.to_le_bytes());
        expected.extend_from_slice(&crc32(b"inplace").to_le_bytes());
        expected.extend_from_slice(b"inplace");
        assert_eq!(buf, expected);
        let mut copied = b"earlier".to_vec();
        push_frame(&mut copied, b"inplace");
        assert_eq!(copied, expected);
    }

    #[test]
    fn next_frame_walks_a_multi_frame_slice() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"alpha");
        push_frame(&mut buf, b"");
        push_frame(&mut buf, b"omega");
        let (body, next) = next_frame(&buf, 0).unwrap().unwrap();
        assert_eq!(body, b"alpha");
        let (body, next) = next_frame(&buf, next).unwrap().unwrap();
        assert_eq!(body, b"");
        let (body, next) = next_frame(&buf, next).unwrap().unwrap();
        assert_eq!(body, b"omega");
        assert_eq!(next_frame(&buf, next).unwrap(), None);
    }

    #[test]
    fn every_truncation_point_is_typed() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"payload");
        for cut in 1..buf.len() {
            assert_eq!(
                next_frame(&buf[..cut], 0),
                Err(FrameError::Truncated { offset: 0 }),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corruption_is_typed_with_its_offset() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"x");
        push_frame(&mut buf, b"payload");
        let second = FRAME_OVERHEAD + 1;
        buf[second + FRAME_OVERHEAD] ^= 0x20;
        let (_, next) = next_frame(&buf, 0).unwrap().unwrap();
        assert_eq!(
            next_frame(&buf, next),
            Err(FrameError::Corrupt { offset: second })
        );
    }

    #[test]
    fn frame_reader_round_trips_and_ends_cleanly() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"one");
        push_frame(&mut buf, b"two");
        let mut reader = FrameReader::new(&buf[..]);
        assert_eq!(reader.read_frame().unwrap(), Some(&b"one"[..]));
        assert_eq!(reader.read_frame().unwrap(), Some(&b"two"[..]));
        assert_eq!(reader.read_frame().unwrap(), None);
    }

    #[test]
    fn frame_reader_reports_torn_streams() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"payload");
        let mut reader = FrameReader::new(&buf[..buf.len() - 2]);
        assert!(matches!(
            reader.read_frame(),
            Err(ReadFrameError::Truncated)
        ));
    }

    #[test]
    fn frame_reader_rejects_oversized_length_prefixes() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut reader = FrameReader::new(&buf[..]);
        assert!(matches!(
            reader.read_frame(),
            Err(ReadFrameError::Oversized { .. })
        ));
        assert_eq!(reader.buf.len(), READ_BUFFER, "rejected before growing");
    }

    #[test]
    fn frame_reader_bounds_the_length_prefix_exactly() {
        let mut stream = Vec::new();
        push_frame(&mut stream, &vec![0xA5; MAX_FRAME_BODY]);
        let mut reader = FrameReader::new(Trickle::new(&stream, usize::MAX, 1));
        assert_eq!(
            reader.read_frame().unwrap().map(<[u8]>::len),
            Some(MAX_FRAME_BODY)
        );
        assert_eq!(reader.buf.len(), FRAME_OVERHEAD + MAX_FRAME_BODY);
        assert_eq!(reader.read_frame().unwrap(), None);

        let one_more = (MAX_FRAME_BODY as u32 + 1).to_le_bytes();
        let mut reader = FrameReader::new(Trickle::new(&one_more, 1, 2));
        // Too short to judge until all four length bytes are in.
        assert!(matches!(
            reader.read_frame(),
            Err(ReadFrameError::Truncated)
        ));
        let mut prefix = one_more.to_vec();
        prefix.extend_from_slice(&[0; 4]);
        let mut reader = FrameReader::new(Trickle::new(&prefix, 1, 3));
        assert!(matches!(
            reader.read_frame(),
            Err(ReadFrameError::Oversized { len }) if len == MAX_FRAME_BODY + 1
        ));
        assert_eq!(reader.buf.len(), READ_BUFFER, "rejected before growing");
    }

    #[test]
    fn frame_reader_rejects_bit_rot() {
        let mut buf = Vec::new();
        push_frame(&mut buf, b"payload");
        buf[FRAME_OVERHEAD + 2] ^= 0x01;
        let mut reader = FrameReader::new(&buf[..]);
        assert!(matches!(reader.read_frame(), Err(ReadFrameError::Corrupt)));
    }

    /// A byte stream that hands over a seeded `1..=max_chunk` bytes per
    /// `read` and now and then fails with `Interrupted` first — the short
    /// and spurious reads a socket is allowed to produce.  A zero-length
    /// destination is a bug in the caller (it reads back as a false EOF),
    /// so it panics.
    struct Trickle<'a> {
        bytes: &'a [u8],
        max_chunk: usize,
        rng: u64,
    }

    impl<'a> Trickle<'a> {
        fn new(bytes: &'a [u8], max_chunk: usize, seed: u64) -> Self {
            Trickle {
                bytes,
                max_chunk,
                rng: seed | 1,
            }
        }

        fn next(&mut self) -> u64 {
            // xorshift64: any non-zero state works.
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            self.rng
        }
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            assert!(!out.is_empty(), "zero-length read: a false EOF");
            if self.next().is_multiple_of(5) {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            let chunk = 1 + (self.next() as usize) % self.max_chunk;
            let n = chunk.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// How a stream ended, comparable (an `io::Error` is not).
    #[derive(Debug, PartialEq)]
    enum End {
        Clean,
        Truncated,
        Corrupt,
        Oversized,
    }

    /// Reads `stream` to its end: the bodies yielded, and how it ended.
    fn drain(stream: &[u8], max_chunk: usize, seed: u64) -> (Vec<Vec<u8>>, End) {
        let mut reader = FrameReader::new(Trickle::new(stream, max_chunk, seed));
        let mut bodies = Vec::new();
        loop {
            match reader.read_frame() {
                Ok(Some(body)) => bodies.push(body.to_vec()),
                Ok(None) => return (bodies, End::Clean),
                Err(ReadFrameError::Truncated) => return (bodies, End::Truncated),
                Err(ReadFrameError::Corrupt) => return (bodies, End::Corrupt),
                Err(ReadFrameError::Oversized { .. }) => return (bodies, End::Oversized),
                Err(ReadFrameError::Io(err)) => panic!("Trickle never fails: {err}"),
            }
        }
    }

    /// The same walk over the slice with [`next_frame`]: the reference.
    fn walk(stream: &[u8]) -> (Vec<Vec<u8>>, End) {
        let mut bodies = Vec::new();
        let mut offset = 0;
        loop {
            match next_frame(stream, offset) {
                Ok(Some((body, next))) => {
                    bodies.push(body.to_vec());
                    offset = next;
                }
                Ok(None) => return (bodies, End::Clean),
                Err(FrameError::Truncated { .. }) => return (bodies, End::Truncated),
                Err(FrameError::Corrupt { .. }) => return (bodies, End::Corrupt),
            }
        }
    }

    proptest! {
        /// However the stream is delivered — one byte per `read`, a few,
        /// or everything at once, with spurious `Interrupted`s — the
        /// reader yields exactly what `next_frame` yields over the same
        /// bytes: whole, cut short at a random byte, and with one bit
        /// flipped in a CRC or body.  About one case in four carries a 100 KiB
        /// body, larger than the reader's initial buffer.
        #[test]
        fn frame_reader_equals_next_frame_under_any_delivery(
            lens in proptest::collection::vec(0usize..200, 0..12),
            large_at in 0usize..24,
            chunk_pick in 0usize..4,
            seed in any::<u64>(),
        ) {
            let mut fill = Trickle::new(&[], 1, seed);
            let mut stream = Vec::new();
            let mut frames = Vec::new(); // (offset, body_len) of each frame
            for (i, &len) in lens.iter().enumerate() {
                let len = if i == large_at { 100 * 1024 } else { len };
                let body: Vec<u8> = (0..len).map(|_| fill.next() as u8).collect();
                frames.push((stream.len(), len));
                push_frame(&mut stream, &body);
            }
            let max_chunk = [1, 7, 4096, usize::MAX][chunk_pick];

            let whole = walk(&stream);
            prop_assert_eq!(whole.0.len(), frames.len());
            prop_assert_eq!(&whole.1, &End::Clean);
            prop_assert_eq!(drain(&stream, max_chunk, seed), whole);

            let cut = (fill.next() as usize) % (stream.len() + 1);
            let torn = drain(&stream[..cut], max_chunk, seed);
            let at_boundary = cut == stream.len() || frames.iter().any(|&(at, _)| at == cut);
            prop_assert_eq!(
                &torn.1,
                if at_boundary { &End::Clean } else { &End::Truncated }
            );
            prop_assert_eq!(torn, walk(&stream[..cut]));

            if !frames.is_empty() {
                let victim = (fill.next() as usize) % frames.len();
                let (at, len) = frames[victim];
                // Past the length field: in the CRC or the body.
                let byte = at + 4 + (fill.next() as usize) % (4 + len);
                stream[byte] ^= 1 << (fill.next() % 8);
                let rotten = drain(&stream, max_chunk, seed);
                prop_assert_eq!(rotten.0.len(), victim);
                prop_assert_eq!(&rotten.1, &End::Corrupt);
                prop_assert_eq!(rotten, walk(&stream));
            }
        }
    }

    #[test]
    fn every_cut_is_a_clean_end_at_a_boundary_and_truncated_elsewhere() {
        let bodies: [&[u8]; 4] = [b"alpha", b"", b"a longer third body", b"z"];
        let mut stream = Vec::new();
        let mut boundaries = vec![0];
        for body in bodies {
            push_frame(&mut stream, body);
            boundaries.push(stream.len());
        }
        for cut in 0..=stream.len() {
            for max_chunk in [1, 3, usize::MAX] {
                let (got, end) = drain(&stream[..cut], max_chunk, cut as u64);
                let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
                assert_eq!(got.len(), whole, "cut at {cut}");
                assert!(got.iter().zip(bodies).all(|(g, b)| g == b));
                let expected = if boundaries.contains(&cut) {
                    End::Clean
                } else {
                    End::Truncated
                };
                assert_eq!(end, expected, "cut at {cut}, chunks of {max_chunk}");
            }
        }
    }

    #[test]
    fn a_full_buffer_is_never_read_into() {
        // First frames sized so the stream's first `read` leaves the buffer
        // exactly full at, just short of and just past a frame boundary;
        // `Trickle` panics on the zero-length read a full buffer invites.
        for first_total in READ_BUFFER - 9..=READ_BUFFER + 9 {
            let first = vec![0x3C; first_total - FRAME_OVERHEAD];
            let mut stream = Vec::new();
            push_frame(&mut stream, &first);
            push_frame(&mut stream, b"second");
            push_frame(&mut stream, b"");
            let (got, end) = drain(&stream, usize::MAX, first_total as u64);
            assert_eq!(end, End::Clean, "first frame of {first_total} bytes");
            assert_eq!(got, [&first[..], b"second", b""]);
        }
    }

    #[test]
    fn reader_reads_little_endian_fields() {
        let mut body = Vec::new();
        body.push(7u8);
        body.extend_from_slice(&0xBEEFu16.to_le_bytes());
        body.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        body.extend_from_slice(&(-9i64).to_le_bytes());
        let mut r = Reader::new(&body);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.i64().unwrap(), -9);
        r.finish().unwrap();
        assert!(Reader::new(&body).u64().is_err() || body.len() >= 8);
    }

    #[test]
    fn reader_finish_rejects_trailing_bytes() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert!(r.finish().is_err());
        assert!(r.take(5).is_err());
    }
}
