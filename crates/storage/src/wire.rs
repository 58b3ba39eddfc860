//! Binary (de)serialization primitives for durability.
//!
//! The durability subsystem (`gputx-durability`) persists two kinds of state:
//! checkpoint snapshots of a whole [`Database`](crate::Database) and per-bulk
//! redo records carrying a [`ShardDelta`](crate::ShardDelta) write-set. Both
//! are encoded with the little-endian primitives in this module — the
//! workspace's `serde` is an offline marker shim (see `vendor/README.md`), so
//! the wire format is hand-rolled and versioned by the durability layer's
//! file headers instead.
//!
//! The format is deliberately simple: fixed-width little-endian integers,
//! IEEE-754 bit patterns for doubles (NaN payloads survive a round trip), and
//! length-prefixed UTF-8 for strings. Framing, checksums and torn-tail
//! handling live in `gputx-durability`; this module only provides the
//! primitives plus the CRC-32 the frames use.

use crate::value::{DataType, Value};
use std::fmt;

/// Error produced when decoding malformed or truncated wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    UnexpectedEof,
    /// The input decoded but violated an invariant (bad tag, invalid UTF-8,
    /// inconsistent lengths). The message names the violation.
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of wire data"),
            WireError::Invalid(msg) => write!(f, "invalid wire data: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that keeps appending after `buf`'s existing bytes, so an
    /// encoder can reuse a caller's buffer instead of growing a fresh one;
    /// [`into_bytes`](WireWriter::into_bytes) hands the buffer back.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        WireWriter { buf }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer and hand back the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (NaN-preserving).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `usize` as a `u64` (lengths, counts).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Append raw bytes with no length prefix (the caller encodes its own
    /// framing).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed byte string (read back with
    /// [`WireReader::get_blob`]).
    pub fn put_blob(&mut self, v: &[u8]) {
        self.put_len(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append a [`Value`] (tag byte + payload).
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Int(x) => {
                self.put_u8(0);
                self.put_i64(*x);
            }
            Value::Double(x) => {
                self.put_u8(1);
                self.put_f64(*x);
            }
            Value::Str(s) => {
                self.put_u8(2);
                self.put_str(s);
            }
            Value::Null => self.put_u8(3),
        }
    }

    /// Append a [`DataType`] tag.
    pub fn put_data_type(&mut self, dt: DataType) {
        self.put_u8(match dt {
            DataType::Int => 0,
            DataType::Double => 1,
            DataType::Str => 2,
        });
    }
}

/// Cursor-style decoder over a byte slice; every read checks bounds and
/// returns [`WireError::UnexpectedEof`] on truncation instead of panicking,
/// which is what lets the WAL reader treat a torn tail as data, not a crash.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Create a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless every byte was consumed (catches length-corrupted
    /// records whose payload decoded "successfully" by accident).
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Invalid(format!(
                "{} trailing bytes after a complete value",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length (`u64`) and check it is plausibly backed by the input,
    /// so a corrupted length cannot trigger a giant allocation.
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        let len = self.get_u64()?;
        if len > self.remaining() as u64 * 8 + 64 {
            return Err(WireError::Invalid(format!(
                "length {len} exceeds remaining input"
            )));
        }
        Ok(len as usize)
    }

    /// Read a length-prefixed byte string written by
    /// [`WireWriter::put_blob`].
    pub fn get_blob(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.get_len()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Invalid("non-UTF-8 string payload".into()))
    }

    /// Read a [`Value`].
    pub fn get_value(&mut self) -> Result<Value, WireError> {
        match self.get_u8()? {
            0 => Ok(Value::Int(self.get_i64()?)),
            1 => Ok(Value::Double(self.get_f64()?)),
            2 => Ok(Value::Str(self.get_str()?)),
            3 => Ok(Value::Null),
            tag => Err(WireError::Invalid(format!("unknown Value tag {tag}"))),
        }
    }

    /// Read a [`DataType`].
    pub fn get_data_type(&mut self) -> Result<DataType, WireError> {
        match self.get_u8()? {
            0 => Ok(DataType::Int),
            1 => Ok(DataType::Double),
            2 => Ok(DataType::Str),
            tag => Err(WireError::Invalid(format!("unknown DataType tag {tag}"))),
        }
    }
}

/// The reflected IEEE 802.3 CRC-32 polynomial (zlib's).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC32_TABLES[0]` is the classic bytewise table, and
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight table lookups advance the CRC by eight input bytes at once.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `data`. Used by the WAL,
/// checkpoint and wire frames to detect torn or corrupted payloads. Computed
/// eight bytes per step (slicing-by-8); the value is the bytewise CRC's.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(-0.5);
        w.put_str("héllo");
        w.put_value(&Value::Str("x".into()));
        w.put_value(&Value::Null);
        w.put_data_type(DataType::Double);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), -0.5);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_value().unwrap(), Value::Str("x".into()));
        assert_eq!(r.get_value().unwrap(), Value::Null);
        assert_eq!(r.get_data_type().unwrap(), DataType::Double);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_0001);
        let mut w = WireWriter::new();
        w.put_f64(weird);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn truncated_input_reports_eof_not_panic() {
        let mut w = WireWriter::new();
        w.put_str("truncate me please");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(r.get_str().is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn corrupt_tags_and_lengths_rejected() {
        let mut r = WireReader::new(&[9]);
        assert!(matches!(r.get_value(), Err(WireError::Invalid(_))));
        // A huge length must not allocate; it errors instead.
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(r.get_len(), Err(WireError::Invalid(_))));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = WireWriter::new();
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.get_u8().unwrap();
        assert!(matches!(r.expect_end(), Err(WireError::Invalid(_))));
    }

    /// The bytewise table-driven CRC-32 the slicing-by-8 version replaces:
    /// the reference it must match bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest! {
        #[test]
        fn crc32_matches_the_bytewise_reference(
            data in prop::collection::vec(0u8..=255, 308),
            len in 0usize..=300,
        ) {
            for offset in 0..8 {
                let slice = &data[offset..offset + len];
                prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "len {} offset {}", len, offset);
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }
}
