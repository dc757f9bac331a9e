//! Binary checkpoint codec for search-driver state.
//!
//! The workspace's vendored `serde` is a marker facade (no wire format),
//! so checkpointable state is written through this small self-describing
//! little-endian codec instead — the same approach `cv-nn` uses for
//! model weights. Every value is written through [`Enc`] and read back
//! through [`Dec`]; composite types (trackers, archives, driver
//! states, task journal records) layer `write_ckpt`/`read_ckpt` pairs on
//! top. Floats are stored as raw IEEE-754 bits, so a checkpoint/resume
//! round trip is bit-for-bit lossless — the property Contract 8
//! (DESIGN.md §7) rests on.

use crate::cost::PpaReport;
use crate::evaluator::EvalRecord;
use cv_prefix::{bitvec, PrefixGrid};
use std::error::Error;
use std::fmt;

/// Errors from checkpoint decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The byte stream ended prematurely.
    Truncated,
    /// The stream does not start with the expected magic string.
    BadMagic,
    /// A decoded value is structurally invalid (bad tag, bad grid, …).
    Invalid(&'static str),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated => write!(f, "checkpoint truncated"),
            CkptError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CkptError::Invalid(what) => write!(f, "invalid checkpoint field: {what}"),
        }
    }
}

impl Error for CkptError {}

/// Little-endian binary encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// An encoder starting with `magic` (pair with [`Dec::with_magic`]).
    pub fn with_magic(magic: &[u8; 8]) -> Self {
        let mut e = Enc::new();
        e.buf.extend_from_slice(magic);
        e
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u8` (one byte — event tags, small enums).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` (as `u64`).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as raw IEEE-754 bits (lossless, NaN-safe).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends an `f32` as raw bits.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a length-prefixed byte slice.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends a length-prefixed `f32` slice.
    pub fn f32s(&mut self, v: &[f32]) {
        self.usize(v.len());
        for &x in v {
            self.f32(x);
        }
    }

    /// Appends a grid as its width plus bit-packed free cells (the free
    /// cells fully determine a grid; mandatory cells are implied).
    pub fn grid(&mut self, g: &PrefixGrid) {
        self.usize(g.width());
        let bits = bitvec::encode_bits(g);
        self.usize(bits.len());
        let mut byte = 0u8;
        for (i, &b) in bits.iter().enumerate() {
            if b {
                byte |= 1 << (i % 8);
            }
            if i % 8 == 7 {
                self.buf.push(byte);
                byte = 0;
            }
        }
        if bits.len() % 8 != 0 {
            self.buf.push(byte);
        }
    }

    /// Appends an optional grid.
    pub fn opt_grid(&mut self, g: Option<&PrefixGrid>) {
        self.bool(g.is_some());
        if let Some(g) = g {
            self.grid(g);
        }
    }

    /// Appends a PPA report.
    pub fn ppa(&mut self, p: &PpaReport) {
        self.f64(p.area_um2);
        self.f64(p.delay_ns);
        self.usize(p.gate_count);
        self.usize(p.buffers_inserted);
        self.usize(p.gates_upsized);
    }

    /// Appends an evaluation record.
    pub fn record(&mut self, r: &EvalRecord) {
        self.f64(r.cost);
        self.ppa(&r.ppa);
    }

    /// The accumulated bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian binary decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// A decoder that first checks for `magic`.
    ///
    /// # Errors
    ///
    /// [`CkptError::BadMagic`] when the stream does not start with it.
    pub fn with_magic(buf: &'a [u8], magic: &[u8; 8]) -> Result<Self, CkptError> {
        let mut d = Dec::new(buf);
        if d.take(8)? != magic {
            return Err(CkptError::BadMagic);
        }
        Ok(d)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        // Checked arithmetic: a corrupt length prefix near `usize::MAX`
        // must surface as `Truncated`, not overflow.
        if n > self.buf.len() - self.pos {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a sequence-length prefix, validated against the bytes that
    /// remain: every encoded element occupies at least one byte, so a
    /// count exceeding the remainder is corrupt. Read loops size their
    /// `Vec::with_capacity` from this, which keeps a bit-flipped length
    /// prefix from turning into a capacity-overflow abort instead of a
    /// diagnosable [`CkptError`].
    ///
    /// # Errors
    ///
    /// [`CkptError::Truncated`] when the count cannot fit the remaining
    /// bytes.
    pub fn seq_len(&mut self) -> Result<usize, CkptError> {
        let n = self.usize()?;
        if n > self.buf.len() - self.pos {
            return Err(CkptError::Truncated);
        }
        Ok(n)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `usize`.
    pub fn usize(&mut self) -> Result<usize, CkptError> {
        Ok(self.u64()? as usize)
    }

    /// Reads an `f64` from raw bits.
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an `f32` from raw bits.
    pub fn f32(&mut self) -> Result<f32, CkptError> {
        Ok(f32::from_bits(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4"),
        )))
    }

    /// Reads a `bool`.
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::Invalid("bool")),
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.seq_len()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CkptError> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| CkptError::Invalid("utf8"))
    }

    /// Reads a length-prefixed `f32` slice.
    pub fn f32s(&mut self) -> Result<Vec<f32>, CkptError> {
        let n = self.seq_len()?;
        (0..n).map(|_| self.f32()).collect()
    }

    /// Reads a grid written by [`Enc::grid`].
    pub fn grid(&mut self) -> Result<PrefixGrid, CkptError> {
        let width = self.usize()?;
        let nbits = self.usize()?;
        let packed = self.take(nbits.div_ceil(8))?;
        let bits: Vec<bool> = (0..nbits)
            .map(|i| packed[i / 8] >> (i % 8) & 1 == 1)
            .collect();
        bitvec::decode_bits(width, &bits).map_err(|_| CkptError::Invalid("grid"))
    }

    /// Reads an optional grid.
    pub fn opt_grid(&mut self) -> Result<Option<PrefixGrid>, CkptError> {
        if self.bool()? {
            Ok(Some(self.grid()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a PPA report.
    pub fn ppa(&mut self) -> Result<PpaReport, CkptError> {
        Ok(PpaReport {
            area_um2: self.f64()?,
            delay_ns: self.f64()?,
            gate_count: self.usize()?,
            buffers_inserted: self.usize()?,
            gates_upsized: self.usize()?,
        })
    }

    /// Reads an evaluation record.
    pub fn record(&mut self) -> Result<EvalRecord, CkptError> {
        Ok(EvalRecord {
            cost: self.f64()?,
            ppa: self.ppa()?,
        })
    }

    /// Asserts the whole stream was consumed.
    ///
    /// # Errors
    ///
    /// [`CkptError::Invalid`] when trailing bytes remain.
    pub fn finish(self) -> Result<(), CkptError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CkptError::Invalid("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_prefix::topologies;

    #[test]
    fn scalars_roundtrip_bitwise() {
        let mut e = Enc::with_magic(b"CVTESTS1");
        e.u8(0xA5);
        e.u32(u32::MAX - 1);
        e.u64(u64::MAX);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.f32(1.5e-40); // subnormal
        e.bool(true);
        e.str("grid/ω");
        e.f32s(&[0.0, -1.0, f32::INFINITY]);
        let bytes = e.finish();
        let mut d = Dec::with_magic(&bytes, b"CVTESTS1").unwrap();
        assert_eq!(d.u8().unwrap(), 0xA5);
        assert_eq!(d.u32().unwrap(), u32::MAX - 1);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert_eq!(d.f32().unwrap().to_bits(), 1.5e-40f32.to_bits());
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "grid/ω");
        assert_eq!(d.f32s().unwrap(), vec![0.0f32, -1.0, f32::INFINITY]);
        d.finish().unwrap();
    }

    #[test]
    fn grids_roundtrip_including_illegal_ones() {
        let mut e = Enc::new();
        let legal = topologies::sklansky(12);
        let mut illegal = PrefixGrid::ripple(10);
        illegal.set(7, 3, true).unwrap(); // not legalized on purpose
        e.grid(&legal);
        e.grid(&illegal);
        e.opt_grid(None);
        e.opt_grid(Some(&legal));
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.grid().unwrap(), legal);
        assert_eq!(d.grid().unwrap(), illegal);
        assert_eq!(d.opt_grid().unwrap(), None);
        assert_eq!(d.opt_grid().unwrap(), Some(legal));
        d.finish().unwrap();
    }

    #[test]
    fn corrupt_length_prefixes_error_instead_of_aborting() {
        // A bit-flipped length prefix near usize::MAX must surface as a
        // CkptError — not overflow in `take`, and not a capacity-overflow
        // abort in a `Vec::with_capacity(seq_len)` read loop.
        let mut e = Enc::new();
        e.u64(u64::MAX - 3);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.seq_len().unwrap_err(), CkptError::Truncated);
        let mut d = Dec::new(&bytes);
        assert_eq!(d.bytes().unwrap_err(), CkptError::Truncated);
        let mut d = Dec::new(&bytes);
        assert_eq!(d.f32s().unwrap_err(), CkptError::Truncated);
        // Same prefix fed to a composite reader (tracker points).
        let mut d = Dec::new(&bytes);
        assert!(matches!(
            crate::BestTracker::read_ckpt(&mut d),
            Err(CkptError::Truncated)
        ));
    }

    #[test]
    fn errors_are_detected() {
        assert_eq!(
            Dec::with_magic(b"nonsense-bytes", b"CVTESTS1").unwrap_err(),
            CkptError::BadMagic
        );
        let mut e = Enc::new();
        e.u64(7);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes[..4]);
        assert_eq!(d.u64().unwrap_err(), CkptError::Truncated);
        let mut d = Dec::new(&bytes);
        let _ = d.u64().unwrap();
        // Unconsumed trailing bytes are an error too.
        let mut e = Enc::new();
        e.u64(1);
        e.u64(2);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        let _ = d.u64().unwrap();
        assert_eq!(
            d.finish().unwrap_err(),
            CkptError::Invalid("trailing bytes")
        );
    }
}
