//! Binary checkpointing for [`ParamStore`].
//!
//! No serde *format* crate is in the approved dependency set, so model
//! weights are stored in a small self-describing little-endian binary
//! layout: magic, version, optimizer step, then per parameter its shape
//! and three tensors (value, Adam m, Adam v).

use crate::param::ParamStore;
use crate::tensor::Tensor;
use std::error::Error;
use std::fmt;

const MAGIC: &[u8; 8] = b"CVNNCKP1";

/// Errors from checkpoint decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream does not start with the expected magic/version.
    BadMagic,
    /// The byte stream ended prematurely or has inconsistent lengths.
    Truncated,
    /// A parameter count, rank or shape claims more data than the
    /// remaining bytes can hold (or than `usize` can count).
    Oversized,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a cv-nn checkpoint (bad magic)"),
            CheckpointError::Truncated => write!(f, "checkpoint data truncated or inconsistent"),
            CheckpointError::Oversized => {
                write!(f, "checkpoint length field exceeds the data it describes")
            }
        }
    }
}

impl Error for CheckpointError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if n > self.buf.len() - self.pos {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// A u64 count of items that take at least `item_bytes` each,
    /// rejected unless the remaining bytes could hold that many.
    fn count(&mut self, item_bytes: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= (self.buf.len() - self.pos) / item_bytes)
            .ok_or(CheckpointError::Oversized)
    }

    fn f32s(&mut self, count: usize) -> Result<Vec<f32>, CheckpointError> {
        let bytes = count.checked_mul(4).ok_or(CheckpointError::Oversized)?;
        let b = self.take(bytes)?;
        Ok(b.chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    for &x in t.data() {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn read_tensor(r: &mut Reader<'_>, shape: &[usize]) -> Result<Tensor, CheckpointError> {
    let numel = shape
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .ok_or(CheckpointError::Oversized)?;
    Ok(Tensor::new(shape.to_vec(), r.f32s(numel)?))
}

impl ParamStore {
    /// Serializes the store (values and Adam state) to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, self.steps());
        put_u64(&mut out, self.len() as u64);
        for i in 0..self.len() {
            let (value, m, v) = self.raw_parts(i);
            put_u64(&mut out, value.shape().len() as u64);
            for &d in value.shape() {
                put_u64(&mut out, d as u64);
            }
            put_tensor(&mut out, value);
            put_tensor(&mut out, m);
            put_tensor(&mut out, v);
        }
        out
    }

    /// Restores a store from bytes produced by [`ParamStore::to_bytes`].
    /// Any input, hostile ones included, decodes to `Ok` or an error:
    /// every length field is checked against the bytes that remain
    /// before anything is allocated for it.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] for wrong magic, truncated data, or a
    /// length field larger than the data it describes.
    pub fn from_bytes(bytes: &[u8]) -> Result<ParamStore, CheckpointError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(8)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let steps = r.u64()?;
        // Each parameter takes at least its 8-byte rank; each dimension
        // its 8-byte extent.
        let count = r.count(8)?;
        let mut store = ParamStore::new();
        let mut restored = Vec::with_capacity(count);
        for _ in 0..count {
            let rank = r.count(8)?;
            let mut shape = Vec::with_capacity(rank);
            for _ in 0..rank {
                let d = r.u64()?;
                shape.push(usize::try_from(d).map_err(|_| CheckpointError::Oversized)?);
            }
            let value = read_tensor(&mut r, &shape)?;
            let m = read_tensor(&mut r, &shape)?;
            let v = read_tensor(&mut r, &shape)?;
            restored.push((value, m, v));
        }
        if r.pos != bytes.len() {
            return Err(CheckpointError::Truncated);
        }
        store.restore(steps, restored);
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::param::AdamConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_store() -> ParamStore {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut store, 4, 3, &mut rng);
        // Take a few optimizer steps so Adam state is non-trivial.
        let cfg = AdamConfig::default();
        for _ in 0..5 {
            let mut g = crate::Graph::new();
            let x = g.input(Tensor::full([2, 4], 0.5));
            let y = lin.forward(&mut g, &store, x);
            let loss = g.sum(y);
            let grads = g.backward(loss);
            let mut buf = store.zero_grads();
            g.accumulate_param_grads(&grads, &mut buf);
            store.adam_step(&buf, &cfg);
        }
        store
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = trained_store();
        let bytes = store.to_bytes();
        let back = ParamStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.steps(), store.steps());
        assert_eq!(back.len(), store.len());
        for i in 0..store.len() {
            let (v1, m1, s1) = store.raw_parts(i);
            let (v2, m2, s2) = back.raw_parts(i);
            assert_eq!(v1, v2);
            assert_eq!(m1, m2);
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn resumed_training_matches_uninterrupted() {
        // Training 5 steps, checkpointing, then 5 more must equal 10
        // straight steps (bitwise, since everything is deterministic).
        let mut rng = StdRng::seed_from_u64(1);
        let mut store_a = ParamStore::new();
        let lin_a = Linear::new(&mut store_a, 3, 1, &mut rng);
        let cfg = AdamConfig::default();
        let step = |store: &mut ParamStore, lin: &Linear| {
            let mut g = crate::Graph::new();
            let x = g.input(Tensor::full([1, 3], 1.0));
            let y = lin.forward(&mut g, store, x);
            let sq = g.mul(y, y);
            let loss = g.sum(sq);
            let grads = g.backward(loss);
            let mut buf = store.zero_grads();
            g.accumulate_param_grads(&grads, &mut buf);
            store.adam_step(&buf, &cfg);
        };
        for _ in 0..5 {
            step(&mut store_a, &lin_a);
        }
        let mut resumed = ParamStore::from_bytes(&store_a.to_bytes()).unwrap();
        for _ in 0..5 {
            step(&mut store_a, &lin_a);
            step(&mut resumed, &lin_a);
        }
        for i in 0..store_a.len() {
            assert_eq!(store_a.raw_parts(i).0, resumed.raw_parts(i).0, "param {i}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            ParamStore::from_bytes(b"nonsense").unwrap_err(),
            CheckpointError::BadMagic
        );
        let store = trained_store();
        let mut bytes = store.to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert_eq!(
            ParamStore::from_bytes(&bytes).unwrap_err(),
            CheckpointError::Truncated
        );
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(ParamStore::from_bytes(&bytes).is_err());
    }

    /// A checkpoint header (magic, zero steps) followed by `fields`.
    fn hostile(fields: &[u64]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        put_u64(&mut out, 0);
        for &f in fields {
            put_u64(&mut out, f);
        }
        out
    }

    #[test]
    fn huge_param_count_is_an_error() {
        let bytes = hostile(&[1 << 40]);
        assert_eq!(
            ParamStore::from_bytes(&bytes).unwrap_err(),
            CheckpointError::Oversized
        );
    }

    #[test]
    fn huge_rank_is_an_error() {
        let bytes = hostile(&[1, 1 << 40]);
        assert_eq!(
            ParamStore::from_bytes(&bytes).unwrap_err(),
            CheckpointError::Oversized
        );
    }

    #[test]
    fn overflowing_shape_is_an_error() {
        let bytes = hostile(&[1, 2, 1 << 32, 1 << 32]);
        assert_eq!(
            ParamStore::from_bytes(&bytes).unwrap_err(),
            CheckpointError::Oversized
        );
    }

    #[test]
    fn single_bit_flips_decode_without_panicking() {
        let bytes = trained_store().to_bytes();
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            // Ok (a flipped value or step count) or a typed error.
            let _ = ParamStore::from_bytes(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
