//! Parameter storage and the Adam optimizer.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(usize);

impl ParamId {
    /// Raw index (used to address gradient buffers).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Owns all trainable tensors of a model plus Adam moment estimates.
///
/// Serializable with serde, so models can be checkpointed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamStore {
    values: Vec<Tensor>,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    step: u64,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ParamStore {
            values: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
            step: 0,
        }
    }

    /// Registers a parameter; returns its handle.
    pub fn add(&mut self, value: Tensor) -> ParamId {
        self.m.push(Tensor::zeros(value.shape().to_vec()));
        self.v.push(Tensor::zeros(value.shape().to_vec()));
        self.values.push(value);
        ParamId(self.values.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether `other` holds the same parameters: the same count, and
    /// the same shape in every slot. A decoded checkpoint store is only
    /// usable by a model whose rebuilt store has its layout.
    pub fn same_layout(&self, other: &ParamStore) -> bool {
        self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a.shape() == b.shape())
    }

    /// Total scalar parameter count.
    pub fn scalar_count(&self) -> usize {
        self.values.iter().map(Tensor::numel).sum()
    }

    /// The current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable access (rarely needed; prefer the optimizer).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// A zeroed gradient buffer aligned with this store, for use with
    /// [`crate::Graph::accumulate_param_grads`].
    pub fn zero_grads(&self) -> Vec<Tensor> {
        self.values
            .iter()
            .map(|t| Tensor::zeros(t.shape().to_vec()))
            .collect()
    }

    /// Number of optimizer steps taken.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Raw access to a parameter's (value, adam_m, adam_v) for
    /// checkpointing.
    pub(crate) fn raw_parts(&self, i: usize) -> (&Tensor, &Tensor, &Tensor) {
        (&self.values[i], &self.m[i], &self.v[i])
    }

    /// Replaces the whole store contents during checkpoint restore.
    pub(crate) fn restore(&mut self, step: u64, parts: Vec<(Tensor, Tensor, Tensor)>) {
        self.values.clear();
        self.m.clear();
        self.v.clear();
        for (value, m, v) in parts {
            self.values.push(value);
            self.m.push(m);
            self.v.push(v);
        }
        self.step = step;
    }

    /// One Adam step (Kingma & Ba 2014) over all parameters.
    ///
    /// # Panics
    ///
    /// Panics if `grads` is not aligned with the store.
    pub fn adam_step(&mut self, grads: &[Tensor], cfg: &AdamConfig) {
        assert_eq!(grads.len(), self.values.len(), "gradient buffer misaligned");
        self.step += 1;
        let t = self.step as f64;
        let bc1 = 1.0 - cfg.beta1.powf(t as f32);
        let bc2 = 1.0 - cfg.beta2.powf(t as f32);
        for ((value, grad), (m, v)) in self
            .values
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            assert_eq!(value.shape(), grad.shape(), "gradient shape misaligned");
            // Every slice cut to one length, so the loop carries no
            // bounds checks and vectorizes; the per-element operations
            // are unchanged.
            let n = value.numel();
            let (vd, gd) = (&mut value.data_mut()[..n], &grad.data()[..n]);
            let (md, vvd) = (&mut m.data_mut()[..n], &mut v.data_mut()[..n]);
            for (((w, &g), mi), vi) in vd.iter_mut().zip(gd).zip(md).zip(vvd) {
                // Drop pathological gradients rather than poisoning weights.
                let g = if g.is_finite() { g } else { 0.0 };
                let gc = g.clamp(-cfg.grad_clip, cfg.grad_clip);
                *mi = cfg.beta1 * *mi + (1.0 - cfg.beta1) * gc;
                *vi = cfg.beta2 * *vi + (1.0 - cfg.beta2) * gc * gc;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *w -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
            }
        }
    }
}

impl Default for ParamStore {
    fn default() -> Self {
        Self::new()
    }
}

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator stabilizer.
    pub eps: f32,
    /// Per-element gradient clip (absolute value).
    pub grad_clip: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            grad_clip: 5.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_access() {
        let mut store = ParamStore::new();
        let w = store.add(Tensor::new([2, 2], vec![1., 2., 3., 4.]));
        let b = store.add(Tensor::zeros([2]));
        assert_eq!(store.len(), 2);
        assert_eq!(store.scalar_count(), 6);
        assert_eq!(store.value(w).data()[3], 4.0);
        assert_eq!(store.value(b).numel(), 2);
    }

    #[test]
    fn adam_descends_a_quadratic() {
        // Minimize f(w) = (w - 3)^2 by handing Adam the analytic gradient.
        let mut store = ParamStore::new();
        let w = store.add(Tensor::scalar(0.0));
        let cfg = AdamConfig {
            lr: 0.1,
            ..AdamConfig::default()
        };
        for _ in 0..300 {
            let wv = store.value(w).item();
            let grads = vec![Tensor::scalar(2.0 * (wv - 3.0))];
            store.adam_step(&grads, &cfg);
        }
        assert!((store.value(w).item() - 3.0).abs() < 0.05);
        assert_eq!(store.steps(), 300);
    }

    #[test]
    fn nan_gradients_are_dropped() {
        let mut store = ParamStore::new();
        let w = store.add(Tensor::scalar(1.0));
        store.adam_step(&[Tensor::scalar(f32::NAN)], &AdamConfig::default());
        assert!(store.value(w).item().is_finite());
    }

    #[test]
    fn adam_matches_a_per_element_reference_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cfg = AdamConfig {
            lr: 3e-3,
            grad_clip: 2.0,
            ..AdamConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        for len in [1usize, 7, 64, 333] {
            let data = (0..len).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
            store.add(Tensor::new([len], data));
        }
        let mut want: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = (0..store.len())
            .map(|i| {
                (
                    store.raw_parts(i).0.data().to_vec(),
                    vec![0.0; store.raw_parts(i).0.numel()],
                    vec![0.0; store.raw_parts(i).0.numel()],
                )
            })
            .collect();
        for step in 1..=5u64 {
            let grads: Vec<Tensor> = want
                .iter()
                .map(|(w, _, _)| {
                    let g = (0..w.len())
                        .map(|_| match rng.gen_range(0..8u32) {
                            0 => f32::NAN,
                            1 => f32::INFINITY,
                            2 => f32::NEG_INFINITY,
                            3 => rng.gen_range(-50.0f32..50.0),
                            _ => rng.gen_range(-1.0f32..1.0),
                        })
                        .collect();
                    Tensor::new([w.len()], g)
                })
                .collect();
            store.adam_step(&grads, &cfg);
            let t = step as f64;
            let bc1 = 1.0 - cfg.beta1.powf(t as f32);
            let bc2 = 1.0 - cfg.beta2.powf(t as f32);
            for ((w, m, v), grad) in want.iter_mut().zip(&grads) {
                for i in 0..w.len() {
                    let mut g = grad.data()[i];
                    if !g.is_finite() {
                        g = 0.0;
                    }
                    let gc = g.clamp(-cfg.grad_clip, cfg.grad_clip);
                    m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * gc;
                    v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * gc * gc;
                    let mhat = m[i] / bc1;
                    let vhat = v[i] / bc2;
                    w[i] -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
                }
            }
            for (i, (w, m, v)) in want.iter().enumerate() {
                let (gw, gm, gv) = store.raw_parts(i);
                for (got, exp) in [(gw, w), (gm, m), (gv, v)] {
                    let same = got
                        .data()
                        .iter()
                        .zip(exp)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "step {step}, parameter {i} diverged from the reference"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_grads_panic() {
        let mut store = ParamStore::new();
        let _ = store.add(Tensor::scalar(1.0));
        store.adam_step(&[], &AdamConfig::default());
    }
}
