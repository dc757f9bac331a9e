//! Data-parallel gradient accumulation over the shared worker pool.
//!
//! [`GradAccumulator`] is the persistent form: it owns one tape +
//! gradient buffer per batch chunk and reuses them (graphs reset into
//! their arenas, gradient buffers zeroed in place) across training
//! steps, so a steady-state loop allocates nothing. The free function
//! [`parallel_grad_accumulate`] remains as the one-shot wrapper with the
//! historical signature.
//!
//! Determinism: the batch is split into `threads` contiguous chunks
//! (sizes `ceil(len/threads)`, exactly as the original scoped-thread
//! implementation) and partial losses/gradients are merged in chunk
//! order — so results depend only on the `threads` *argument*, never on
//! the pool's worker count or scheduling (DESIGN.md Contract 9).

use crate::graph::{Graph, Var};
use crate::param::ParamStore;
use crate::tensor::Tensor;
use cv_pool::WorkerPool;

/// Per-chunk worker state: a reusable tape and an aligned gradient
/// buffer.
struct Slot {
    graph: Graph,
    grads: Vec<Tensor>,
    loss: f32,
}

/// A reusable data-parallel gradient accumulator (see module docs).
#[derive(Default)]
pub struct GradAccumulator {
    slots: Vec<Slot>,
}

impl GradAccumulator {
    /// An accumulator with no slots yet; they are created (and then
    /// reused) by [`GradAccumulator::run`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures `self.slots[..n]` exist with gradient buffers aligned to
    /// `store`, zeroing buffers in place when shapes already match.
    fn prepare_slots(&mut self, n: usize, store: &ParamStore) {
        while self.slots.len() < n {
            self.slots.push(Slot {
                graph: Graph::new(),
                grads: store.zero_grads(),
                loss: 0.0,
            });
        }
        for slot in &mut self.slots[..n] {
            let aligned = slot.grads.len() == store.len()
                && slot
                    .grads
                    .iter()
                    .enumerate()
                    .all(|(i, t)| t.shape() == store.raw_parts(i).0.shape());
            if aligned {
                for t in &mut slot.grads {
                    t.data_mut().fill(0.0);
                }
            } else {
                slot.grads = store.zero_grads();
            }
            slot.loss = 0.0;
        }
    }

    /// Splits `items` across `threads` contiguous chunks; each chunk
    /// builds its own tape with `forward` (which must return the **sum**,
    /// not mean, of the per-item losses so the merged gradient is exact),
    /// runs backward, and accumulates parameter gradients. Returns the
    /// total loss; the merged gradients are available from
    /// [`GradAccumulator::grads`] until the next call.
    ///
    /// Scaling of the loss (e.g. dividing by batch size) is the caller's
    /// choice, applied inside `forward` via per-item weights or afterwards
    /// by scaling the gradient buffer.
    pub fn run<T: Sync>(
        &mut self,
        store: &ParamStore,
        items: &[T],
        threads: usize,
        forward: impl Fn(&mut Graph, &ParamStore, &[T]) -> Var + Sync,
    ) -> f32 {
        // Degenerate inputs must not reach `forward` or the chunker:
        // an empty batch has zero loss and zero gradients by definition
        // (callers' `forward` closures routinely index `part[0]`), and
        // `threads` outside `1..=items.len()` is clamped.
        if crate::gemm::reference_kernels() {
            // A/B baseline fidelity: the seed engine rebuilt its tapes
            // and gradient buffers from scratch every step.
            self.slots.clear();
        }
        if items.is_empty() {
            self.prepare_slots(1, store);
            return 0.0;
        }
        let threads = threads.clamp(1, items.len());
        let chunk_len = items.len().div_ceil(threads);
        let n_chunks = items.len().div_ceil(chunk_len);
        self.prepare_slots(n_chunks, store);
        let worker = |slot: &mut Slot, part: &[T]| {
            slot.graph.reset();
            let loss = forward(&mut slot.graph, store, part);
            let grads = slot.graph.backward(loss);
            slot.graph.accumulate_param_grads(&grads, &mut slot.grads);
            slot.loss = slot.graph.value(loss).item();
            slot.graph.recycle_grads(grads);
        };
        if n_chunks == 1 {
            worker(&mut self.slots[0], items);
        } else {
            WorkerPool::global().scatter(&mut self.slots[..n_chunks], 1, |c, chunk_slots| {
                let part = &items[c * chunk_len..((c + 1) * chunk_len).min(items.len())];
                worker(&mut chunk_slots[0], part);
            });
        }
        // Merge in chunk order (chunk 0 is the accumulation target).
        let (head, rest) = self.slots[..n_chunks].split_at_mut(1);
        let mut total = head[0].loss;
        for slot in rest {
            total += slot.loss;
            for (a, b) in head[0].grads.iter_mut().zip(&slot.grads) {
                a.add_assign(b);
            }
        }
        total
    }

    /// The merged gradients of the last [`GradAccumulator::run`], aligned
    /// with the store it ran against.
    pub fn grads(&self) -> &[Tensor] {
        &self.slots[0].grads
    }

    /// Mutable access to the merged gradients (e.g. for loss scaling
    /// before an optimizer step).
    pub fn grads_mut(&mut self) -> &mut [Tensor] {
        &mut self.slots[0].grads
    }

    /// Consumes the accumulator, returning the merged gradient buffer.
    pub fn into_grads(mut self) -> Vec<Tensor> {
        if self.slots.is_empty() {
            Vec::new()
        } else {
            std::mem::take(&mut self.slots[0].grads)
        }
    }
}

/// One-shot data-parallel gradient accumulation: builds a throwaway
/// [`GradAccumulator`], runs it once, and returns `(total_loss, grads)`.
/// Training loops should hold a `GradAccumulator` instead to amortize
/// tape and buffer allocation across steps.
pub fn parallel_grad_accumulate<T: Sync>(
    store: &ParamStore,
    items: &[T],
    threads: usize,
    forward: impl Fn(&mut Graph, &ParamStore, &[T]) -> Var + Sync,
) -> (f32, Vec<Tensor>) {
    let mut acc = GradAccumulator::new();
    let loss = acc.run(store, items, threads, forward);
    (loss, acc.into_grads())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The parallel result must equal the serial result exactly in
    /// structure (up to float addition order).
    #[test]
    fn parallel_matches_serial() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut store, 3, 1, &mut rng);
        let items: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32, 1.0, -0.5]).collect();

        let forward = |g: &mut Graph, store: &ParamStore, part: &[Vec<f32>]| {
            let rows = part.len();
            let data: Vec<f32> = part.iter().flatten().copied().collect();
            let x = g.input(Tensor::new([rows, 3], data));
            let y = lin.forward(g, store, x);
            let sq = g.mul(y, y);
            g.sum(sq)
        };

        let (l1, g1) = parallel_grad_accumulate(&store, &items, 1, forward);
        let (l4, g4) = parallel_grad_accumulate(&store, &items, 4, forward);
        assert!((l1 - l4).abs() < 1e-3 * l1.abs().max(1.0), "{l1} vs {l4}");
        for (a, b) in g1.iter().zip(&g4) {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1e-3 * x.abs().max(1.0), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn degenerate_thread_counts_and_empty_batches_are_safe() {
        // Regression: `threads == 0`, `threads > items.len()`, and an
        // empty batch must all be handled without panicking, and the
        // thread count must never change the result structure.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let lin = Linear::new(&mut store, 3, 1, &mut rng);
        let items: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32, -1.0, 0.25]).collect();
        let forward = |g: &mut Graph, store: &ParamStore, part: &[Vec<f32>]| {
            let rows = part.len();
            let data: Vec<f32> = part.iter().flatten().copied().collect();
            let x = g.input(Tensor::new([rows, 3], data));
            let y = lin.forward(g, store, x);
            let sq = g.mul(y, y);
            g.sum(sq)
        };
        let (l_ref, g_ref) = parallel_grad_accumulate(&store, &items, 1, forward);
        for threads in [0, 2, items.len(), items.len() + 1, 64] {
            let (l, g) = parallel_grad_accumulate(&store, &items, threads, forward);
            assert!(
                (l - l_ref).abs() < 1e-3 * l_ref.abs().max(1.0),
                "threads={threads}: {l} vs {l_ref}"
            );
            assert_eq!(g.len(), g_ref.len(), "threads={threads}");
        }
        // Empty batch: zero loss, zeroed gradient buffer, `forward`
        // never called (it would index part[0]).
        let empty: Vec<Vec<f32>> = Vec::new();
        for threads in [0, 1, 8] {
            let (l, g) = parallel_grad_accumulate(&store, &empty, threads, forward);
            assert_eq!(l, 0.0);
            assert_eq!(g.len(), store.len());
            assert!(g.iter().all(|t| t.data().iter().all(|&x| x == 0.0)));
        }
    }

    #[test]
    fn single_item_fast_path() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut store, 2, 1, &mut rng);
        let items = vec![vec![1.0f32, 2.0]];
        let (_, grads) = parallel_grad_accumulate(&store, &items, 8, |g, store, part| {
            let x = g.input(Tensor::new([1, 2], part[0].clone()));
            let y = lin.forward(g, store, x);
            g.sum(y)
        });
        assert_eq!(grads.len(), store.len());
    }

    #[test]
    fn reused_accumulator_matches_one_shot_bitwise() {
        // The persistent accumulator (recycled tapes + zeroed-in-place
        // buffers) must produce bit-identical losses and gradients to
        // fresh one-shot runs, step after step.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let lin = Linear::new(&mut store, 4, 2, &mut rng);
        let forward = |g: &mut Graph, store: &ParamStore, part: &[Vec<f32>]| {
            let rows = part.len();
            let data: Vec<f32> = part.iter().flatten().copied().collect();
            let x = g.input(Tensor::new([rows, 4], data));
            let y = lin.forward(g, store, x);
            let sq = g.mul(y, y);
            g.sum(sq)
        };
        let mut acc = GradAccumulator::new();
        for step in 0..4 {
            let items: Vec<Vec<f32>> = (0..7)
                .map(|i| vec![i as f32 + step as f32, -1.0, 0.5, 2.0])
                .collect();
            let loss = acc.run(&store, &items, 3, forward);
            let (loss_ref, grads_ref) = parallel_grad_accumulate(&store, &items, 3, forward);
            assert_eq!(loss.to_bits(), loss_ref.to_bits(), "step {step}");
            for (a, b) in acc.grads().iter().zip(&grads_ref) {
                assert_eq!(a.shape(), b.shape());
                assert!(
                    a.data()
                        .iter()
                        .zip(b.data())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "step {step}"
                );
            }
        }
    }
}
