//! Reverse-mode automatic differentiation on a per-forward-pass tape.
//!
//! A [`Graph`] is built eagerly: every op computes its value at
//! construction time and records what it needs for the backward pass.
//! Calling [`Graph::backward`] produces gradients for every node, from
//! which parameter gradients (by [`ParamId`]) or input gradients (for
//! latent-space search) can be extracted.
//!
//! Two performance layers sit underneath the tape, both bit-transparent:
//!
//! * Heavy ops (matmul forward/backward, conv2d forward/backward) run on
//!   the [`crate::gemm`] compute core — cache-blocked, pool-parallel
//!   kernels that are bit-identical to the retained naive references
//!   (DESIGN.md Contract 9). [`crate::gemm::set_reference_kernels`]
//!   routes them back to the naive kernels for A/B benchmarks.
//! * Every tensor buffer (node values, backward intermediates, kernel
//!   scratch) is drawn from a per-graph [`ScratchArena`]; [`Graph::reset`]
//!   recycles the whole tape, so a steady-state training loop allocates
//!   nothing after its first step.

use crate::arena::ScratchArena;
use crate::gemm::{self, ConvShape};
use crate::param::{ParamId, ParamStore};
use crate::tensor::Tensor;
use std::cell::RefCell;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    Input,
    Param(ParamId),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Neg(usize),
    // The scalar is recorded for debuggability; backward is identity.
    AddScalar(usize, #[allow(dead_code)] f32),
    MulScalar(usize, f32),
    Matmul(usize, usize),
    AddBias(usize, usize),
    AddChanBias(usize, usize),
    Relu(usize),
    Tanh(usize),
    Sigmoid(usize),
    Exp(usize),
    Sum(usize),
    RowScale(usize, usize),
    BceLogits {
        logits: usize,
        targets: usize,
    },
    Conv2d {
        x: usize,
        w: usize,
        stride: usize,
        pad: usize,
    },
    Upsample2x(usize),
    Crop2d {
        x: usize,
        h: usize,
        w: usize,
    },
    Reshape(usize),
}

struct Node {
    value: Tensor,
    op: Op,
}

/// Gradients of one backward pass, indexed by node.
pub struct Grads {
    by_node: Vec<Option<Tensor>>,
}

impl Grads {
    /// Gradient of the loss with respect to `var` (zeros if the node did
    /// not influence the loss).
    pub fn of(&self, var: Var, graph: &Graph) -> Tensor {
        self.by_node[var.0]
            .clone()
            .unwrap_or_else(|| Tensor::zeros(graph.nodes[var.0].value.shape().to_vec()))
    }
}

/// A computation tape.
pub struct Graph {
    nodes: Vec<Node>,
    // RefCell: ops allocate through `&self` borrows of neighbour values;
    // the arena is an allocation detail, never part of observable state.
    scratch: RefCell<ScratchArena>,
}

impl Graph {
    /// Creates an empty tape with a fresh buffer arena.
    pub fn new() -> Self {
        Self::with_arena(ScratchArena::new())
    }

    /// Creates an empty tape that allocates from `arena` (e.g. one
    /// recovered from a previous graph via [`Graph::into_arena`]).
    pub fn with_arena(arena: ScratchArena) -> Self {
        Graph {
            nodes: Vec::with_capacity(64),
            scratch: RefCell::new(arena),
        }
    }

    /// Clears the tape and recycles every node buffer into the arena, so
    /// the next forward pass reuses this graph's allocations. Handles
    /// ([`Var`]) from before the reset must not be used afterwards.
    pub fn reset(&mut self) {
        let scratch = self.scratch.get_mut();
        for node in self.nodes.drain(..) {
            scratch.give(node.value.into_data());
        }
    }

    /// Consumes the graph, returning its arena (tape buffers included)
    /// for reuse by a successor graph.
    pub fn into_arena(mut self) -> ScratchArena {
        self.reset();
        self.scratch.into_inner()
    }

    /// Recycles a [`Grads`] produced by [`Graph::backward`] into the
    /// arena once the caller has consumed it (e.g. after
    /// [`Graph::accumulate_param_grads`]).
    pub fn recycle_grads(&self, grads: Grads) {
        let mut scratch = self.scratch.borrow_mut();
        for t in grads.by_node.into_iter().flatten() {
            scratch.give(t.into_data());
        }
    }

    // In reference-kernel mode (`gemm::set_reference_kernels`) the
    // allocator helpers bypass the arena: the A/B baseline is the *seed*
    // engine, which allocated one fresh buffer per op. Values are
    // unaffected either way.

    fn alloc_empty(&self, cap: usize) -> Vec<f32> {
        if gemm::reference_kernels() {
            Vec::with_capacity(cap)
        } else {
            self.scratch.borrow_mut().take_empty(cap)
        }
    }

    fn alloc_zeroed(&self, len: usize) -> Vec<f32> {
        if gemm::reference_kernels() {
            vec![0.0; len]
        } else {
            self.scratch.borrow_mut().take_zeroed(len)
        }
    }

    fn give(&self, v: Vec<f32>) {
        if !gemm::reference_kernels() {
            self.scratch.borrow_mut().give(v);
        }
    }

    /// An arena-backed copy of `t`.
    fn copy_of(&self, t: &Tensor) -> Tensor {
        let mut data = self.alloc_empty(t.numel());
        data.extend_from_slice(t.data());
        Tensor::new(t.shape().to_vec(), data)
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// The current value of a node.
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.0].value
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Injects a constant/input tensor (gradients are still computed for
    /// it, enabling input-space optimization such as latent search).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Input)
    }

    /// Injects a parameter from `store`; its gradient can later be
    /// collected with [`Graph::accumulate_param_grads`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let value = self.copy_of(store.value(id));
        self.push(value, Op::Param(id))
    }

    /// Elementwise sum. Shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(ta.shape(), tb.shape(), "add shape mismatch");
        let mut data = self.alloc_empty(ta.numel());
        data.extend(ta.data().iter().zip(tb.data()).map(|(x, y)| x + y));
        let t = Tensor::new(ta.shape().to_vec(), data);
        self.push(t, Op::Add(a.0, b.0))
    }

    /// Elementwise difference. Shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(ta.shape(), tb.shape(), "sub shape mismatch");
        let mut data = self.alloc_empty(ta.numel());
        data.extend(ta.data().iter().zip(tb.data()).map(|(x, y)| x - y));
        let t = Tensor::new(ta.shape().to_vec(), data);
        self.push(t, Op::Sub(a.0, b.0))
    }

    /// Elementwise product. Shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(ta.shape(), tb.shape(), "mul shape mismatch");
        let mut data = self.alloc_empty(ta.numel());
        data.extend(ta.data().iter().zip(tb.data()).map(|(x, y)| x * y));
        let t = Tensor::new(ta.shape().to_vec(), data);
        self.push(t, Op::Mul(a.0, b.0))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        let ta = &self.nodes[a.0].value;
        let mut data = self.alloc_empty(ta.numel());
        data.extend(ta.data().iter().map(|x| -x));
        let t = Tensor::new(ta.shape().to_vec(), data);
        self.push(t, Op::Neg(a.0))
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let ta = &self.nodes[a.0].value;
        let mut data = self.alloc_empty(ta.numel());
        data.extend(ta.data().iter().map(|x| x + s));
        let t = Tensor::new(ta.shape().to_vec(), data);
        self.push(t, Op::AddScalar(a.0, s))
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&mut self, a: Var, s: f32) -> Var {
        let ta = &self.nodes[a.0].value;
        let mut data = self.alloc_empty(ta.numel());
        data.extend(ta.data().iter().map(|x| x * s));
        let t = Tensor::new(ta.shape().to_vec(), data);
        self.push(t, Op::MulScalar(a.0, s))
    }

    /// Matrix product `[m,k] × [k,n] → [m,n]` on the compute core.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (ta, tb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let (sa, sb) = (ta.shape(), tb.shape());
        assert!(
            sa.len() == 2 && sb.len() == 2 && sa[1] == sb[0],
            "matmul {sa:?} × {sb:?}"
        );
        let (m, k, n) = (sa[0], sa[1], sb[1]);
        let mut out = self.alloc_zeroed(m * n);
        if gemm::reference_kernels() {
            gemm::reference::gemm_nn(&mut out, ta.data(), tb.data(), m, k, n);
        } else {
            gemm::gemm_nn(&mut out, ta.data(), tb.data(), m, k, n);
        }
        let t = Tensor::new(vec![m, n], out);
        self.push(t, Op::Matmul(a.0, b.0))
    }

    /// Broadcast bias add: `[r, c] + [c]`.
    pub fn add_bias(&mut self, x: Var, b: Var) -> Var {
        let (tx, tb) = (&self.nodes[x.0].value, &self.nodes[b.0].value);
        let (sx, sb) = (tx.shape(), tb.shape());
        assert!(
            sx.len() == 2 && sb.len() == 1 && sx[1] == sb[0],
            "add_bias {sx:?} + {sb:?}"
        );
        let c = sx[1];
        let mut data = self.alloc_empty(tx.numel());
        data.extend_from_slice(tx.data());
        if gemm::reference_kernels() {
            // Seed implementation (A/B baseline): flat modulo indexing.
            for (i, v) in data.iter_mut().enumerate() {
                *v += tb.data()[i % c];
            }
        } else {
            for row in data.chunks_exact_mut(c) {
                for (v, &bv) in row.iter_mut().zip(tb.data()) {
                    *v += bv;
                }
            }
        }
        let t = Tensor::new(sx.to_vec(), data);
        self.push(t, Op::AddBias(x.0, b.0))
    }

    /// Channel bias add: `[b, c, h, w] + [c]`.
    pub fn add_chan_bias(&mut self, x: Var, b: Var) -> Var {
        let (tx, tb) = (&self.nodes[x.0].value, &self.nodes[b.0].value);
        let (sx, sb) = (tx.shape().to_vec(), tb.shape());
        assert!(
            sx.len() == 4 && sb.len() == 1 && sx[1] == sb[0],
            "add_chan_bias {sx:?} + {sb:?}"
        );
        let hw = sx[2] * sx[3];
        let mut data = self.alloc_empty(tx.numel());
        data.extend_from_slice(tx.data());
        if gemm::reference_kernels() {
            // Seed implementation (A/B baseline): div/mod per element.
            for (i, v) in data.iter_mut().enumerate() {
                *v += tb.data()[(i / hw) % sx[1]];
            }
        } else if hw > 0 {
            for (idx, plane) in data.chunks_exact_mut(hw).enumerate() {
                let bv = tb.data()[idx % sx[1]];
                for v in plane {
                    *v += bv;
                }
            }
        }
        let t = Tensor::new(sx, data);
        self.push(t, Op::AddChanBias(x.0, b.0))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let ta = &self.nodes[a.0].value;
        let mut data = self.alloc_empty(ta.numel());
        data.extend(ta.data().iter().map(|x| x.max(0.0)));
        let t = Tensor::new(ta.shape().to_vec(), data);
        self.push(t, Op::Relu(a.0))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let ta = &self.nodes[a.0].value;
        let mut data = self.alloc_empty(ta.numel());
        data.extend(ta.data().iter().map(|x| x.tanh()));
        let t = Tensor::new(ta.shape().to_vec(), data);
        self.push(t, Op::Tanh(a.0))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let ta = &self.nodes[a.0].value;
        let mut data = self.alloc_empty(ta.numel());
        data.extend(ta.data().iter().map(|x| 1.0 / (1.0 + (-x).exp())));
        let t = Tensor::new(ta.shape().to_vec(), data);
        self.push(t, Op::Sigmoid(a.0))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let ta = &self.nodes[a.0].value;
        let mut data = self.alloc_empty(ta.numel());
        data.extend(ta.data().iter().map(|x| x.exp()));
        let t = Tensor::new(ta.shape().to_vec(), data);
        self.push(t, Op::Exp(a.0))
    }

    /// Sum of all elements → scalar.
    pub fn sum(&mut self, a: Var) -> Var {
        let s: f32 = self.nodes[a.0].value.data().iter().sum();
        self.push(Tensor::scalar(s), Op::Sum(a.0))
    }

    /// Scales each row `i` of `x` (first axis) by `w[i]`.
    pub fn row_scale(&mut self, x: Var, w: Var) -> Var {
        let (tx, tw) = (&self.nodes[x.0].value, &self.nodes[w.0].value);
        let rows = tx.shape()[0];
        assert_eq!(tw.shape(), &[rows], "row_scale weight shape");
        let stride = tx.numel() / rows;
        let mut data = self.alloc_empty(tx.numel());
        data.extend_from_slice(tx.data());
        for r in 0..rows {
            let s = tw.data()[r];
            for v in &mut data[r * stride..(r + 1) * stride] {
                *v *= s;
            }
        }
        let t = Tensor::new(tx.shape().to_vec(), data);
        self.push(t, Op::RowScale(x.0, w.0))
    }

    /// Per-element binary cross-entropy with logits:
    /// `max(z,0) − z·y + ln(1 + e^(−|z|))`. Numerically stable.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Var) -> Var {
        let (tz, ty) = (&self.nodes[logits.0].value, &self.nodes[targets.0].value);
        assert_eq!(tz.shape(), ty.shape(), "bce shape mismatch");
        let mut data = self.alloc_empty(tz.numel());
        data.extend(
            tz.data()
                .iter()
                .zip(ty.data())
                .map(|(&z, &y)| z.max(0.0) - z * y + (1.0 + (-z.abs()).exp()).ln()),
        );
        let t = Tensor::new(tz.shape().to_vec(), data);
        self.push(
            t,
            Op::BceLogits {
                logits: logits.0,
                targets: targets.0,
            },
        )
    }

    /// 2-D convolution: `x [b, cin, h, w]` with `w [cout, cin, kh, kw]`,
    /// zero padding `pad`, stride `stride` — run by the compute core's
    /// conv kernels (channel-blocked direct kernels for 3×3, im2col for
    /// other sizes), with kernel scratch drawn from the graph's arena.
    pub fn conv2d(&mut self, x: Var, w: Var, stride: usize, pad: usize) -> Var {
        let (tx, tw) = (&self.nodes[x.0].value, &self.nodes[w.0].value);
        let shape = ConvShape::from_shapes(tx.shape(), tw.shape(), stride, pad);
        let out_shape = vec![shape.batch, shape.cout, shape.oh(), shape.ow()];
        let t = {
            let mut scratch = self.scratch.borrow_mut();
            let mut out = scratch.take_zeroed(shape.batch * shape.cout * shape.oh() * shape.ow());
            if gemm::reference_kernels() {
                gemm::reference::conv2d_forward(&mut out, tx.data(), tw.data(), &shape);
            } else {
                gemm::conv2d_forward_into(&mut out, tx.data(), tw.data(), &shape, &mut scratch);
            }
            Tensor::new(out_shape, out)
        };
        self.push(
            t,
            Op::Conv2d {
                x: x.0,
                w: w.0,
                stride,
                pad,
            },
        )
    }

    /// Nearest-neighbour 2× upsampling of `[b, c, h, w]`.
    pub fn upsample2x(&mut self, x: Var) -> Var {
        let tx = &self.nodes[x.0].value;
        let s = tx.shape();
        assert_eq!(s.len(), 4, "upsample2x expects 4-D input");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        let (oh, ow) = (2 * h, 2 * w);
        let mut out = self.alloc_zeroed(b * c * 4 * h * w);
        for bc in 0..b * c {
            let src = &tx.data()[bc * h * w..(bc + 1) * h * w];
            let dst = &mut out[bc * oh * ow..(bc + 1) * oh * ow];
            if gemm::reference_kernels() {
                // Seed implementation (A/B baseline): divisions per cell.
                for i in 0..oh {
                    for j in 0..ow {
                        dst[i * ow + j] = src[(i / 2) * w + j / 2];
                    }
                }
            } else {
                for si in 0..h {
                    let srow = &src[si * w..(si + 1) * w];
                    let rows = &mut dst[2 * si * ow..(2 * si + 2) * ow];
                    let (d0, d1) = rows.split_at_mut(ow);
                    for (j, &v) in srow.iter().enumerate() {
                        d0[2 * j] = v;
                        d0[2 * j + 1] = v;
                    }
                    d1.copy_from_slice(d0);
                }
            }
        }
        let t = Tensor::new(vec![b, c, oh, ow], out);
        self.push(t, Op::Upsample2x(x.0))
    }

    /// Crops `[b, c, H, W]` to its top-left `[b, c, h, w]` corner.
    pub fn crop2d(&mut self, x: Var, h: usize, w: usize) -> Var {
        let tx = &self.nodes[x.0].value;
        let s = tx.shape();
        assert_eq!(s.len(), 4, "crop2d expects 4-D input");
        if h == s[2] && w == s[3] && !gemm::reference_kernels() {
            // No-op crop (even widths): forward is a copy and backward a
            // pass-through, so eliding the node is bit-transparent. The
            // reference baseline keeps the seed's materialized copy.
            return x;
        }
        assert!(
            h <= s[2] && w <= s[3],
            "crop {h}×{w} exceeds {}×{}",
            s[2],
            s[3]
        );
        let (b, c, ih, iw) = (s[0], s[1], s[2], s[3]);
        let mut out = self.alloc_empty(b * c * h * w);
        for bc in 0..b * c {
            let src = &tx.data()[bc * ih * iw..(bc + 1) * ih * iw];
            for i in 0..h {
                out.extend_from_slice(&src[i * iw..i * iw + w]);
            }
        }
        let t = Tensor::new(vec![b, c, h, w], out);
        self.push(t, Op::Crop2d { x: x.0, h, w })
    }

    /// Reinterprets shape without moving data.
    pub fn reshape(&mut self, x: Var, shape: impl Into<Vec<usize>>) -> Var {
        let tx = &self.nodes[x.0].value;
        let shape = shape.into();
        let numel: usize = shape.iter().product();
        assert_eq!(numel, tx.numel(), "reshape {:?} -> {:?}", tx.shape(), shape);
        let mut data = self.alloc_empty(tx.numel());
        data.extend_from_slice(tx.data());
        let t = Tensor::new(shape, data);
        self.push(t, Op::Reshape(x.0))
    }

    /// Runs the backward pass from scalar node `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar.
    pub fn backward(&self, loss: Var) -> Grads {
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward from non-scalar"
        );
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::scalar(1.0));
        for idx in (0..self.nodes.len()).rev() {
            let Some(gout) = grads[idx].take() else {
                continue;
            };
            self.propagate(idx, &gout, &mut grads);
            grads[idx] = Some(gout);
        }
        Grads { by_node: grads }
    }

    /// Adds each parameter node's gradient into `out[param_id]`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the largest parameter id used.
    pub fn accumulate_param_grads(&self, grads: &Grads, out: &mut [Tensor]) {
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Op::Param(pid) = node.op {
                if let Some(g) = &grads.by_node[idx] {
                    out[pid.index()].add_assign(g);
                }
            }
        }
    }

    /// Merges `delta` into the gradient slot for node `idx`, recycling
    /// the delta buffer when the slot already holds a tensor.
    fn accum(&self, grads: &mut [Option<Tensor>], idx: usize, delta: Tensor) {
        match &mut grads[idx] {
            Some(t) => {
                t.add_assign(&delta);
                self.give(delta.into_data());
            }
            slot @ None => *slot = Some(delta),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn propagate(&self, idx: usize, gout: &Tensor, grads: &mut [Option<Tensor>]) {
        let node = &self.nodes[idx];
        match node.op {
            Op::Input | Op::Param(_) => {}
            Op::Add(a, b) => {
                self.accum(grads, a, self.copy_of(gout));
                self.accum(grads, b, self.copy_of(gout));
            }
            Op::Sub(a, b) => {
                self.accum(grads, a, self.copy_of(gout));
                let mut gb = self.copy_of(gout);
                gb.scale(-1.0);
                self.accum(grads, b, gb);
            }
            Op::Mul(a, b) => {
                let (ta, tb) = (&self.nodes[a].value, &self.nodes[b].value);
                let mut ga = self.alloc_empty(ta.numel());
                ga.extend(gout.data().iter().zip(tb.data()).map(|(g, y)| g * y));
                let mut gb = self.alloc_empty(tb.numel());
                gb.extend(gout.data().iter().zip(ta.data()).map(|(g, x)| g * x));
                self.accum(grads, a, Tensor::new(ta.shape().to_vec(), ga));
                self.accum(grads, b, Tensor::new(tb.shape().to_vec(), gb));
            }
            Op::Neg(a) => {
                let mut g = self.copy_of(gout);
                g.scale(-1.0);
                self.accum(grads, a, g);
            }
            Op::AddScalar(a, _) => self.accum(grads, a, self.copy_of(gout)),
            Op::MulScalar(a, s) => {
                let mut g = self.copy_of(gout);
                g.scale(s);
                self.accum(grads, a, g);
            }
            Op::Matmul(a, b) => {
                let (ta, tb) = (&self.nodes[a].value, &self.nodes[b].value);
                let (m, k) = (ta.shape()[0], ta.shape()[1]);
                let n = tb.shape()[1];
                // ga = gout × tbᵀ, gb = taᵀ × gout — on the compute core.
                let mut ga = self.alloc_zeroed(m * k);
                let mut gb = self.alloc_zeroed(k * n);
                if gemm::reference_kernels() {
                    gemm::reference::gemm_nt(&mut ga, gout.data(), tb.data(), m, n, k);
                    gemm::reference::gemm_tn(&mut gb, ta.data(), gout.data(), m, k, n);
                } else {
                    gemm::gemm_nt(&mut ga, gout.data(), tb.data(), m, n, k);
                    gemm::gemm_tn(&mut gb, ta.data(), gout.data(), m, k, n);
                }
                self.accum(grads, a, Tensor::new(vec![m, k], ga));
                self.accum(grads, b, Tensor::new(vec![k, n], gb));
            }
            Op::AddBias(x, b) => {
                self.accum(grads, x, self.copy_of(gout));
                let c = self.nodes[b].value.shape()[0];
                let mut gb = self.alloc_zeroed(c);
                if gemm::reference_kernels() {
                    for (i, g) in gout.data().iter().enumerate() {
                        gb[i % c] += g;
                    }
                } else {
                    // Row-structured reduction: for each column the adds
                    // run in ascending row order, exactly like the flat
                    // `i % c` indexing it replaces.
                    for row in gout.data().chunks_exact(c) {
                        for (a, g) in gb.iter_mut().zip(row) {
                            *a += g;
                        }
                    }
                }
                self.accum(grads, b, Tensor::new(vec![c], gb));
            }
            Op::AddChanBias(x, b) => {
                self.accum(grads, x, self.copy_of(gout));
                let sx = self.nodes[x].value.shape().to_vec();
                let hw = sx[2] * sx[3];
                let c = sx[1];
                let mut gb = self.alloc_zeroed(c);
                if gemm::reference_kernels() {
                    for (i, g) in gout.data().iter().enumerate() {
                        gb[(i / hw) % c] += g;
                    }
                } else if hw > 0 {
                    for (idx, plane) in gout.data().chunks_exact(hw).enumerate() {
                        let slot = &mut gb[idx % c];
                        let mut s = *slot;
                        for &g in plane {
                            s += g;
                        }
                        *slot = s;
                    }
                }
                self.accum(grads, b, Tensor::new(vec![c], gb));
            }
            Op::Relu(a) => {
                let ta = &self.nodes[a].value;
                let mut g = self.alloc_empty(ta.numel());
                g.extend(
                    gout.data()
                        .iter()
                        .zip(ta.data())
                        .map(|(g, x)| if *x > 0.0 { *g } else { 0.0 }),
                );
                self.accum(grads, a, Tensor::new(ta.shape().to_vec(), g));
            }
            Op::Tanh(a) => {
                let ty = &node.value;
                let mut g = self.alloc_empty(ty.numel());
                g.extend(
                    gout.data()
                        .iter()
                        .zip(ty.data())
                        .map(|(g, y)| g * (1.0 - y * y)),
                );
                self.accum(grads, a, Tensor::new(ty.shape().to_vec(), g));
            }
            Op::Sigmoid(a) => {
                let ty = &node.value;
                let mut g = self.alloc_empty(ty.numel());
                g.extend(
                    gout.data()
                        .iter()
                        .zip(ty.data())
                        .map(|(g, y)| g * y * (1.0 - y)),
                );
                self.accum(grads, a, Tensor::new(ty.shape().to_vec(), g));
            }
            Op::Exp(a) => {
                let ty = &node.value;
                let mut g = self.alloc_empty(ty.numel());
                g.extend(gout.data().iter().zip(ty.data()).map(|(g, y)| g * y));
                self.accum(grads, a, Tensor::new(ty.shape().to_vec(), g));
            }
            Op::Sum(a) => {
                let s = gout.item();
                let src = &self.nodes[a].value;
                let mut data = self.alloc_empty(src.numel());
                data.resize(src.numel(), s);
                self.accum(grads, a, Tensor::new(src.shape().to_vec(), data));
            }
            #[allow(clippy::needless_range_loop)]
            Op::RowScale(x, w) => {
                let (tx, tw) = (&self.nodes[x].value, &self.nodes[w].value);
                let rows = tx.shape()[0];
                let stride = tx.numel() / rows;
                let mut gx = self.alloc_empty(tx.numel());
                gx.extend_from_slice(gout.data());
                let mut gw = self.alloc_zeroed(rows);
                for r in 0..rows {
                    let s = tw.data()[r];
                    for k in 0..stride {
                        let i = r * stride + k;
                        gw[r] += gout.data()[i] * tx.data()[i];
                        gx[i] *= s;
                    }
                }
                self.accum(grads, x, Tensor::new(tx.shape().to_vec(), gx));
                self.accum(grads, w, Tensor::new(vec![rows], gw));
            }
            Op::BceLogits { logits, targets } => {
                let (tz, ty) = (&self.nodes[logits].value, &self.nodes[targets].value);
                let mut gz = self.alloc_empty(tz.numel());
                gz.extend(
                    gout.data()
                        .iter()
                        .zip(tz.data().iter().zip(ty.data()))
                        .map(|(g, (&z, &y))| g * (1.0 / (1.0 + (-z).exp()) - y)),
                );
                self.accum(grads, logits, Tensor::new(tz.shape().to_vec(), gz));
                let mut gy = self.alloc_empty(ty.numel());
                gy.extend(gout.data().iter().zip(tz.data()).map(|(g, &z)| g * (-z)));
                self.accum(grads, targets, Tensor::new(ty.shape().to_vec(), gy));
            }
            Op::Conv2d { x, w, stride, pad } => {
                let (tx, tw) = (&self.nodes[x].value, &self.nodes[w].value);
                let shape = ConvShape::from_shapes(tx.shape(), tw.shape(), stride, pad);
                let (gx_t, gw_t) = {
                    let mut scratch = self.scratch.borrow_mut();
                    let mut gx = scratch.take_zeroed(tx.numel());
                    let mut gw = scratch.take_zeroed(tw.numel());
                    if gemm::reference_kernels() {
                        gemm::reference::conv2d_backward(
                            &mut gx,
                            &mut gw,
                            tx.data(),
                            tw.data(),
                            gout.data(),
                            &shape,
                        );
                    } else {
                        gemm::conv2d_backward_into(
                            &mut gx,
                            &mut gw,
                            tx.data(),
                            tw.data(),
                            gout.data(),
                            &shape,
                            &mut scratch,
                        );
                    }
                    (
                        Tensor::new(tx.shape().to_vec(), gx),
                        Tensor::new(tw.shape().to_vec(), gw),
                    )
                };
                self.accum(grads, x, gx_t);
                self.accum(grads, w, gw_t);
            }
            Op::Upsample2x(x) => {
                let s = self.nodes[x].value.shape().to_vec();
                let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
                let (oh, ow) = (2 * h, 2 * w);
                let mut gx = self.alloc_zeroed(b * c * h * w);
                for bc in 0..b * c {
                    let src = &gout.data()[bc * oh * ow..(bc + 1) * oh * ow];
                    let dst = &mut gx[bc * h * w..(bc + 1) * h * w];
                    if gemm::reference_kernels() {
                        for i in 0..oh {
                            for j in 0..ow {
                                dst[(i / 2) * w + j / 2] += src[i * ow + j];
                            }
                        }
                    } else {
                        // Row-structured 2×2 pooling of the gradient;
                        // each target element's adds keep the flat (i, j)
                        // order.
                        for i in 0..oh {
                            let srow = &src[i * ow..(i + 1) * ow];
                            let drow = &mut dst[(i / 2) * w..(i / 2 + 1) * w];
                            for (sj, d) in drow.iter_mut().enumerate() {
                                let a = *d + srow[2 * sj];
                                *d = a + srow[2 * sj + 1];
                            }
                        }
                    }
                }
                self.accum(grads, x, Tensor::new(s, gx));
            }
            Op::Crop2d { x, h, w } => {
                let s = self.nodes[x].value.shape().to_vec();
                let (b, c, ih, iw) = (s[0], s[1], s[2], s[3]);
                if h == ih && w == iw && !gemm::reference_kernels() {
                    // No-op crop (even widths): the gradient passes
                    // through unchanged.
                    let mut data = self.alloc_empty(gout.numel());
                    data.extend_from_slice(gout.data());
                    self.accum(grads, x, Tensor::new(s, data));
                    return;
                }
                let mut gx = self.alloc_zeroed(b * c * ih * iw);
                for bc in 0..b * c {
                    let src = &gout.data()[bc * h * w..(bc + 1) * h * w];
                    let dst = &mut gx[bc * ih * iw..(bc + 1) * ih * iw];
                    for i in 0..h {
                        dst[i * iw..i * iw + w].copy_from_slice(&src[i * w..(i + 1) * w]);
                    }
                }
                self.accum(grads, x, Tensor::new(s, gx));
            }
            Op::Reshape(x) => {
                let shape = self.nodes[x].value.shape().to_vec();
                let mut data = self.alloc_empty(gout.numel());
                data.extend_from_slice(gout.data());
                self.accum(grads, x, Tensor::new(shape, data));
            }
        }
    }
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}
