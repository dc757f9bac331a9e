//! PrefixRL-lite: a deep Q-learning baseline in the spirit of
//! Roy et al. (DAC 2021), the paper's "RL" comparison — as a step-based
//! [`SearchDriver`].
//!
//! The MDP follows PrefixRL: states are (legalized) prefix grids, actions
//! toggle one free cell, and the reward is the decrease in synthesized
//! cost. The agent is a DQN: an MLP Q-network over the dense grid image,
//! a replay buffer, a target network, and ε-greedy exploration. Every
//! environment step costs one simulation — the axis all methods are
//! compared on. One driver step is one environment step (or an episode
//! reset), so the agent checkpoints mid-episode with its full replay
//! buffer, online/target networks, and Adam state.

use circuitvae::driver::{
    read_opt_outcome, read_rng, write_opt_outcome, write_rng, Checkpointable, SearchDriver,
    StepStatus,
};
use cv_nn::{AdamConfig, Graph, Mlp, ParamStore, Tensor};
use cv_prefix::{bitvec, mutate, topologies, PrefixGrid};
use cv_synth::ckpt::{CkptError, Dec, Enc};
use cv_synth::CachedEvaluator;
use cv_synth::{eval_and_track, BestTracker, SearchOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// DQN hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RlConfig {
    /// Hidden width of the Q-network MLP.
    pub hidden: usize,
    /// Steps per episode before reset.
    pub episode_len: usize,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// Training minibatch size.
    pub batch_size: usize,
    /// Environment steps between gradient updates.
    pub train_interval: usize,
    /// Gradient updates between target-network syncs.
    pub target_sync: usize,
    /// Discount factor.
    pub gamma: f32,
    /// Initial exploration rate.
    pub eps_start: f64,
    /// Final exploration rate.
    pub eps_end: f64,
    /// Adam learning rate.
    pub lr: f32,
}

impl Default for RlConfig {
    fn default() -> Self {
        RlConfig {
            hidden: 128,
            episode_len: 24,
            replay_capacity: 4096,
            batch_size: 32,
            train_interval: 2,
            target_sync: 50,
            gamma: 0.9,
            eps_start: 1.0,
            eps_end: 0.05,
            lr: 1e-3,
        }
    }
}

#[derive(Debug, Clone)]
struct Transition {
    state: Vec<f32>,
    action: usize,
    reward: f32,
    next_state: Vec<f32>,
    terminal: bool,
}

/// The DQN searcher (the configuration half; the run state lives in
/// [`RlDriver`]).
pub struct PrefixRlLite {
    config: RlConfig,
    width: usize,
    actions: usize,
}

impl PrefixRlLite {
    /// Creates an agent for `width`-bit circuits.
    pub fn new(width: usize, config: RlConfig) -> Self {
        let actions = (width - 1) * (width - 2) / 2;
        PrefixRlLite {
            config,
            width,
            actions,
        }
    }

    /// The size of the action space: one toggle per free cell.
    pub fn action_count(&self) -> usize {
        self.actions
    }

    /// Runs DQN until `budget` simulations are consumed, by stepping an
    /// [`RlDriver`] to completion on the caller's RNG.
    pub fn run<R: Rng + ?Sized>(
        &self,
        evaluator: &CachedEvaluator,
        budget: usize,
        rng: &mut R,
    ) -> SearchOutcome {
        RlDriver::with_rng(self.width, self.config, budget, rng).run_to_completion(evaluator)
    }
}

/// The DQN state machine: one episode reset or one environment step per
/// [`SearchDriver::step`] call.
pub struct RlDriver<R = StdRng> {
    width: usize,
    config: RlConfig,
    actions: usize,
    /// Precomputed free-cell coordinates, indexed by action id. Derived
    /// from `width`, so it is rebuilt (not serialized) on restore.
    free_cells: Vec<(usize, usize)>,
    budget: usize,
    used: usize,
    store: ParamStore,
    target_store: ParamStore,
    qnet: Mlp,
    replay: Vec<Transition>,
    replay_head: usize,
    tracker: BestTracker,
    train_steps: usize,
    env_steps: usize,
    /// The current episode's state: `None` between episodes.
    current: Option<(PrefixGrid, f64)>,
    /// Step index within the current episode.
    ep_step: usize,
    rng: R,
    outcome: Option<SearchOutcome>,
}

/// Builds the Q-network layer stack for a given width/config; the layer
/// registration order fixes the [`ParamId`] layout, which is what makes
/// checkpoint restore (fresh ids + deserialized stores) line up.
///
/// [`ParamId`]: cv_nn::ParamId
fn build_qnet<R: Rng + ?Sized>(
    store: &mut ParamStore,
    width: usize,
    config: &RlConfig,
    actions: usize,
    rng: &mut R,
) -> Mlp {
    let state_dim = width * width;
    Mlp::new(
        store,
        &[state_dim, config.hidden, config.hidden, actions],
        rng,
    )
}

impl RlDriver<StdRng> {
    /// A checkpointable driver seeded from `seed`.
    pub fn new(width: usize, config: RlConfig, budget: usize, seed: u64) -> Self {
        Self::with_rng(width, config, budget, StdRng::seed_from_u64(seed))
    }
}

impl<R: Rng> RlDriver<R> {
    /// A driver over a caller-supplied RNG. Network initialization draws
    /// from `rng` here, exactly as the monolithic loop did at run start.
    pub fn with_rng(width: usize, config: RlConfig, budget: usize, mut rng: R) -> Self {
        let actions = (width - 1) * (width - 2) / 2;
        let mut store = ParamStore::new();
        let qnet = build_qnet(&mut store, width, &config, actions, &mut rng);
        let target_store = store.clone();
        RlDriver {
            width,
            config,
            actions,
            free_cells: PrefixGrid::free_cells(width).collect(),
            budget,
            used: 0,
            store,
            target_store,
            qnet,
            replay: Vec::with_capacity(config.replay_capacity),
            replay_head: 0,
            tracker: BestTracker::new(false),
            train_steps: 0,
            env_steps: 0,
            current: None,
            ep_step: 0,
            rng,
            outcome: None,
        }
    }

    fn finish(&mut self) {
        let mut tracker = std::mem::replace(&mut self.tracker, BestTracker::new(false));
        tracker.finish(self.used);
        self.outcome = Some(tracker.into_outcome());
    }

    fn reset_state(&mut self) -> PrefixGrid {
        // Episodes start from scratch (ripple is the minimal legal
        // structure; random densities add exploration) so the comparison
        // with GA/VAE/BO — which also search from scratch — is fair.
        if self.rng.gen_bool(0.25) {
            topologies::ripple(self.width)
        } else {
            let density = self.rng.gen_range(0.02..0.5);
            mutate::random_grid(self.width, density, &mut self.rng)
        }
    }

    fn greedy_action(&self, state: &[f32]) -> usize {
        let mut g = Graph::new();
        let x = g.input(Tensor::new([1, state.len()], state.to_vec()));
        let q = self.qnet.forward(&mut g, &self.store, x);
        let qv = g.value(q).data();
        let mut best = 0usize;
        for (i, v) in qv.iter().enumerate() {
            if *v > qv[best] {
                best = i;
            }
        }
        best
    }

    fn train_step(&mut self) {
        let cfg = &self.config;
        let b = cfg.batch_size;
        let state_dim = self.width * self.width;
        let idx: Vec<usize> = (0..b)
            .map(|_| self.rng.gen_range(0..self.replay.len()))
            .collect();

        // Target values from the frozen network: y = r + γ·max_a' Q'(s').
        let mut next_states = Vec::with_capacity(b * state_dim);
        for &i in &idx {
            next_states.extend_from_slice(&self.replay[i].next_state);
        }
        let next_q_max: Vec<f32> = {
            let mut g = Graph::new();
            let x = g.input(Tensor::new([b, state_dim], next_states));
            let q = self.qnet.forward(&mut g, &self.target_store, x);
            let qd = g.value(q).data();
            (0..b)
                .map(|r| {
                    qd[r * self.actions..(r + 1) * self.actions]
                        .iter()
                        .cloned()
                        .fold(f32::NEG_INFINITY, f32::max)
                })
                .collect()
        };
        let targets: Vec<f32> = idx
            .iter()
            .enumerate()
            .map(|(r, &i)| {
                let t = &self.replay[i];
                if t.terminal {
                    t.reward
                } else {
                    t.reward + cfg.gamma * next_q_max[r]
                }
            })
            .collect();

        // One-hot action mask so loss = Σ (Q(s,a) − y)² via mask-mul-sum.
        let mut states = Vec::with_capacity(b * state_dim);
        let mut mask = vec![0.0f32; b * self.actions];
        let mut yfull = vec![0.0f32; b * self.actions];
        for (r, &i) in idx.iter().enumerate() {
            let t = &self.replay[i];
            states.extend_from_slice(&t.state);
            mask[r * self.actions + t.action] = 1.0;
            yfull[r * self.actions + t.action] = targets[r];
        }

        let mut g = Graph::new();
        let x = g.input(Tensor::new([b, state_dim], states));
        let q = self.qnet.forward(&mut g, &self.store, x);
        let m = g.input(Tensor::new([b, self.actions], mask));
        let y = g.input(Tensor::new([b, self.actions], yfull));
        let qm = g.mul(q, m);
        let err = g.sub(qm, y);
        let sq = g.mul(err, err);
        let sum = g.sum(sq);
        let loss = g.mul_scalar(sum, 1.0 / b as f32);
        let grads = g.backward(loss);
        let mut buf = self.store.zero_grads();
        g.accumulate_param_grads(&grads, &mut buf);
        let adam = AdamConfig {
            lr: cfg.lr,
            ..AdamConfig::default()
        };
        self.store.adam_step(&buf, &adam);
    }
}

impl<R: Rng> SearchDriver for RlDriver<R> {
    fn step(&mut self, evaluator: &CachedEvaluator) -> StepStatus {
        if self.outcome.is_some() {
            return StepStatus::Done;
        }
        let before = evaluator.counter().count();
        match self.current.take() {
            None => {
                // Episode boundary: the outer while-check of the
                // monolithic loop.
                if self.used >= self.budget {
                    self.finish();
                    return StepStatus::Done;
                }
                let grid = self.reset_state();
                let cost = eval_and_track(evaluator, &mut self.tracker, &grid);
                self.current = Some((grid, cost));
                self.ep_step = 0;
            }
            Some((grid, cost)) => {
                if self.ep_step >= self.config.episode_len {
                    // Episode exhausted; next step starts a fresh one.
                    self.current = None;
                } else if self.used >= self.budget {
                    // The per-env-step budget check ('break 'outer').
                    self.current = Some((grid, cost));
                    self.finish();
                    return StepStatus::Done;
                } else {
                    let cfg = self.config;
                    let state = bitvec::encode_dense(&grid);
                    // ε-greedy with linear decay over the budget.
                    let progress = (self.used as f64 / self.budget.max(1) as f64).min(1.0);
                    let eps = cfg.eps_start + (cfg.eps_end - cfg.eps_start) * progress;
                    let action = if self.rng.gen_bool(eps.clamp(0.0, 1.0)) {
                        self.rng.gen_range(0..self.actions)
                    } else {
                        self.greedy_action(&state)
                    };
                    let (i, j) = self.free_cells[action];
                    let mut next = grid.clone();
                    let _ = next.toggle(i, j);
                    next.legalize();
                    let next_cost = eval_and_track(evaluator, &mut self.tracker, &next);
                    let reward = (cost - next_cost) as f32;
                    let terminal = self.ep_step + 1 == cfg.episode_len;
                    let t = Transition {
                        state,
                        action,
                        reward,
                        next_state: bitvec::encode_dense(&next),
                        terminal,
                    };
                    if self.replay.len() < cfg.replay_capacity {
                        self.replay.push(t);
                    } else {
                        self.replay[self.replay_head] = t;
                        self.replay_head = (self.replay_head + 1) % cfg.replay_capacity;
                    }
                    self.current = Some((next, next_cost));
                    self.ep_step += 1;
                    self.env_steps += 1;

                    // A zero interval means "never" (guards the division).
                    let train_now =
                        cfg.train_interval != 0 && self.env_steps % cfg.train_interval == 0;
                    if train_now && self.replay.len() >= cfg.batch_size {
                        self.train_step();
                        self.train_steps += 1;
                        if cfg.target_sync != 0 && self.train_steps % cfg.target_sync == 0 {
                            self.target_store = self.store.clone();
                        }
                    }
                }
            }
        }
        self.used += evaluator.counter().count() - before;
        StepStatus::Running
    }

    fn sims_used(&self) -> usize {
        self.used
    }

    fn budget(&self) -> usize {
        self.budget
    }

    fn outcome(&self) -> Option<&SearchOutcome> {
        self.outcome.as_ref()
    }

    fn best_cost(&self) -> f64 {
        self.outcome
            .as_ref()
            .map_or_else(|| self.tracker.best_cost(), |o| o.best_cost)
    }
}

const MAGIC: &[u8; 8] = b"CVDRRL01";

impl Checkpointable for RlDriver<StdRng> {
    fn save(&self) -> Vec<u8> {
        let mut enc = Enc::with_magic(MAGIC);
        enc.usize(self.width);
        let c = &self.config;
        enc.usize(c.hidden);
        enc.usize(c.episode_len);
        enc.usize(c.replay_capacity);
        enc.usize(c.batch_size);
        enc.usize(c.train_interval);
        enc.usize(c.target_sync);
        enc.f32(c.gamma);
        enc.f64(c.eps_start);
        enc.f64(c.eps_end);
        enc.f32(c.lr);
        enc.usize(self.budget);
        enc.usize(self.used);
        enc.bytes(&self.store.to_bytes());
        enc.bytes(&self.target_store.to_bytes());
        enc.usize(self.replay.len());
        for t in &self.replay {
            enc.f32s(&t.state);
            enc.usize(t.action);
            enc.f32(t.reward);
            enc.f32s(&t.next_state);
            enc.bool(t.terminal);
        }
        enc.usize(self.replay_head);
        self.tracker.write_ckpt(&mut enc);
        enc.usize(self.train_steps);
        enc.usize(self.env_steps);
        enc.bool(self.current.is_some());
        if let Some((g, cost)) = &self.current {
            enc.grid(g);
            enc.f64(*cost);
        }
        enc.usize(self.ep_step);
        write_rng(&mut enc, &self.rng);
        write_opt_outcome(&mut enc, self.outcome.as_ref());
        enc.finish()
    }

    fn load(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut dec = Dec::with_magic(bytes, MAGIC)?;
        let width = dec.usize()?;
        let config = RlConfig {
            hidden: dec.usize()?,
            episode_len: dec.usize()?,
            replay_capacity: dec.usize()?,
            batch_size: dec.usize()?,
            train_interval: dec.usize()?,
            target_sync: dec.usize()?,
            gamma: dec.f32()?,
            eps_start: dec.f64()?,
            eps_end: dec.f64()?,
            lr: dec.f32()?,
        };
        let budget = dec.usize()?;
        let used = dec.usize()?;
        let store =
            ParamStore::from_bytes(dec.bytes()?).map_err(|_| CkptError::Invalid("param store"))?;
        let target_store =
            ParamStore::from_bytes(dec.bytes()?).map_err(|_| CkptError::Invalid("target store"))?;
        let n = dec.seq_len()?;
        let mut replay = Vec::with_capacity(n.max(config.replay_capacity));
        for _ in 0..n {
            replay.push(Transition {
                state: dec.f32s()?,
                action: dec.usize()?,
                reward: dec.f32()?,
                next_state: dec.f32s()?,
                terminal: dec.bool()?,
            });
        }
        let replay_head = dec.usize()?;
        let tracker = BestTracker::read_ckpt(&mut dec)?;
        let train_steps = dec.usize()?;
        let env_steps = dec.usize()?;
        let current = if dec.bool()? {
            Some((dec.grid()?, dec.f64()?))
        } else {
            None
        };
        let ep_step = dec.usize()?;
        let rng = read_rng(&mut dec)?;
        let outcome = read_opt_outcome(&mut dec)?;
        dec.finish()?;
        let actions = (width - 1) * (width - 2) / 2;
        let free_cells: Vec<(usize, usize)> = PrefixGrid::free_cells(width).collect();
        // Rebuild the network handles with a throwaway store/RNG: layer
        // registration order is deterministic, so the fresh ParamIds
        // address the same slots in the deserialized stores.
        let mut scratch = ParamStore::new();
        let qnet = build_qnet(
            &mut scratch,
            width,
            &config,
            actions,
            &mut StdRng::seed_from_u64(0),
        );
        if !scratch.same_layout(&store) || !scratch.same_layout(&target_store) {
            return Err(CkptError::Invalid("param store layout"));
        }
        Ok(RlDriver {
            width,
            config,
            actions,
            free_cells,
            budget,
            used,
            store,
            target_store,
            qnet,
            replay,
            replay_head,
            tracker,
            train_steps,
            env_steps,
            current,
            ep_step,
            rng,
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_cells::nangate45_like;
    use cv_prefix::CircuitKind;
    use cv_synth::{CachedEvaluator, CostParams, Objective, SynthesisFlow};

    fn evaluator(n: usize) -> CachedEvaluator {
        let flow = SynthesisFlow::new(nangate45_like(), CircuitKind::Adder, n);
        CachedEvaluator::new(Objective::new(flow, CostParams::new(0.66)))
    }

    #[test]
    fn rl_runs_within_budget_and_finds_something() {
        let ev = evaluator(10);
        let mut rng = StdRng::seed_from_u64(0);
        let rl = PrefixRlLite::new(
            10,
            RlConfig {
                hidden: 32,
                episode_len: 8,
                batch_size: 8,
                ..RlConfig::default()
            },
        );
        let out = rl.run(&ev, 80, &mut rng);
        assert!(ev.counter().count() <= 80);
        assert!(out.best_cost.is_finite());
        assert!(out.best_grid.is_some());
    }

    #[test]
    fn checkpoint_with_a_foreign_target_store_is_rejected() {
        let config = |hidden| RlConfig {
            hidden,
            ..RlConfig::default()
        };
        let mut driver = RlDriver::new(8, config(16), 40, 1);
        assert!(RlDriver::load(&driver.save()).is_ok());
        // Same parameter count, other shapes: a later target-network
        // forward pass would panic in a matmul.
        driver.target_store = RlDriver::new(8, config(12), 40, 1).target_store;
        assert!(matches!(
            RlDriver::load(&driver.save()),
            Err(CkptError::Invalid(_))
        ));
    }

    #[test]
    fn action_space_matches_free_cells() {
        let rl = PrefixRlLite::new(12, RlConfig::default());
        assert_eq!(rl.action_count(), 11 * 10 / 2);
        assert_eq!(PrefixGrid::free_cells(12).count(), 11 * 10 / 2);
    }
}
