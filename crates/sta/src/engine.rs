//! Incremental (delta) static timing analysis.
//!
//! [`TimingEngine`] keeps the levelized arrival/load state of one netlist
//! resident between queries and re-propagates only the *cone of
//! influence* of a change (a gate resize, an input-arrival edit) instead
//! of re-timing the whole design. The contract — pinned by the property
//! suites in this crate and in `cv-tests` — is that every quantity the
//! engine reports is **bit-for-bit identical** to what a from-scratch
//! [`crate::analyze`] pass over the same netlist would produce:
//!
//! * per-gate arrivals use the exact arithmetic of `analyze`
//!   (`max`-fold over input pins in pin order, then `intrinsic + R·C`);
//! * per-net loads are recomputed in the canonical summation order of
//!   [`cv_netlist::Netlist::net_loads_into`] whenever a sink capacitance
//!   changes, never via error-accumulating `+=` deltas;
//! * propagation stops exactly where a recomputed value is bitwise equal
//!   to the stored one, which is also where a full pass would have
//!   produced the stored value anyway.
//!
//! Because of that, the greedy sizing pass in `cv-synth` can swap
//! `analyze` for an engine without changing a single decision, which is
//! what makes the incremental evaluation path of `EvalSession`
//! indistinguishable from the reference flow.

use crate::{IoTiming, PathStep, TimingReport};
use cv_cells::{CellLibrary, Drive};
use cv_netlist::{Driver, GateId, NetId, Netlist};

/// The effective-delay summary of the current engine state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectiveDelay {
    /// Effective circuit delay: `max_o (AT_o + required_offset_o)`, ns.
    pub delay_ns: f64,
    /// The critical output bit.
    pub critical_output_bit: usize,
    /// The net observed at the critical output.
    pub critical_net: NetId,
}

/// Resident delta-STA state for one netlist (see module docs).
///
/// ```
/// use cv_sta::{analyze, IoTiming, TimingEngine};
/// use cv_netlist::map_adder;
/// use cv_prefix::topologies;
/// use cv_cells::{nangate45_like, Drive};
///
/// let lib = nangate45_like();
/// let mut nl = map_adder(&topologies::sklansky(16).to_graph(), &lib);
/// let io = IoTiming::uniform(16);
/// let mut engine = TimingEngine::new();
/// engine.rebuild(&nl, &lib, &io);
/// // Resize one gate: only its cone is re-propagated, yet the state
/// // matches a full pass exactly.
/// engine.set_drive(&mut nl, &lib, 3, Drive::X4);
/// let full = analyze(&nl, &lib, &io);
/// assert_eq!(engine.delay(&nl).delay_ns.to_bits(), full.delay_ns.to_bits());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimingEngine {
    io: IoTiming,
    gate_count: usize,
    /// Per-net capacitive load, fF.
    loads: Vec<f64>,
    /// Per-net arrival time, ns (`NEG_INFINITY` when unreachable).
    arrival: Vec<f64>,
    /// Per-net driving gate (for critical-path traces).
    from: Vec<Option<GateId>>,
    /// Per-gate logic level (0 = fed by primary inputs only).
    level: Vec<u32>,
    /// Flat per-net sink arena: gate ids consuming each net, one entry
    /// per pin occurrence, ascending `(gate, pin)`.
    sink_off: Vec<u32>,
    sink_gate: Vec<u32>,
    /// Primary-output observations per net.
    po_count: Vec<u32>,
    /// Dirty-gate worklist, bucketed by level.
    buckets: Vec<Vec<u32>>,
    dirty: Vec<bool>,
    /// Undo log of the latest `set_drive` or `set_input_arrival`: every
    /// `(net, old value)` it overwrote in `loads` and in `arrival`,
    /// oldest first.
    undo_loads: Vec<(NetId, f64)>,
    undo_arrivals: Vec<(NetId, f64)>,
    /// Scratch reused across rebuilds.
    fanout_scratch: Vec<usize>,
    indeg_scratch: Vec<u32>,
    queue_scratch: Vec<u32>,
    cursor_scratch: Vec<u32>,
}

impl TimingEngine {
    /// Creates an empty engine; call [`TimingEngine::rebuild`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The IO timing the engine currently analyzes against.
    pub fn io(&self) -> &IoTiming {
        &self.io
    }

    /// Arrival time at `net`, ns.
    pub fn arrival(&self, net: NetId) -> f64 {
        self.arrival[net]
    }

    /// Full (re)initialization for `netlist`: loads, sink arena, levels,
    /// and a complete arrival pass. Reuses every internal allocation, so
    /// per-candidate rebuilds in a hot evaluation loop are allocation-free
    /// after warm-up.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is malformed or contains a combinational
    /// cycle (the same conditions as [`crate::analyze`]).
    pub fn rebuild(&mut self, netlist: &Netlist, lib: &CellLibrary, io: &IoTiming) {
        assert!(netlist.is_well_formed(), "netlist must be well-formed");
        let nets = netlist.net_count();
        let gates = netlist.gate_count();
        self.gate_count = gates;
        self.io.arrival.clear();
        self.io.arrival.extend_from_slice(&io.arrival);
        self.io.required_offset.clear();
        self.io
            .required_offset
            .extend_from_slice(&io.required_offset);

        // Loads in the canonical order (shared with the full pass).
        netlist.net_loads_into(lib, &mut self.loads, &mut self.fanout_scratch);

        // Sink arena: one entry per gate input pin, ascending (gate, pin).
        self.po_count.clear();
        self.po_count.resize(nets, 0);
        for o in netlist.outputs() {
            self.po_count[o.net] += 1;
        }
        self.sink_off.clear();
        self.sink_off.resize(nets + 1, 0);
        for g in netlist.iter_gates() {
            for &i in g.inputs {
                self.sink_off[i + 1] += 1;
            }
        }
        for i in 0..nets {
            self.sink_off[i + 1] += self.sink_off[i];
        }
        self.cursor_scratch.clear();
        self.cursor_scratch
            .extend_from_slice(&self.sink_off[..nets]);
        self.sink_gate.clear();
        self.sink_gate.resize(self.sink_off[nets] as usize, 0);
        for (gid, g) in netlist.iter_gates().enumerate() {
            for &i in g.inputs {
                let c = &mut self.cursor_scratch[i];
                self.sink_gate[*c as usize] = gid as u32;
                *c += 1;
            }
        }

        // Primary-input arrivals (same formula as `analyze`).
        self.arrival.clear();
        self.arrival.resize(nets, f64::NEG_INFINITY);
        self.from.clear();
        self.from.resize(nets, None);
        for net in 0..nets {
            if let Driver::Input { bit } = netlist.driver(net) {
                self.arrival[net] = self.arrival_of(bit) + lib.input_drive_res() * self.loads[net];
            }
        }

        // Kahn pass: arrivals, `from`, and logic levels in one sweep.
        self.indeg_scratch.clear();
        self.indeg_scratch.resize(gates, 0);
        for (gid, g) in netlist.iter_gates().enumerate() {
            // One increment per gate-driven input pin, mirroring the
            // consumer bookkeeping of the full pass.
            for &i in g.inputs {
                if matches!(netlist.driver(i), Driver::Gate(_)) {
                    self.indeg_scratch[gid] += 1;
                }
            }
        }
        self.level.clear();
        self.level.resize(gates, 0);
        self.queue_scratch.clear();
        for (gid, d) in self.indeg_scratch.iter().enumerate() {
            if *d == 0 {
                self.queue_scratch.push(gid as u32);
            }
        }
        let mut head = 0usize;
        let mut processed = 0usize;
        while head < self.queue_scratch.len() {
            let gid = self.queue_scratch[head] as usize;
            head += 1;
            processed += 1;
            let g = netlist.gate(gid);
            let mut lvl = 0u32;
            for &i in g.inputs {
                if let Driver::Gate(src) = netlist.driver(i) {
                    lvl = lvl.max(self.level[src] + 1);
                }
            }
            self.level[gid] = lvl;
            let cell = lib.cell(g.function, g.drive);
            let worst_in = g
                .inputs
                .iter()
                .map(|&i| self.arrival[i])
                .fold(f64::NEG_INFINITY, f64::max);
            self.arrival[g.output] = worst_in + cell.delay_ns(self.loads[g.output]);
            self.from[g.output] = Some(gid);
            let (s, e) = self.sink_range(g.output);
            for k in s..e {
                let c = self.sink_gate[k] as usize;
                self.indeg_scratch[c] -= 1;
                if self.indeg_scratch[c] == 0 {
                    self.queue_scratch.push(c as u32);
                }
            }
        }
        assert_eq!(processed, gates, "combinational cycle detected");

        let depth = self.level.iter().copied().max().unwrap_or(0) as usize;
        for b in &mut self.buckets {
            b.clear();
        }
        if self.buckets.len() < depth + 1 {
            self.buckets.resize_with(depth + 1, Vec::new);
        }
        self.dirty.clear();
        self.dirty.resize(gates, false);
    }

    /// Sets the drive of `gid` (keeping `netlist` in sync) and
    /// re-propagates the affected cone: the gate itself, the drivers of
    /// its input nets (whose loads changed), and everything downstream of
    /// any arrival that actually moved.
    pub fn set_drive(
        &mut self,
        netlist: &mut Netlist,
        lib: &CellLibrary,
        gid: GateId,
        drive: Drive,
    ) {
        self.undo_loads.clear();
        self.undo_arrivals.clear();
        if netlist.drive(gid) == drive {
            return;
        }
        netlist.set_drive(gid, drive);
        // The resize changes this gate's input-pin capacitance, so every
        // net it consumes gets its load recomputed from scratch in
        // canonical order (bitwise-stable, unlike += deltas).
        let arity = netlist.function(gid).arity();
        for pin in 0..arity {
            let net = netlist.gate(gid).inputs[pin];
            if pin > 0 && netlist.gate(gid).inputs[..pin].contains(&net) {
                continue; // duplicate pin on the same net: already done
            }
            let new_load = self.compute_load(netlist, lib, net);
            if new_load.to_bits() == self.loads[net].to_bits() {
                continue;
            }
            self.undo_loads.push((net, self.loads[net]));
            self.loads[net] = new_load;
            match netlist.driver(net) {
                Driver::Gate(src) => self.mark(src),
                Driver::Input { bit } => {
                    let at = self.arrival_of(bit) + lib.input_drive_res() * new_load;
                    if at.to_bits() != self.arrival[net].to_bits() {
                        self.undo_arrivals.push((net, self.arrival[net]));
                        self.arrival[net] = at;
                        self.mark_sinks(net);
                    }
                }
            }
        }
        self.mark(gid);
        self.propagate(netlist, lib);
    }

    /// The effective delay `netlist` would have with `gid` at `drive`,
    /// leaving the engine and `netlist` bit for bit as they were: the
    /// resize is applied and propagated exactly as [`Self::set_drive`]
    /// does, the delay is read, and the undo log of every overwritten
    /// load and arrival is replayed in reverse. This is a sizing trial
    /// at the cost of one cone propagation instead of two.
    pub fn try_drive(
        &mut self,
        netlist: &mut Netlist,
        lib: &CellLibrary,
        gid: GateId,
        drive: Drive,
    ) -> EffectiveDelay {
        let old = netlist.drive(gid);
        self.set_drive(netlist, lib, gid, drive);
        let eff = self.delay(netlist);
        for (net, at) in self.undo_arrivals.drain(..).rev() {
            self.arrival[net] = at;
        }
        for (net, load) in self.undo_loads.drain(..).rev() {
            self.loads[net] = load;
        }
        netlist.set_drive(gid, old);
        eff
    }

    /// Overwrites the arrival time of input `bit` and re-propagates its
    /// cone. Panics if `bit` is outside the IO profile.
    pub fn set_input_arrival(
        &mut self,
        netlist: &Netlist,
        lib: &CellLibrary,
        bit: usize,
        arrival_ns: f64,
    ) {
        self.undo_loads.clear();
        self.undo_arrivals.clear();
        self.io.arrival[bit] = arrival_ns;
        for net in 0..netlist.net_count() {
            if netlist.driver(net) == (Driver::Input { bit }) {
                let at = arrival_ns + lib.input_drive_res() * self.loads[net];
                if at.to_bits() != self.arrival[net].to_bits() {
                    self.undo_arrivals.push((net, self.arrival[net]));
                    self.arrival[net] = at;
                    self.mark_sinks(net);
                }
            }
        }
        self.propagate(netlist, lib);
    }

    /// Effective delay over the primary outputs (same selection rule as
    /// [`crate::analyze`], including the empty-design fallback to 0).
    pub fn delay(&self, netlist: &Netlist) -> EffectiveDelay {
        let (mut delay, mut crit_bit, mut crit_net) = (f64::NEG_INFINITY, 0usize, 0usize);
        for o in netlist.outputs() {
            let eff = self.arrival[o.net] + self.offset_of(o.bit);
            if eff > delay {
                delay = eff;
                crit_bit = o.bit;
                crit_net = o.net;
            }
        }
        if !delay.is_finite() {
            delay = 0.0;
        }
        EffectiveDelay {
            delay_ns: delay,
            critical_output_bit: crit_bit,
            critical_net: crit_net,
        }
    }

    /// Fills `out` with the gates on the critical path, launch to capture
    /// (the engine counterpart of [`crate::critical_gates`]).
    pub fn critical_gates_into(&self, netlist: &Netlist, out: &mut Vec<GateId>) {
        out.clear();
        let mut net = self.delay(netlist).critical_net;
        while let Some(gid) = self.from[net] {
            out.push(gid);
            net = self.latest_input(netlist, gid);
        }
        out.reverse();
    }

    /// Builds a full [`TimingReport`] from the resident state — equal to
    /// what [`crate::analyze`] would return for the same netlist and IO.
    pub fn report(&self, netlist: &Netlist) -> TimingReport {
        let eff = self.delay(netlist);
        let mut path = Vec::new();
        let mut net = eff.critical_net;
        loop {
            match self.from[net] {
                Some(gid) => {
                    path.push(PathStep {
                        gate: Some(gid),
                        arrival_ns: self.arrival[net],
                    });
                    net = self.latest_input(netlist, gid);
                }
                None => {
                    path.push(PathStep {
                        gate: None,
                        arrival_ns: self.arrival[net],
                    });
                    break;
                }
            }
        }
        path.reverse();
        TimingReport {
            delay_ns: eff.delay_ns,
            net_arrival_ns: self.arrival.clone(),
            critical_output_bit: eff.critical_output_bit,
            critical_path: path,
        }
    }

    /// The latest-arriving input pin of `gid` (ties resolved exactly as
    /// the full pass does).
    fn latest_input(&self, netlist: &Netlist, gid: GateId) -> NetId {
        let g = netlist.gate(gid);
        *g.inputs
            .iter()
            .max_by(|&&x, &&y| self.arrival[x].total_cmp(&self.arrival[y]))
            .expect("gates have at least one input")
    }

    fn arrival_of(&self, bit: usize) -> f64 {
        self.io.arrival.get(bit).copied().unwrap_or(0.0)
    }

    fn offset_of(&self, bit: usize) -> f64 {
        self.io.required_offset.get(bit).copied().unwrap_or(0.0)
    }

    fn sink_range(&self, net: NetId) -> (usize, usize) {
        (self.sink_off[net] as usize, self.sink_off[net + 1] as usize)
    }

    /// Recomputes `net`'s load from scratch in the canonical order: gate
    /// sink caps ascending by `(gate, pin)`, then primary-output loads,
    /// then the wire model.
    fn compute_load(&self, netlist: &Netlist, lib: &CellLibrary, net: NetId) -> f64 {
        let (s, e) = self.sink_range(net);
        let mut load = 0.0f64;
        for k in s..e {
            let gid = self.sink_gate[k] as usize;
            load += lib
                .cell(netlist.function(gid), netlist.drive(gid))
                .input_cap_ff;
        }
        for _ in 0..self.po_count[net] {
            load += lib.output_load_ff();
        }
        let fanout = (e - s) + self.po_count[net] as usize;
        load + lib.wire().wire_cap_ff(fanout, self.gate_count)
    }

    fn mark(&mut self, gid: GateId) {
        if !self.dirty[gid] {
            self.dirty[gid] = true;
            self.buckets[self.level[gid] as usize].push(gid as u32);
        }
    }

    fn mark_sinks(&mut self, net: NetId) {
        let (s, e) = self.sink_range(net);
        for k in s..e {
            self.mark(self.sink_gate[k] as usize);
        }
    }

    /// Drains the dirty buckets level by level. A gate's consumers are
    /// always at a strictly higher level, so each dirty gate is
    /// recomputed exactly once, after all of its dirty predecessors.
    fn propagate(&mut self, netlist: &Netlist, lib: &CellLibrary) {
        let mut lvl = 0usize;
        while lvl < self.buckets.len() {
            while let Some(gid) = self.buckets[lvl].pop() {
                let gid = gid as usize;
                self.dirty[gid] = false;
                let g = netlist.gate(gid);
                let cell = lib.cell(g.function, g.drive);
                let worst_in = g
                    .inputs
                    .iter()
                    .map(|&i| self.arrival[i])
                    .fold(f64::NEG_INFINITY, f64::max);
                let at = worst_in + cell.delay_ns(self.loads[g.output]);
                if at.to_bits() != self.arrival[g.output].to_bits() {
                    self.undo_arrivals.push((g.output, self.arrival[g.output]));
                    self.arrival[g.output] = at;
                    self.mark_sinks(g.output);
                }
            }
            lvl += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, critical_gates};
    use cv_cells::nangate45_like;
    use cv_netlist::map_adder;
    use cv_prefix::topologies;

    fn assert_state_matches_full(
        engine: &TimingEngine,
        netlist: &Netlist,
        lib: &CellLibrary,
        io: &IoTiming,
    ) {
        let full = analyze(netlist, lib, io);
        let delta = engine.report(netlist);
        assert_eq!(full.delay_ns.to_bits(), delta.delay_ns.to_bits());
        assert_eq!(full.critical_output_bit, delta.critical_output_bit);
        assert_eq!(full.net_arrival_ns.len(), delta.net_arrival_ns.len());
        for (net, (a, b)) in full
            .net_arrival_ns
            .iter()
            .zip(&delta.net_arrival_ns)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "net {net} arrival diverged");
        }
        assert_eq!(full.critical_path, delta.critical_path);
    }

    #[test]
    fn rebuild_matches_analyze_bitwise() {
        let lib = nangate45_like();
        let io = IoTiming::datapath_profile(16, 0.1);
        for (_, grid) in topologies::all_classical(16) {
            let nl = map_adder(&grid.to_graph(), &lib);
            let mut engine = TimingEngine::new();
            engine.rebuild(&nl, &lib, &io);
            assert_state_matches_full(&engine, &nl, &lib, &io);
        }
    }

    #[test]
    fn resize_chain_stays_bitwise_equal_to_full_pass() {
        let lib = nangate45_like();
        let io = IoTiming::uniform(16);
        let mut nl = map_adder(&topologies::sklansky(16).to_graph(), &lib);
        let mut engine = TimingEngine::new();
        engine.rebuild(&nl, &lib, &io);
        // Walk the critical path up and down a few times, checking parity
        // after every single mutation (the sizing access pattern). Before
        // each mutation, trial every drive of the gate: a trial must see
        // the full pass's delay for that drive and leave no trace.
        let mut path = Vec::new();
        for round in 0..4 {
            engine.critical_gates_into(&nl, &mut path);
            let gates = path.clone();
            for gid in gates {
                let old = nl.drive(gid);
                for drive in Drive::ALL {
                    let before = engine.report(&nl);
                    let trial = engine.try_drive(&mut nl, &lib, gid, drive);
                    let mut sized = nl.clone();
                    sized.set_drive(gid, drive);
                    let full = analyze(&sized, &lib, &io);
                    assert_eq!(trial.delay_ns.to_bits(), full.delay_ns.to_bits());
                    assert_eq!(trial.critical_output_bit, full.critical_output_bit);
                    assert_eq!(nl.drive(gid), old, "trial left the drive changed");
                    let after = engine.report(&nl);
                    assert_eq!(before.delay_ns.to_bits(), after.delay_ns.to_bits());
                    assert_eq!(before.critical_path, after.critical_path);
                    for (a, b) in before.net_arrival_ns.iter().zip(&after.net_arrival_ns) {
                        assert_eq!(a.to_bits(), b.to_bits(), "trial left an arrival");
                    }
                    for (a, b) in engine.loads.iter().zip(&nl.net_loads_ff(&lib)) {
                        assert_eq!(a.to_bits(), b.to_bits(), "trial left a load");
                    }
                }
                let Some(bigger) = old.upsized() else {
                    continue;
                };
                engine.set_drive(&mut nl, &lib, gid, bigger);
                assert_state_matches_full(&engine, &nl, &lib, &io);
                if round % 2 == 0 {
                    engine.set_drive(&mut nl, &lib, gid, old);
                    assert_state_matches_full(&engine, &nl, &lib, &io);
                }
            }
        }
    }

    #[test]
    fn critical_gates_match_reference() {
        let lib = nangate45_like();
        let io = IoTiming::uniform(24);
        let nl = map_adder(&topologies::han_carlson(24).to_graph(), &lib);
        let mut engine = TimingEngine::new();
        engine.rebuild(&nl, &lib, &io);
        let mut path = Vec::new();
        engine.critical_gates_into(&nl, &mut path);
        assert_eq!(path, critical_gates(&analyze(&nl, &lib, &io)));
    }

    #[test]
    fn input_arrival_edits_match_full_pass() {
        let lib = nangate45_like();
        let nl = map_adder(&topologies::brent_kung(16).to_graph(), &lib);
        let mut io = IoTiming::uniform(16);
        let mut engine = TimingEngine::new();
        engine.rebuild(&nl, &lib, &io);
        for (bit, extra) in [(0usize, 0.3), (7, 0.5), (15, 0.05), (7, 0.0)] {
            engine.set_input_arrival(&nl, &lib, bit, extra);
            io.arrival[bit] = extra;
            assert_state_matches_full(&engine, &nl, &lib, &io);
        }
    }

    #[test]
    fn rebuild_reuses_for_smaller_netlists() {
        // A second rebuild against a smaller design must fully reset the
        // resident state (no stale nets/gates leaking through).
        let lib = nangate45_like();
        let mut engine = TimingEngine::new();
        let big = map_adder(&topologies::kogge_stone(32).to_graph(), &lib);
        engine.rebuild(&big, &lib, &IoTiming::uniform(32));
        let small = map_adder(&topologies::ripple(8).to_graph(), &lib);
        let io = IoTiming::uniform(8);
        engine.rebuild(&small, &lib, &io);
        assert_state_matches_full(&engine, &small, &lib, &io);
    }
}
