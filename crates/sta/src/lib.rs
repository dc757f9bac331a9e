//! Static timing analysis for `cv-netlist` netlists.
//!
//! A deliberately small but honest STA: topological arrival-time
//! propagation with the linear delay model `d = intrinsic + R·C_load`,
//! per-bit input arrival times and output required-time offsets (the
//! paper's "IO timing constraints", §1 and §5.4), and critical-path
//! extraction.
//!
//! ```
//! use cv_sta::{IoTiming, TimingReport, analyze};
//! use cv_netlist::map_adder;
//! use cv_prefix::topologies;
//! use cv_cells::nangate45_like;
//!
//! let lib = nangate45_like();
//! let nl = map_adder(&topologies::sklansky(16).to_graph(), &lib);
//! let report = analyze(&nl, &lib, &IoTiming::uniform(16));
//! assert!(report.delay_ns > 0.0);
//! assert!(!report.critical_path.is_empty());
//! ```

#![deny(missing_docs)]

mod engine;

pub use engine::{EffectiveDelay, TimingEngine};

use cv_cells::CellLibrary;
use cv_netlist::{Driver, GateId, Netlist};
use serde::{Deserialize, Serialize};

/// Per-bit IO timing constraints.
///
/// `arrival[bit]` is when input bit `bit` becomes valid (ns);
/// `required_offset[bit]` is *added* to the arrival time at output `bit`
/// before taking the max — a positive offset means that output is more
/// timing-critical (it must settle earlier), mirroring how a required
/// time `RAT` turns into slack `AT − RAT` up to a constant.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IoTiming {
    /// Arrival time per input bit, ns.
    pub arrival: Vec<f64>,
    /// Required-time offset per output bit, ns (positive = more critical).
    pub required_offset: Vec<f64>,
}

impl IoTiming {
    /// All inputs arrive at t=0 and all outputs are equally critical.
    pub fn uniform(n: usize) -> Self {
        IoTiming {
            arrival: vec![0.0; n],
            required_offset: vec![0.0; n],
        }
    }

    /// A "captured datapath" profile emulating the paper's real-world
    /// experiment (§5.4): late-arriving middle bits and tighter required
    /// times on the low-order outputs, with the given overall skew in ns.
    pub fn datapath_profile(n: usize, skew_ns: f64) -> Self {
        let arrival = (0..n)
            .map(|i| {
                let x = i as f64 / (n.max(2) - 1) as f64;
                // Triangular profile peaking mid-word.
                skew_ns * (1.0 - (2.0 * x - 1.0).abs())
            })
            .collect();
        let required_offset = (0..n)
            .map(|i| {
                let x = i as f64 / (n.max(2) - 1) as f64;
                skew_ns * 0.5 * (1.0 - x)
            })
            .collect();
        IoTiming {
            arrival,
            required_offset,
        }
    }

    fn arrival_of(&self, bit: usize) -> f64 {
        self.arrival.get(bit).copied().unwrap_or(0.0)
    }

    fn offset_of(&self, bit: usize) -> f64 {
        self.required_offset.get(bit).copied().unwrap_or(0.0)
    }
}

/// One step of a critical path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathStep {
    /// The gate traversed (`None` for the primary-input launch).
    pub gate: Option<GateId>,
    /// Arrival time at this step's output, ns.
    pub arrival_ns: f64,
}

/// The result of timing analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Effective circuit delay: `max_o (AT_o + required_offset_o)`, ns.
    pub delay_ns: f64,
    /// Arrival time per net, ns (`f64::NEG_INFINITY` for unreachable).
    pub net_arrival_ns: Vec<f64>,
    /// The critical output bit.
    pub critical_output_bit: usize,
    /// Gates along the critical path, launch to capture.
    pub critical_path: Vec<PathStep>,
}

/// Runs timing analysis.
///
/// # Panics
///
/// Panics if the netlist contains a combinational cycle or is not
/// well-formed.
pub fn analyze(netlist: &Netlist, lib: &CellLibrary, io: &IoTiming) -> TimingReport {
    assert!(netlist.is_well_formed(), "netlist must be well-formed");
    let loads = netlist.net_loads_ff(lib);
    let nets = netlist.net_count();
    let mut arrival = vec![f64::NEG_INFINITY; nets];
    // `from[net]` = the gate driving the critical transition into `net`.
    let mut from: Vec<Option<GateId>> = vec![None; nets];

    // Kahn topological order over gates (buffer insertion appends gates
    // out of order, so we cannot rely on array order).
    let mut indeg = vec![0usize; netlist.gate_count()];
    let mut consumers: Vec<Vec<GateId>> = vec![Vec::new(); nets];
    for (gid, g) in netlist.iter_gates().enumerate() {
        for &i in g.inputs {
            if matches!(netlist.driver(i), Driver::Gate(_)) {
                indeg[gid] += 1;
                consumers[i].push(gid);
            }
        }
    }
    let mut queue: Vec<GateId> = Vec::with_capacity(netlist.gate_count());

    // Primary input arrivals include the input driver's RC delay.
    for net in 0..nets {
        if let Driver::Input { bit } = netlist.driver(net) {
            arrival[net] = io.arrival_of(bit) + lib.input_drive_res() * loads[net];
        }
    }
    for (gid, d) in indeg.iter().enumerate() {
        if *d == 0 {
            queue.push(gid);
        }
    }
    let mut processed = 0usize;
    let mut head = 0usize;
    while head < queue.len() {
        let gid = queue[head];
        head += 1;
        processed += 1;
        let g = netlist.gate(gid);
        let cell = lib.cell(g.function, g.drive);
        let worst_in = g
            .inputs
            .iter()
            .map(|&i| arrival[i])
            .fold(f64::NEG_INFINITY, f64::max);
        let at = worst_in + cell.delay_ns(loads[g.output]);
        arrival[g.output] = at;
        from[g.output] = Some(gid);
        for &c in &consumers[g.output] {
            indeg[c] -= 1;
            if indeg[c] == 0 {
                queue.push(c);
            }
        }
    }
    assert_eq!(
        processed,
        netlist.gate_count(),
        "combinational cycle detected"
    );

    // Effective delay over outputs with required offsets.
    let (mut delay, mut crit_bit, mut crit_net) = (f64::NEG_INFINITY, 0usize, 0usize);
    for o in netlist.outputs() {
        let eff = arrival[o.net] + io.offset_of(o.bit);
        if eff > delay {
            delay = eff;
            crit_bit = o.bit;
            crit_net = o.net;
        }
    }
    if !delay.is_finite() {
        delay = 0.0;
    }

    // Trace the critical path backwards.
    let mut path = Vec::new();
    let mut net = crit_net;
    loop {
        match from[net] {
            Some(gid) => {
                path.push(PathStep {
                    gate: Some(gid),
                    arrival_ns: arrival[net],
                });
                // Step to the latest-arriving input pin.
                let g = netlist.gate(gid);
                net = *g
                    .inputs
                    .iter()
                    .max_by(|&&x, &&y| arrival[x].total_cmp(&arrival[y]))
                    .expect("gates have at least one input");
            }
            None => {
                path.push(PathStep {
                    gate: None,
                    arrival_ns: arrival[net],
                });
                break;
            }
        }
    }
    path.reverse();

    TimingReport {
        delay_ns: delay,
        net_arrival_ns: arrival,
        critical_output_bit: crit_bit,
        critical_path: path,
    }
}

/// Finds the gate ids lying on the critical path (excluding the launch).
pub fn critical_gates(report: &TimingReport) -> Vec<GateId> {
    report.critical_path.iter().filter_map(|s| s.gate).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_cells::{nangate45_like, Drive, Function};
    use cv_netlist::map_adder;
    use cv_prefix::topologies;

    fn lib() -> CellLibrary {
        nangate45_like()
    }

    #[test]
    fn chain_delay_accumulates() {
        let lib = lib();
        let mut nl = Netlist::new();
        let a = nl.add_input(0);
        let x1 = nl.add_gate(Function::Inv, Drive::X1, &[a]);
        let x2 = nl.add_gate(Function::Inv, Drive::X1, &[x1]);
        nl.add_output(x2, 0);
        let r = analyze(&nl, &lib, &IoTiming::uniform(1));
        let single = {
            let mut nl1 = Netlist::new();
            let a = nl1.add_input(0);
            let y = nl1.add_gate(Function::Inv, Drive::X1, &[a]);
            nl1.add_output(y, 0);
            analyze(&nl1, &lib, &IoTiming::uniform(1)).delay_ns
        };
        assert!(r.delay_ns > single, "two stages slower than one");
        assert_eq!(r.critical_path.len(), 3); // launch + 2 gates
    }

    #[test]
    fn deeper_topologies_are_slower() {
        let lib = lib();
        let io = IoTiming::uniform(32);
        let rip = analyze(
            &map_adder(&topologies::ripple(32).to_graph(), &lib),
            &lib,
            &io,
        );
        let sk = analyze(
            &map_adder(&topologies::sklansky(32).to_graph(), &lib),
            &lib,
            &io,
        );
        assert!(
            rip.delay_ns > 2.0 * sk.delay_ns,
            "ripple ({}) must be much slower than sklansky ({})",
            rip.delay_ns,
            sk.delay_ns
        );
    }

    #[test]
    fn delays_in_paper_ballpark_for_64b() {
        // The paper's 64-bit adders land between ~0.33 and ~0.55 ns
        // (Table 1). Unsized X1 netlists should bracket that from above
        // but stay the same order of magnitude.
        let lib = lib();
        let io = IoTiming::uniform(64);
        let sk = analyze(
            &map_adder(&topologies::sklansky(64).to_graph(), &lib),
            &lib,
            &io,
        );
        assert!(
            (0.2..2.0).contains(&sk.delay_ns),
            "unsized sklansky-64 delay {} outside plausibility range",
            sk.delay_ns
        );
    }

    #[test]
    fn input_arrival_shifts_delay() {
        let lib = lib();
        let nl = map_adder(&topologies::brent_kung(16).to_graph(), &lib);
        let base = analyze(&nl, &lib, &IoTiming::uniform(16)).delay_ns;
        let mut io = IoTiming::uniform(16);
        io.arrival[7] = 0.5; // middle bit arrives very late
        let skewed = analyze(&nl, &lib, &io).delay_ns;
        assert!(
            skewed >= base + 0.3,
            "late arrival must push delay: {skewed} vs {base}"
        );
    }

    #[test]
    fn required_offset_selects_critical_output() {
        let lib = lib();
        let nl = map_adder(&topologies::ripple(8).to_graph(), &lib);
        let mut io = IoTiming::uniform(8);
        io.required_offset[0] = 10.0; // make bit 0 enormously critical
        let r = analyze(&nl, &lib, &io);
        assert_eq!(r.critical_output_bit, 0);
    }

    #[test]
    fn critical_path_is_causally_ordered() {
        let lib = lib();
        let nl = map_adder(&topologies::han_carlson(16).to_graph(), &lib);
        let r = analyze(&nl, &lib, &IoTiming::uniform(16));
        for w in r.critical_path.windows(2) {
            assert!(w[0].arrival_ns <= w[1].arrival_ns + 1e-12);
        }
    }

    #[test]
    fn upsizing_the_critical_gate_helps() {
        let lib = lib();
        let mut nl = map_adder(&topologies::sklansky(16).to_graph(), &lib);
        let io = IoTiming::uniform(16);
        let before = analyze(&nl, &lib, &io);
        // Upsize every gate on the critical path.
        for gid in critical_gates(&before) {
            nl.set_drive(gid, Drive::X4);
        }
        let after = analyze(&nl, &lib, &io);
        assert!(
            after.delay_ns < before.delay_ns,
            "sizing critical gates must reduce delay ({} -> {})",
            before.delay_ns,
            after.delay_ns
        );
    }

    #[test]
    fn buffering_a_heavy_net_changes_timing() {
        let lib = lib();
        let mut nl = Netlist::new();
        let a = nl.add_input(0);
        let x = nl.add_gate(Function::Inv, Drive::X1, &[a]);
        // 12 sinks on one net.
        let mut outs = Vec::new();
        for _ in 0..12 {
            outs.push(nl.add_gate(Function::Inv, Drive::X1, &[x]));
        }
        // All sinks report on the single output bit of this 1-bit fixture.
        for o in &outs {
            nl.add_output(*o, 0);
        }
        let before = analyze(&nl, &lib, &IoTiming::uniform(1)).delay_ns;
        // Split half the sinks behind an X4 buffer.
        let sinks = nl.sinks_of(x);
        nl.insert_buffer(x, Drive::X4, &sinks[6..]);
        let after = analyze(&nl, &lib, &IoTiming::uniform(1)).delay_ns;
        assert!(after.is_finite() && before.is_finite());
        assert_ne!(before, after);
    }

    #[test]
    fn datapath_profile_shapes() {
        let io = IoTiming::datapath_profile(31, 0.2);
        assert_eq!(io.arrival.len(), 31);
        // Peak in the middle.
        let mid = io.arrival[15];
        assert!(mid > io.arrival[0] && mid > io.arrival[30]);
        // Required offsets decrease toward the MSB.
        assert!(io.required_offset[0] > io.required_offset[30]);
    }
}
