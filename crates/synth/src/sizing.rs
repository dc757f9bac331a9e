//! Greedy critical-path gate sizing.

use cv_cells::CellLibrary;
use cv_netlist::{GateId, Netlist};
use cv_sta::{analyze, critical_gates, IoTiming, TimingEngine, TimingReport};

/// Greedily upsizes gates on the critical path while each move improves
/// the *cost-weighted* objective `ω·10·Δdelay + (1−ω)·Δarea/100 < 0`.
///
/// Each iteration re-times the design, walks the critical path, and
/// applies the single best upsize; it stops after `max_moves` moves or
/// when no move helps. Returns `(moves_applied, final_report)`.
///
/// The interaction between sizing and structure is what makes the true
/// cost landscape non-analytic: a structurally "deep" design can beat a
/// "shallow" one once the shallow design's fanout forces huge cells.
pub fn size_gates(
    netlist: &mut Netlist,
    lib: &CellLibrary,
    io: &IoTiming,
    delay_weight: f64,
    max_moves: usize,
) -> (usize, TimingReport) {
    let mut report = analyze(netlist, lib, io);
    let mut moves = 0usize;
    while moves < max_moves {
        let path = critical_gates(&report);
        let mut best: Option<(usize, cv_cells::Drive, f64)> = None;
        let current_score = delay_weight * 10.0 * report.delay_ns
            + (1.0 - delay_weight) * netlist.area_um2(lib) / 100.0;
        for gid in path {
            let old_drive = netlist.drive(gid);
            let Some(bigger) = old_drive.upsized() else {
                continue;
            };
            netlist.set_drive(gid, bigger);
            let trial = analyze(netlist, lib, io);
            let trial_score = delay_weight * 10.0 * trial.delay_ns
                + (1.0 - delay_weight) * netlist.area_um2(lib) / 100.0;
            let gain = current_score - trial_score;
            netlist.set_drive(gid, old_drive);
            if gain > 1e-9
                && match best {
                    None => true,
                    Some((_, _, g)) => gain > g,
                }
            {
                best = Some((gid, bigger, gain));
            }
        }
        match best {
            Some((gid, drive, _)) => {
                netlist.set_drive(gid, drive);
                report = analyze(netlist, lib, io);
                moves += 1;
            }
            None => break,
        }
    }
    (moves, report)
}

/// Delta-STA twin of [`size_gates`]: the same greedy loop, with every
/// per-trial full re-analysis replaced by an undo-logged cone trial on
/// `engine` ([`TimingEngine::try_drive`]). Because [`TimingEngine`] is
/// bit-for-bit equal to [`analyze`], this makes *exactly* the same
/// sequence of sizing decisions — "Contract 6" in `DESIGN.md` — while
/// doing only cone-of-influence work per trial.
///
/// A trial's area is summed only when the move could still win. With
/// `0 ≤ ω ≤ 1` and a trial cell at least as large as the old one, the
/// score is non-decreasing in the area (an ordered f64 sum never drops
/// when one of its terms grows), so the gain computed with the *current*
/// area bounds the true gain from above; a trial whose bound does not
/// beat the best gain so far cannot be chosen. Outside those conditions
/// every trial is summed exactly.
///
/// `engine` is rebuilt for `netlist` on entry; `path` is caller-provided
/// scratch so a hot evaluation loop stays allocation-free. Returns
/// `(moves_applied, final_delay_ns)`.
pub fn size_gates_incremental(
    netlist: &mut Netlist,
    lib: &CellLibrary,
    io: &IoTiming,
    delay_weight: f64,
    max_moves: usize,
    engine: &mut TimingEngine,
    path: &mut Vec<GateId>,
) -> (usize, f64) {
    engine.rebuild(netlist, lib, io);
    let score = |delay_ns: f64, area_um2: f64| {
        delay_weight * 10.0 * delay_ns + (1.0 - delay_weight) * area_um2 / 100.0
    };
    let weight_bounds = (0.0..=1.0).contains(&delay_weight);
    let mut delay_ns = engine.delay(netlist).delay_ns;
    let mut moves = 0usize;
    while moves < max_moves {
        engine.critical_gates_into(netlist, path);
        let mut best: Option<(GateId, cv_cells::Drive, f64)> = None;
        let area = netlist.area_um2(lib);
        let current_score = score(delay_ns, area);
        for &gid in path.iter() {
            let old_drive = netlist.drive(gid);
            let Some(bigger) = old_drive.upsized() else {
                continue;
            };
            let trial_delay = engine.try_drive(netlist, lib, gid, bigger).delay_ns;
            let function = netlist.function(gid);
            let bounded = weight_bounds
                && lib.cell(function, bigger).area_um2 >= lib.cell(function, old_drive).area_um2;
            let to_beat = best.map_or(1e-9, |(_, _, g)| g);
            if bounded && current_score - score(trial_delay, area) <= to_beat {
                continue;
            }
            netlist.set_drive(gid, bigger);
            let gain = current_score - score(trial_delay, netlist.area_um2(lib));
            netlist.set_drive(gid, old_drive);
            if gain > 1e-9
                && match best {
                    None => true,
                    Some((_, _, g)) => gain > g,
                }
            {
                best = Some((gid, bigger, gain));
            }
        }
        match best {
            Some((gid, drive, _)) => {
                engine.set_drive(netlist, lib, gid, drive);
                delay_ns = engine.delay(netlist).delay_ns;
                moves += 1;
            }
            None => break,
        }
    }
    (moves, delay_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_cells::{nangate45_like, scaled_8nm_like, Cell, Drive};
    use cv_netlist::map_adder;
    use cv_prefix::topologies;

    #[test]
    fn sizing_reduces_delay_at_high_delay_weight() {
        let lib = nangate45_like();
        let graph = topologies::sklansky(16).to_graph();
        let mut nl = map_adder(&graph, &lib);
        let io = IoTiming::uniform(16);
        let before = analyze(&nl, &lib, &io).delay_ns;
        let (moves, report) = size_gates(&mut nl, &lib, &io, 0.95, 50);
        assert!(moves > 0, "at ω=0.95 the sizer must act");
        assert!(
            report.delay_ns < before,
            "{} -> {}",
            before,
            report.delay_ns
        );
    }

    #[test]
    fn sizing_is_conservative_at_low_delay_weight() {
        let lib = nangate45_like();
        let graph = topologies::sklansky(16).to_graph();
        let mut nl_fast = map_adder(&graph, &lib);
        let mut nl_small = map_adder(&graph, &lib);
        let io = IoTiming::uniform(16);
        let (moves_fast, _) = size_gates(&mut nl_fast, &lib, &io, 0.95, 200);
        let (moves_small, _) = size_gates(&mut nl_small, &lib, &io, 0.05, 200);
        assert!(
            moves_small < moves_fast,
            "area-dominated weight should size less ({moves_small} vs {moves_fast})"
        );
        assert!(nl_small.area_um2(&lib) <= nl_fast.area_um2(&lib));
    }

    #[test]
    fn move_cap_respected() {
        let lib = nangate45_like();
        let mut nl = map_adder(&topologies::sklansky(32).to_graph(), &lib);
        let io = IoTiming::uniform(32);
        let (moves, _) = size_gates(&mut nl, &lib, &io, 1.0, 3);
        assert!(moves <= 3);
    }

    #[test]
    fn incremental_sizer_makes_identical_decisions() {
        // A library whose upsized cells are *smaller* than the X1 cells,
        // and weights outside [0, 1], take the exact-area fallback.
        let n45 = nangate45_like();
        let shrinking = CellLibrary::new(
            "shrinking",
            n45.cells()
                .iter()
                .map(|c| Cell {
                    area_um2: n45.cell(c.function, Drive::X1).area_um2 / c.drive.factor(),
                    ..*c
                })
                .collect(),
            *n45.wire(),
            n45.output_load_ff(),
            n45.input_drive_res(),
        );
        let mut engine = TimingEngine::new();
        let mut path = Vec::new();
        for lib in [n45, scaled_8nm_like(), shrinking] {
            for width in [16, 32] {
                let graph = topologies::sklansky(width).to_graph();
                for io in [
                    IoTiming::uniform(width),
                    IoTiming::datapath_profile(width, 0.1),
                ] {
                    for w in [0.0, 0.05, 0.66, 0.95, 1.0, -0.5, 1.5] {
                        let at = format!("{} w{width} ω={w}", lib.name());
                        let mut reference = map_adder(&graph, &lib);
                        let mut incremental = map_adder(&graph, &lib);
                        let (ref_moves, ref_report) = size_gates(&mut reference, &lib, &io, w, 50);
                        let (inc_moves, inc_delay) = size_gates_incremental(
                            &mut incremental,
                            &lib,
                            &io,
                            w,
                            50,
                            &mut engine,
                            &mut path,
                        );
                        assert_eq!(ref_moves, inc_moves, "{at}");
                        assert_eq!(ref_report.delay_ns.to_bits(), inc_delay.to_bits(), "{at}");
                        assert_eq!(reference, incremental, "{at}: different drives chosen");
                    }
                }
            }
        }
    }

    #[test]
    fn sizing_never_worsens_weighted_cost() {
        let lib = nangate45_like();
        for w in [0.33, 0.66, 0.95] {
            let mut nl = map_adder(&topologies::brent_kung(16).to_graph(), &lib);
            let io = IoTiming::uniform(16);
            let r0 = analyze(&nl, &lib, &io);
            let score0 = w * 10.0 * r0.delay_ns + (1.0 - w) * nl.area_um2(&lib) / 100.0;
            let (_, r1) = size_gates(&mut nl, &lib, &io, w, 100);
            let score1 = w * 10.0 * r1.delay_ns + (1.0 - w) * nl.area_um2(&lib) / 100.0;
            assert!(score1 <= score0 + 1e-9, "ω={w}: {score0} -> {score1}");
        }
    }
}
