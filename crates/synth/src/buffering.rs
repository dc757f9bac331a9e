//! Fanout repair: split heavily loaded nets behind buffers.

use cv_cells::{CellLibrary, Drive};
use cv_netlist::Netlist;

/// Inserts buffers so no net drives more than `max_fanout` sink pins,
/// building a balanced buffer *tree*: an over-loaded net's sinks are
/// partitioned into `max_fanout`-sized groups, each behind its own X2
/// buffer; if the resulting buffer count itself exceeds the limit, the
/// fixpoint pass splits it again. Returns the number of buffers added.
///
/// This mirrors the fanout-repair step every physical-synthesis tool
/// performs and is what keeps high-fanout structures (e.g. Sklansky's
/// root nodes) from being unrealistically fast in the timing model.
pub fn buffer_high_fanout(netlist: &mut Netlist, _lib: &CellLibrary, max_fanout: usize) -> usize {
    assert!(max_fanout >= 2, "max_fanout must be at least 2");
    let mut inserted = 0usize;
    // Per-net sink lists in one flat arena: after the fill below, net
    // `n`'s sinks are `sinks[ends[n - 1]..ends[n]]` (from 0 for net 0).
    let mut ends: Vec<usize> = Vec::new();
    let mut sinks: Vec<(usize, usize)> = Vec::new();
    loop {
        let mut changed = false;
        // One O(gates·pins) pass builds every net's sink list in the same
        // ascending `(gate, pin)` order `sinks_of` would produce; the
        // sweep below then never rescans the whole netlist per net.
        // Within a sweep an insertion only rewires pins of the net being
        // processed (the new buffer consumes it, its moved sinks now
        // consume a brand-new net), so the prebuilt lists of the
        // *remaining* nets stay exact.
        let nets = netlist.net_count();
        ends.clear();
        ends.resize(nets + 1, 0);
        for g in netlist.iter_gates() {
            for &i in g.inputs {
                ends[i + 1] += 1;
            }
        }
        for n in 0..nets {
            ends[n + 1] += ends[n];
        }
        // `ends[n]` starts as net `n`'s first slot and is bumped past
        // each sink written, ending as its end (net `n + 1`'s start).
        sinks.clear();
        sinks.resize(ends[nets], (0, 0));
        for (gid, g) in netlist.iter_gates().enumerate() {
            for (pin, &i) in g.inputs.iter().enumerate() {
                sinks[ends[i]] = (gid, pin);
                ends[i] += 1;
            }
        }
        for net in 0..nets {
            let start = if net == 0 { 0 } else { ends[net - 1] };
            let net_sinks = &sinks[start..ends[net]];
            if net_sinks.len() <= max_fanout {
                continue;
            }
            for group in net_sinks.chunks(max_fanout) {
                netlist.insert_buffer(net, Drive::X2, group);
                inserted += 1;
            }
            changed = true;
        }
        if !changed {
            return inserted;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_cells::{nangate45_like, Function};

    fn star(n_sinks: usize) -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.add_input(0);
        let x = nl.add_gate(Function::Inv, Drive::X1, &[a]);
        for i in 0..n_sinks {
            let y = nl.add_gate(Function::Inv, Drive::X1, &[x]);
            nl.add_output(y, i);
        }
        nl
    }

    #[test]
    fn bounded_fanout_after_repair() {
        let lib = nangate45_like();
        for sinks in [3usize, 8, 17, 40] {
            let mut nl = star(sinks);
            buffer_high_fanout(&mut nl, &lib, 6);
            let counts = nl.sink_counts();
            assert!(
                counts.iter().all(|&c| c <= 6),
                "{sinks}-sink star still has a net with {} sinks",
                counts.iter().max().unwrap()
            );
            assert!(nl.is_well_formed());
        }
    }

    #[test]
    fn small_nets_untouched() {
        let lib = nangate45_like();
        let mut nl = star(4);
        let before = nl.gate_count();
        let added = buffer_high_fanout(&mut nl, &lib, 6);
        assert_eq!(added, 0);
        assert_eq!(nl.gate_count(), before);
    }

    #[test]
    fn buffer_count_scales_with_fanout() {
        let lib = nangate45_like();
        let mut small = star(10);
        let mut large = star(40);
        let a = buffer_high_fanout(&mut small, &lib, 6);
        let b = buffer_high_fanout(&mut large, &lib, 6);
        assert!(b > a, "larger stars need more buffers ({b} vs {a})");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_degenerate_limit() {
        let lib = nangate45_like();
        let mut nl = star(4);
        buffer_high_fanout(&mut nl, &lib, 1);
    }
}
