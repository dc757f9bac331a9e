//! The cell-library container and wire-load model.

use crate::cell::{Cell, Drive, Function};
use serde::{Deserialize, Serialize};

/// Statistical wire-load model.
///
/// Real routers add capacitance per sink plus a congestion component that
/// grows with design size. We model
/// `C_wire(fanout) = cap_per_fanout · fanout · (1 + congestion · √gates)`,
/// which reproduces the paper's observation that large, wiring-heavy
/// structures (e.g. Kogge-Stone) pay a super-linear delay penalty.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireModel {
    /// Capacitance added per fanout sink, fF.
    pub cap_per_fanout_ff: f64,
    /// Congestion coefficient applied as `1 + c·√gates`.
    pub congestion: f64,
}

impl WireModel {
    /// Wire capacitance for a net with `fanout` sinks in a design with
    /// `gate_count` gates.
    #[inline]
    pub fn wire_cap_ff(&self, fanout: usize, gate_count: usize) -> f64 {
        self.cap_per_fanout_ff
            * fanout as f64
            * (1.0 + self.congestion * (gate_count as f64).sqrt())
    }
}

/// A technology library: a full `Function × Drive` matrix of cells plus
/// the wire model and IO assumptions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellLibrary {
    name: String,
    /// The matrix, densely at [`CellLibrary::slot`]: function-major,
    /// weakest drive first.
    cells: Vec<Cell>,
    wire: WireModel,
    /// Capacitance presented by a primary output, fF.
    output_load_ff: f64,
    /// Drive resistance of a primary input driver, ns/fF.
    input_drive_res: f64,
}

impl CellLibrary {
    /// Builds a library from parts. `cells` may come in any order; the
    /// library stores them densely so [`CellLibrary::cell`] is an index.
    ///
    /// # Panics
    ///
    /// Panics unless `cells` contains every `Function × Drive` combination
    /// exactly once.
    pub fn new(
        name: impl Into<String>,
        cells: Vec<Cell>,
        wire: WireModel,
        output_load_ff: f64,
        input_drive_res: f64,
    ) -> Self {
        let mut dense: Vec<Option<Cell>> = vec![None; Function::ALL.len() * Drive::ALL.len()];
        let mut found = vec![0usize; dense.len()];
        for c in cells {
            let slot = Self::slot(c.function, c.drive);
            found[slot] += 1;
            dense[slot] = Some(c);
        }
        for f in Function::ALL {
            for d in Drive::ALL {
                let found = found[Self::slot(f, d)];
                assert_eq!(
                    found, 1,
                    "library must contain exactly one {f}_{d}, found {found}"
                );
            }
        }
        CellLibrary {
            name: name.into(),
            cells: dense.into_iter().flatten().collect(),
            wire,
            output_load_ff,
            input_drive_res,
        }
    }

    /// The dense index of `(function, drive)`: `function × 3 + drive`,
    /// both in declaration order (the order of `ALL`).
    #[inline]
    fn slot(function: Function, drive: Drive) -> usize {
        function as usize * Drive::ALL.len() + drive as usize
    }

    /// Library name (e.g. `nangate45-like`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up the cell implementing `function` at `drive`.
    #[inline]
    pub fn cell(&self, function: Function, drive: Drive) -> &Cell {
        &self.cells[Self::slot(function, drive)]
    }

    /// The wire-load model.
    pub fn wire(&self) -> &WireModel {
        &self.wire
    }

    /// Capacitive load presented by each primary output, fF.
    pub fn output_load_ff(&self) -> f64 {
        self.output_load_ff
    }

    /// Drive resistance of primary-input drivers, ns/fF.
    pub fn input_drive_res(&self) -> f64 {
        self.input_drive_res
    }

    /// All cells (the full matrix), function-major with the weakest
    /// drive first, for inspection and reports.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::techs::nangate45_like;

    #[test]
    fn wire_cap_grows_with_fanout_and_size() {
        let w = WireModel {
            cap_per_fanout_ff: 0.3,
            congestion: 0.002,
        };
        assert!(w.wire_cap_ff(4, 100) > w.wire_cap_ff(2, 100));
        assert!(w.wire_cap_ff(4, 1000) > w.wire_cap_ff(4, 100));
        assert_eq!(w.wire_cap_ff(0, 100), 0.0);
    }

    #[test]
    fn lookup_full_matrix() {
        let lib = nangate45_like();
        let mut reversed = lib.cells().to_vec();
        reversed.reverse();
        let from_reversed = CellLibrary::new("reversed", reversed, *lib.wire(), 3.0, 0.004);
        for f in Function::ALL {
            for d in Drive::ALL {
                let c = lib.cell(f, d);
                assert_eq!(c.function, f);
                assert_eq!(c.drive, d);
                assert!(c.area_um2 > 0.0 && c.input_cap_ff > 0.0);
                assert_eq!(from_reversed.cell(f, d), c, "{f}_{d}");
            }
        }
        assert_eq!(
            from_reversed.cells(),
            lib.cells(),
            "cells() is the dense order"
        );
    }

    #[test]
    #[should_panic(expected = "exactly one")]
    fn incomplete_library_panics() {
        let lib = nangate45_like();
        let mut cells = lib.cells().to_vec();
        cells.pop();
        let _ = CellLibrary::new("broken", cells, *lib.wire(), 1.0, 0.01);
    }

    #[test]
    #[should_panic(expected = "exactly one")]
    fn duplicate_cell_panics() {
        let lib = nangate45_like();
        let mut cells = lib.cells().to_vec();
        cells.push(cells[4]);
        let _ = CellLibrary::new("broken", cells, *lib.wire(), 1.0, 0.01);
    }
}
