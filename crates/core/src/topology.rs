//! Toroidal grid and overlapping neighborhoods (§II-B, Fig. 1).
//!
//! This is the paper's new `grid` class: it defines each cell's
//! neighborhood, supports *dynamic* reconfiguration (a feature the original
//! Lipizzaner lacked, §III-C), and is deliberately decoupled from the
//! communication layer so different comm backends can drive it.

use lipiz_wire::{Wire, WireError};

/// Neighborhood shape on the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborhoodPattern {
    /// Center + North/South/West/East — the paper's five-cell neighborhood
    /// (called "Moore" in the paper, von Neumann r=1 in the CA literature).
    Cross5,
    /// Center + all 8 surrounding cells (Moore r=1), for the neighborhood
    /// ablation.
    Moore9,
    /// Center only: no migration — the "isolated islands" degenerate case.
    Isolated,
}

/// One byte on the wire; an id this build does not know is a decode error.
impl Wire for NeighborhoodPattern {
    fn encode(&self, buf: &mut Vec<u8>) {
        let id: u8 = match self {
            NeighborhoodPattern::Cross5 => 0,
            NeighborhoodPattern::Moore9 => 1,
            NeighborhoodPattern::Isolated => 2,
        };
        id.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(buf)? {
            0 => Ok(NeighborhoodPattern::Cross5),
            1 => Ok(NeighborhoodPattern::Moore9),
            2 => Ok(NeighborhoodPattern::Isolated),
            _ => Err(WireError::new("neighborhood pattern id")),
        }
    }
}

impl NeighborhoodPattern {
    /// Relative `(dr, dc)` offsets of the neighbors (center excluded), in
    /// the deterministic order used everywhere (N, S, W, E, then diagonals).
    pub fn offsets(&self) -> &'static [(isize, isize)] {
        match self {
            NeighborhoodPattern::Cross5 => &[(-1, 0), (1, 0), (0, -1), (0, 1)],
            NeighborhoodPattern::Moore9 => {
                &[(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)]
            }
            NeighborhoodPattern::Isolated => &[],
        }
    }

    /// Effective sub-population size `s` on an `rows × cols` torus
    /// (duplicate wrap-around neighbors collapse on small grids, but each
    /// *slot* still exists — this returns the slot count, center included).
    pub fn neighborhood_size(&self, _rows: usize, _cols: usize) -> usize {
        1 + self.offsets().len()
    }
}

/// A toroidal cell grid with a reconfigurable neighborhood pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    rows: usize,
    cols: usize,
    pattern: NeighborhoodPattern,
}

impl Grid {
    /// Build a `rows × cols` toroidal grid.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, pattern: NeighborhoodPattern) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        Self { rows, cols, pattern }
    }

    /// Square grid with the paper's five-cell pattern.
    pub fn square(m: usize) -> Self {
        Self::new(m, m, NeighborhoodPattern::Cross5)
    }

    /// From a [`crate::config::GridConfig`].
    pub fn from_config(cfg: &crate::config::GridConfig) -> Self {
        Self::new(cfg.rows, cfg.cols, cfg.pattern)
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Active neighborhood pattern.
    pub fn pattern(&self) -> NeighborhoodPattern {
        self.pattern
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Coordinates of cell `idx` (row-major).
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn coords(&self, idx: usize) -> (usize, usize) {
        assert!(idx < self.cell_count(), "cell index out of grid");
        (idx / self.cols, idx % self.cols)
    }

    /// Cell index at `(row, col)` with toroidal wrap-around.
    pub fn index(&self, row: isize, col: isize) -> usize {
        let r = row.rem_euclid(self.rows as isize) as usize;
        let c = col.rem_euclid(self.cols as isize) as usize;
        r * self.cols + c
    }

    /// Neighbor cell indices of `idx` (center excluded), in pattern order.
    /// Wrap-around duplicates are preserved so the sub-population slot
    /// layout is grid-size independent.
    pub fn neighbors(&self, idx: usize) -> Vec<usize> {
        let (r, c) = self.coords(idx);
        self.pattern
            .offsets()
            .iter()
            .map(|&(dr, dc)| self.index(r as isize + dr, c as isize + dc))
            .collect()
    }

    /// Full neighborhood of `idx`: center first, then neighbors.
    pub fn neighborhood(&self, idx: usize) -> Vec<usize> {
        let mut n = Vec::with_capacity(1 + self.pattern.offsets().len());
        n.push(idx);
        n.extend(self.neighbors(idx));
        n
    }

    /// Cells whose neighborhood *contains* `idx` (the overlap set of Fig. 1:
    /// updates to `idx`'s center propagate to exactly these cells on the
    /// next gather).
    pub fn overlapping(&self, idx: usize) -> Vec<usize> {
        (0..self.cell_count())
            .filter(|&other| self.neighborhood(other).contains(&idx))
            .collect()
    }

    /// Dynamically resize the grid — the §III-C feature. Cell indices are
    /// remapped row-major; callers re-assign engines to the new layout.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn regrid(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        self.rows = rows;
        self.cols = cols;
    }

    /// Dynamically change the neighborhood pattern — also §III-C
    /// ("dynamically changing the neighborhood allows exploring different
    /// patterns for training and learning").
    pub fn set_pattern(&mut self, pattern: NeighborhoodPattern) {
        self.pattern = pattern;
    }

    /// ASCII rendering of a neighborhood (used by the `repro fig1` target).
    pub fn render_neighborhood(&self, idx: usize) -> String {
        let hood = self.neighborhood(idx);
        let mut out = String::new();
        for r in 0..self.rows {
            for c in 0..self.cols {
                let i = r * self.cols + c;
                let ch = if i == idx {
                    'C'
                } else if hood.contains(&i) {
                    'n'
                } else {
                    '.'
                };
                out.push(ch);
                out.push(' ');
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_cell_neighborhood_matches_paper() {
        // Fig. 1: on a 4×4 torus, the neighborhood of (1,1) is itself plus
        // W(1,0), N(0,1), E(1,2), S(2,1).
        let g = Grid::square(4);
        let idx = g.index(1, 1);
        let hood = g.neighborhood(idx);
        assert_eq!(hood.len(), 5);
        assert!(hood.contains(&g.index(0, 1)));
        assert!(hood.contains(&g.index(2, 1)));
        assert!(hood.contains(&g.index(1, 0)));
        assert!(hood.contains(&g.index(1, 2)));
        assert_eq!(hood[0], idx, "center first");
    }

    #[test]
    fn overlap_propagation_matches_figure1() {
        // Fig. 1 narrative: updates in N1,0 and N1,2 are visible to N1,1.
        let g = Grid::square(4);
        let n10 = g.index(1, 0);
        let n11 = g.index(1, 1);
        let n12 = g.index(1, 2);
        assert!(g.overlapping(n10).contains(&n11));
        assert!(g.overlapping(n12).contains(&n11));
        // And on the torus, N1,3's update reaches N1,0 (wrap).
        let n13 = g.index(1, 3);
        assert!(g.overlapping(n13).contains(&n10));
    }

    #[test]
    fn every_cell_overlaps_itself_and_four_others_cross5() {
        let g = Grid::square(4);
        for idx in 0..g.cell_count() {
            let overlaps = g.overlapping(idx);
            assert_eq!(overlaps.len(), 5, "cell {idx}: {overlaps:?}");
            assert!(overlaps.contains(&idx));
        }
    }

    #[test]
    fn wraparound_duplicates_preserved_on_2x2() {
        // On 2×2, N and S are the same physical cell; slots must still be 4.
        let g = Grid::square(2);
        let n = g.neighbors(0);
        assert_eq!(n.len(), 4);
        assert_eq!(n[0], n[1], "N == S on a 2-row torus");
        assert_eq!(n[2], n[3], "W == E on a 2-col torus");
    }

    #[test]
    fn moore9_has_nine_slots() {
        let g = Grid::new(4, 4, NeighborhoodPattern::Moore9);
        assert_eq!(g.neighborhood(5).len(), 9);
        assert_eq!(NeighborhoodPattern::Moore9.neighborhood_size(4, 4), 9);
    }

    #[test]
    fn isolated_has_no_neighbors() {
        let g = Grid::new(3, 3, NeighborhoodPattern::Isolated);
        assert!(g.neighbors(4).is_empty());
        assert_eq!(g.neighborhood(4), vec![4]);
        assert_eq!(g.overlapping(4), vec![4]);
    }

    #[test]
    fn regrid_changes_shape() {
        let mut g = Grid::square(2);
        assert_eq!(g.cell_count(), 4);
        g.regrid(3, 5);
        assert_eq!(g.cell_count(), 15);
        assert_eq!(g.coords(14), (2, 4));
        g.set_pattern(NeighborhoodPattern::Moore9);
        assert_eq!(g.neighborhood(0).len(), 9);
    }

    #[test]
    fn rectangular_grids_work() {
        let g = Grid::new(2, 5, NeighborhoodPattern::Cross5);
        for idx in 0..g.cell_count() {
            assert_eq!(g.neighbors(idx).len(), 4);
        }
        // East of (0,4) wraps to (0,0).
        assert_eq!(g.index(0, 5), 0);
    }

    #[test]
    fn one_by_n_grid_collapses_vertical_neighbors() {
        // 1×4 torus, Cross5: the N and S slots both wrap to the cell
        // itself, W/E wrap along the row — and every slot still exists, so
        // the sub-population layout matches larger grids.
        let g = Grid::new(1, 4, NeighborhoodPattern::Cross5);
        for idx in 0..4 {
            let n = g.neighbors(idx);
            assert_eq!(n.len(), 4, "slot count is shape-independent");
            assert_eq!(n[0], idx, "N wraps to self on one row");
            assert_eq!(n[1], idx, "S wraps to self on one row");
            assert_eq!(n[2], (idx + 3) % 4, "W");
            assert_eq!(n[3], (idx + 1) % 4, "E");
        }
    }

    #[test]
    fn two_by_five_neighborhoods_are_consistent() {
        let g = Grid::new(2, 5, NeighborhoodPattern::Cross5);
        for idx in 0..g.cell_count() {
            let n = g.neighbors(idx);
            assert_eq!(n.len(), 4);
            // Two rows: N and S land on the same physical cell.
            assert_eq!(n[0], n[1], "N == S on a 2-row torus");
            // Neighbor relations are symmetric on the torus: if b is in
            // a's neighborhood, a is in b's.
            for &b in &n {
                assert!(g.neighbors(b).contains(&idx), "asymmetric {idx}<->{b}");
            }
        }
        // Overlap bookkeeping: each cell's neighborhood holds 4 *distinct*
        // cells on 2 rows (center, N==S, W, E), so the overlap sets sum to
        // 4 incidences per cell.
        let total: usize = (0..g.cell_count()).map(|i| g.overlapping(i).len()).sum();
        assert_eq!(total, g.cell_count() * 4);
    }

    #[test]
    fn neighbors_are_symmetric_for_every_pattern_and_shape() {
        // The snapshot exchange posts to the cells a cell reads, trusting
        // that they are exactly the cells that read it.
        use NeighborhoodPattern::{Cross5, Isolated, Moore9};
        for pattern in [Cross5, Moore9, Isolated] {
            for (rows, cols) in [(1, 1), (1, 2), (1, 5), (5, 1), (2, 2), (2, 3), (3, 3)] {
                let g = Grid::new(rows, cols, pattern);
                for a in 0..g.cell_count() {
                    for b in g.neighbors(a) {
                        assert!(
                            g.neighbors(b).contains(&a),
                            "{pattern:?} {rows}x{cols}: {a} reads {b}, {b} does not read {a}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_cell_grid_all_slots_point_home() {
        let g = Grid::new(1, 1, NeighborhoodPattern::Cross5);
        assert_eq!(g.neighbors(0), vec![0, 0, 0, 0]);
        assert_eq!(g.neighborhood(0), vec![0, 0, 0, 0, 0]);
        assert_eq!(g.overlapping(0), vec![0]);
        let m = Grid::new(1, 1, NeighborhoodPattern::Moore9);
        assert_eq!(m.neighbors(0), vec![0; 8]);
    }

    #[test]
    fn moore9_on_single_row_wraps_diagonals_into_the_row() {
        // On a 1×3 torus every "diagonal" collapses into the row, so the
        // 8 neighbor slots only ever reference the 3 physical cells.
        let g = Grid::new(1, 3, NeighborhoodPattern::Moore9);
        for idx in 0..3 {
            let n = g.neighbors(idx);
            assert_eq!(n.len(), 8);
            assert!(n.iter().all(|&c| c < 3));
            // N/S collapse to self; NW/SW collapse to W; NE/SE to E.
            assert_eq!(n[0], idx);
            assert_eq!(n[1], idx);
            assert_eq!(n[4], n[2], "NW == W on one row");
            assert_eq!(n[6], n[2], "SW == W on one row");
            assert_eq!(n[5], n[3], "NE == E on one row");
            assert_eq!(n[7], n[3], "SE == E on one row");
        }
    }

    #[test]
    fn regrid_to_degenerate_shapes_keeps_invariants() {
        let mut g = Grid::square(3);
        for (rows, cols) in [(1, 9), (9, 1), (2, 5), (1, 1)] {
            g.regrid(rows, cols);
            assert_eq!(g.cell_count(), rows * cols);
            for idx in 0..g.cell_count() {
                assert_eq!(g.neighbors(idx).len(), 4);
                let (r, c) = g.coords(idx);
                assert_eq!(g.index(r as isize, c as isize), idx);
            }
        }
    }

    #[test]
    fn render_marks_center_and_neighbors() {
        let g = Grid::square(4);
        let art = g.render_neighborhood(g.index(1, 1));
        assert_eq!(art.matches('C').count(), 1);
        assert_eq!(art.matches('n').count(), 4);
        assert_eq!(art.matches('.').count(), 11);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_grid_rejected() {
        Grid::new(0, 1, NeighborhoodPattern::Cross5);
    }
}
