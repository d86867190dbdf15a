//! Rent-characteristic estimation by recursive bisection.
//!
//! Rent's rule relates the terminals `T` of a sub-circuit to its cell
//! count `B`: `T ≈ t·B^p`. The exponent `p` summarizes interconnect
//! locality — real logic sits around `p ≈ 0.5–0.75`, random graphs near
//! `p ≈ 1`. This module measures it the standard way: recursively
//! bisect with FM, record `(cells, terminals)` of every piece, and fit
//! the log–log regression. DESIGN.md §5.4 claims the synthetic
//! benchmarks have Rent-like locality; this is the instrument that
//! checks it (see the `rent_exponent_is_sub_linear` test).

use crate::budget::RunClock;
use crate::config::BipartitionConfig;
use crate::extract::{extract_side, ExtractScratch, Piece};
use crate::fm::FmWorkspace;
use netpart_hypergraph::Hypergraph;

/// One sampled sub-circuit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RentPoint {
    /// Interior cell area of the piece (CLBs).
    pub cells: u64,
    /// Terminals of the piece (pads plus crossing nets).
    pub terminals: u64,
}

/// The fitted Rent characteristic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RentFit {
    /// The Rent exponent `p` (log–log slope).
    pub exponent: f64,
    /// The Rent coefficient `t` (terminals of a single cell).
    pub coefficient: f64,
    /// Number of points the fit used.
    pub points: usize,
}

/// Recursively bisects `hg` for `levels` levels and returns every
/// intermediate piece's `(cells, terminals)` sample.
///
/// Pieces smaller than 8 cells are not split further; unbalanced
/// bisections (pathological inputs) terminate their branch early. The
/// pieces are the k-way carve's: each side of a bisection, with a pseudo
/// pad for every net crossing to the other side.
pub fn rent_points(hg: &Hypergraph, levels: usize, seed: u64) -> Vec<RentPoint> {
    let mut points = Vec::new();
    let root = Piece::whole(hg);
    let mut fm = FmWorkspace::default();
    let mut scratch = ExtractScratch::default();
    let mut frontier: Vec<Piece> = Vec::new();
    for level in 0..=levels {
        let mut next = Vec::new();
        let pieces = if level == 0 {
            std::slice::from_ref(&root)
        } else {
            &frontier[..]
        };
        for piece in pieces {
            let area = piece.csr.total_area();
            points.push(RentPoint {
                cells: area,
                terminals: piece.csr.pad_pins(),
            });
            if level == levels || area < 8 {
                continue;
            }
            let cfg = BipartitionConfig::equal_area(area, 0.1)
                .with_seed(seed ^ (points.len() as u64) << 8);
            let clock = RunClock::new(&cfg.budget, &cfg.fault);
            fm.bipartition(&piece.csr, &cfg, None, &clock, |engine, _| {
                if cfg.balanced(engine.areas()) {
                    for side in 0..2 {
                        let mut half = Piece::default();
                        extract_side(piece, engine, side, &mut half, &mut scratch);
                        next.push(half);
                    }
                }
            });
        }
        frontier = next;
    }
    points
}

/// Least-squares fit of `log T = log t + p·log B` over the points
/// (pieces with zero cells or terminals are skipped).
///
/// Returns `None` with fewer than three usable points.
pub fn fit_rent(points: &[RentPoint]) -> Option<RentFit> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.cells > 0 && p.terminals > 0)
        .map(|p| ((p.cells as f64).ln(), (p.terminals as f64).ln()))
        .collect();
    if logs.len() < 3 {
        return None;
    }
    let n = logs.len() as f64;
    let (sx, sy): (f64, f64) = logs
        .iter()
        .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
    let sxx: f64 = logs.iter().map(|&(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|&(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let p = (n * sxy - sx * sy) / denom;
    let intercept = (sy - p * sx) / n;
    Some(RentFit {
        exponent: p,
        coefficient: intercept.exp(),
        points: logs.len(),
    })
}

/// Convenience: sample and fit in one call.
pub fn rent_exponent(hg: &Hypergraph, levels: usize, seed: u64) -> Option<RentFit> {
    fit_rent(&rent_points(hg, levels, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpart_netlist::{generate, GeneratorConfig};
    use netpart_techmap::{map, MapperConfig};

    #[test]
    fn fit_recovers_exact_power_law() {
        let points: Vec<RentPoint> = (1..=8)
            .map(|i| {
                let b = 1u64 << i;
                RentPoint {
                    cells: b,
                    terminals: (3.0 * (b as f64).powf(0.6)).round() as u64,
                }
            })
            .collect();
        let fit = fit_rent(&points).unwrap();
        assert!((fit.exponent - 0.6).abs() < 0.05, "p = {}", fit.exponent);
        assert!(
            (fit.coefficient - 3.0).abs() < 0.6,
            "t = {}",
            fit.coefficient
        );
    }

    #[test]
    fn fit_needs_enough_points() {
        assert!(fit_rent(&[]).is_none());
        assert!(fit_rent(&[RentPoint {
            cells: 4,
            terminals: 4
        }])
        .is_none());
    }

    #[test]
    fn rent_exponent_is_sub_linear() {
        // The synthetic benchmarks must show Rent-like locality: clearly
        // below the random-graph regime (p ≈ 1).
        let nl = generate(
            &GeneratorConfig::new(1200)
                .with_dff(60)
                .with_seed(17)
                .with_clustering(0.7),
        );
        let hg = map(&nl, &MapperConfig::xc3000())
            .unwrap()
            .to_hypergraph(&nl);
        let fit = rent_exponent(&hg, 4, 1).expect("enough pieces");
        assert!(fit.points >= 10);
        assert!(
            fit.exponent < 0.95,
            "expected sub-linear Rent exponent, got {}",
            fit.exponent
        );
        assert!(fit.exponent > 0.0);
    }

    #[test]
    fn rent_points_are_pinned() {
        // The `rent_exponent_is_sub_linear` fixture's samples, as the
        // hypergraph-piece estimator produced them: every bisection and
        // every piece's pad count must stay exactly as they were.
        let nl = generate(
            &GeneratorConfig::new(1200)
                .with_dff(60)
                .with_seed(17)
                .with_clustering(0.7),
        );
        let hg = map(&nl, &MapperConfig::xc3000())
            .unwrap()
            .to_hypergraph(&nl);
        let got: Vec<(u64, u64)> = rent_points(&hg, 4, 1)
            .iter()
            .map(|p| (p.cells, p.terminals))
            .collect();
        let want: [(u64, u64); 31] = [
            (623, 121),
            (311, 152),
            (312, 61),
            (157, 132),
            (154, 58),
            (142, 61),
            (170, 80),
            (75, 115),
            (82, 29),
            (69, 41),
            (85, 35),
            (79, 37),
            (63, 52),
            (78, 59),
            (92, 49),
            (41, 30),
            (34, 101),
            (46, 31),
            (36, 18),
            (38, 24),
            (31, 29),
            (39, 28),
            (46, 25),
            (38, 32),
            (41, 29),
            (35, 32),
            (28, 28),
            (41, 46),
            (37, 23),
            (47, 43),
            (45, 36),
        ];
        assert_eq!(got, want);
    }
}
