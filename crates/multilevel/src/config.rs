//! Multilevel engine configuration.

/// Tuning knobs of the multilevel V-cycle.
///
/// The defaults are sized so the paper's benchmark suite (hundreds of
/// cells) runs the flat path untouched — coarsening only engages above
/// [`min_cells`](Self::min_cells) — while 100k-cell synthetics collapse
/// through ~`max_levels` rungs before the flat partitioner runs.
#[derive(Clone, Debug, PartialEq)]
pub struct MultilevelConfig {
    /// Maximum number of coarsening levels; `0` disables coarsening
    /// entirely (the run is then *identical* to the flat path, which
    /// the differential suite pins down).
    pub max_levels: usize,
    /// Stop coarsening once a level shrinks the cell count by less than
    /// this factor (`coarse_cells / fine_cells > coarsen_ratio` ⇒ the
    /// level is discarded and the chain ends).
    pub coarsen_ratio: f64,
    /// Never coarsen a graph below this many cells; the coarsest level
    /// is where the flat partitioner runs, and it needs enough nodes
    /// left to find a good split.
    pub min_cells: usize,
    /// Weight cap: no cluster may exceed this fraction of the total
    /// cell area, keeping the balance window reachable at every level.
    pub max_cluster_area: f64,
    /// FM pass cap at intermediate refinement levels (the finest level
    /// always runs the caller's full pass budget).
    pub refine_passes: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            max_levels: 12,
            coarsen_ratio: 0.9,
            min_cells: 3000,
            max_cluster_area: 0.03,
            refine_passes: 2,
        }
    }
}

impl MultilevelConfig {
    /// The default configuration (see the field docs for the values).
    pub fn new() -> Self {
        MultilevelConfig::default()
    }

    /// A configuration with coarsening disabled: every run takes the
    /// flat path verbatim.
    pub fn disabled() -> Self {
        MultilevelConfig {
            max_levels: 0,
            ..MultilevelConfig::default()
        }
    }

    /// Sets the maximum number of coarsening levels (0 disables).
    pub fn with_max_levels(mut self, n: usize) -> Self {
        self.max_levels = n;
        self
    }

    /// Sets the shrink-factor stopping ratio, clamped to `[0.05, 1.0]`.
    pub fn with_coarsen_ratio(mut self, r: f64) -> Self {
        self.coarsen_ratio = r.clamp(0.05, 1.0);
        self
    }

    /// Sets the minimum coarsenable cell count (at least 2).
    pub fn with_min_cells(mut self, n: usize) -> Self {
        self.min_cells = n.max(2);
        self
    }

    /// Sets the cluster weight cap as a fraction of total area, clamped
    /// to `[0.001, 1.0]`.
    pub fn with_max_cluster_area(mut self, f: f64) -> Self {
        self.max_cluster_area = f.clamp(0.001, 1.0);
        self
    }

    /// Sets the intermediate-level FM pass cap (at least 1).
    pub fn with_refine_passes(mut self, n: usize) -> Self {
        self.refine_passes = n.max(1);
        self
    }
}
