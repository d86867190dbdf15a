//! The immutable circuit hypergraph: cells, nets and pin-level connectivity.

use crate::adjacency::AdjacencyMatrix;
use std::fmt;

/// Identifier of a cell (interior or terminal node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

/// Identifier of a net (hyperedge).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl CellId {
    /// The cell's position in [`Hypergraph::cells`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl NetId {
    /// The net's position in [`Hypergraph::nets`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Debug for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A pin of a cell: either input `j` or output `o`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Pin {
    /// Input pin with index `j` into the cell's input list.
    Input(u16),
    /// Output pin with index `o` into the cell's output list.
    Output(u16),
}

/// One endpoint of a net: a specific pin of a specific cell.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Endpoint {
    /// The cell the net attaches to.
    pub cell: CellId,
    /// The pin of that cell.
    pub pin: Pin,
}

/// The role of a node in the hypergraph `H = ({X; Y}, E)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CellKind {
    /// An interior node (set `X`): a mapped logic cell occupying `area`
    /// elementary circuit units (CLBs for XC3000), of which `dff` D
    /// flip-flops are absorbed.
    Logic {
        /// Elementary circuit units (CLBs) the cell occupies.
        area: u32,
        /// Number of absorbed D flip-flops.
        dff: u32,
    },
    /// A terminal node (set `Y`) driving a net: a primary-input pad.
    TerminalInput,
    /// A terminal node (set `Y`) sinking a net: a primary-output pad.
    TerminalOutput,
}

impl CellKind {
    /// Convenience constructor for a 1-CLB logic cell without flip-flops.
    pub fn logic(area: u32) -> Self {
        CellKind::Logic { area, dff: 0 }
    }

    /// Convenience constructor for a primary-input pad.
    pub fn input_pad() -> Self {
        CellKind::TerminalInput
    }

    /// Convenience constructor for a primary-output pad.
    pub fn output_pad() -> Self {
        CellKind::TerminalOutput
    }

    /// Returns `true` for terminal (I/O pad) nodes.
    pub fn is_terminal(self) -> bool {
        matches!(self, CellKind::TerminalInput | CellKind::TerminalOutput)
    }

    /// The cell's area in elementary circuit units (0 for terminals).
    pub fn area(self) -> u32 {
        match self {
            CellKind::Logic { area, .. } => area,
            _ => 0,
        }
    }

    /// The number of absorbed flip-flops (0 for terminals).
    pub fn dff(self) -> u32 {
        match self {
            CellKind::Logic { dff, .. } => dff,
            _ => 0,
        }
    }
}

/// A node of the hypergraph together with its pin connectivity.
#[derive(Clone, Debug)]
pub struct Cell {
    pub(crate) name: String,
    pub(crate) kind: CellKind,
    /// Net attached to each input pin.
    pub(crate) inputs: Vec<NetId>,
    /// Net attached to each output pin.
    pub(crate) outputs: Vec<NetId>,
    pub(crate) adjacency: AdjacencyMatrix,
}

impl Cell {
    /// The cell's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell's kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Number of input pins.
    pub fn n_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output pins.
    pub fn m_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Net attached to input pin `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn input_net(&self, j: usize) -> NetId {
        self.inputs[j]
    }

    /// Net attached to output pin `o`.
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range.
    pub fn output_net(&self, o: usize) -> NetId {
        self.outputs[o]
    }

    /// Nets attached to the input pins, in pin order.
    pub fn input_nets(&self) -> &[NetId] {
        &self.inputs
    }

    /// Nets attached to the output pins, in pin order.
    pub fn output_nets(&self) -> &[NetId] {
        &self.outputs
    }

    /// The output→input functional dependency matrix.
    pub fn adjacency(&self) -> &AdjacencyMatrix {
        &self.adjacency
    }

    /// The paper's replication potential `ψ` of this cell (eq. 4).
    pub fn replication_potential(&self) -> usize {
        self.adjacency.replication_potential()
    }

    /// Iterates over all nets incident to the cell (inputs then outputs);
    /// a net attached on several pins appears once per pin.
    pub fn incident_nets(&self) -> impl Iterator<Item = NetId> + '_ {
        self.inputs.iter().chain(self.outputs.iter()).copied()
    }

    /// The cell's area in elementary circuit units.
    pub fn area(&self) -> u32 {
        self.kind.area()
    }

    /// Returns `true` for terminal (I/O pad) nodes.
    pub fn is_terminal(&self) -> bool {
        self.kind.is_terminal()
    }
}

/// A hyperedge: one driver endpoint and zero or more sink endpoints.
#[derive(Clone, Debug)]
pub struct Net {
    pub(crate) name: String,
    pub(crate) driver: Endpoint,
    pub(crate) sinks: Vec<Endpoint>,
}

impl Net {
    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The endpoint that drives the net.
    pub fn driver(&self) -> Endpoint {
        self.driver
    }

    /// The endpoints that sink the net.
    pub fn sinks(&self) -> &[Endpoint] {
        &self.sinks
    }

    /// All endpoints: the driver first, then the sinks.
    pub fn endpoints(&self) -> impl Iterator<Item = Endpoint> + '_ {
        std::iter::once(self.driver).chain(self.sinks.iter().copied())
    }

    /// The number of endpoints (pins) of the net.
    pub fn degree(&self) -> usize {
        1 + self.sinks.len()
    }
}

/// Aggregate statistics of a hypergraph, matching the columns of the
/// paper's Table II.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stats {
    /// Total CLB count (sum of interior-cell areas).
    pub clbs: u32,
    /// Number of terminal nodes (IOBs required by the flat circuit).
    pub iobs: u32,
    /// Total absorbed D flip-flops.
    pub dffs: u32,
    /// Number of nets.
    pub nets: u32,
    /// Number of pins (net endpoints).
    pub pins: u32,
    /// Number of interior (logic) cells.
    pub cells: u32,
}

/// The circuit hypergraph `H = ({X; Y}, E)`.
///
/// Construct with [`HypergraphBuilder`](crate::HypergraphBuilder); the
/// structure is immutable afterwards.
#[derive(Clone, Debug)]
pub struct Hypergraph {
    pub(crate) cells: Vec<Cell>,
    pub(crate) nets: Vec<Net>,
}

impl Hypergraph {
    /// The cells (interior and terminal nodes), indexable by [`CellId`].
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The nets, indexable by [`NetId`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Number of cells (including terminals).
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn n_nets(&self) -> usize {
        self.nets.len()
    }

    /// Iterates over cell ids in ascending order.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> {
        (0..self.cells.len() as u32).map(CellId)
    }

    /// Iterates over net ids in ascending order.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// Total area (elementary circuit units) of all interior cells.
    pub fn total_area(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.area())).sum()
    }

    /// Aggregate statistics in the shape of the paper's Table II.
    pub fn stats(&self) -> Stats {
        let mut s = Stats {
            clbs: 0,
            iobs: 0,
            dffs: 0,
            nets: self.nets.len() as u32,
            pins: 0,
            cells: 0,
        };
        for c in &self.cells {
            if c.is_terminal() {
                s.iobs += 1;
            } else {
                s.clbs += c.area();
                s.dffs += c.kind.dff();
                s.cells += 1;
            }
        }
        s.pins = self.nets.iter().map(|n| n.degree() as u32).sum();
        s
    }

    /// The distribution `d_X(ψ)` of interior cells over replication
    /// potential (eq. 5). Index `ψ` holds the number of logic cells with
    /// that potential; the vector is long enough for the largest observed
    /// `ψ`. Terminal nodes are excluded, as in the paper's Fig. 3.
    pub fn replication_potential_distribution(&self) -> Vec<usize> {
        let mut dist = vec![0usize; 1];
        for c in &self.cells {
            if c.is_terminal() {
                continue;
            }
            let psi = c.replication_potential();
            if psi >= dist.len() {
                dist.resize(psi + 1, 0);
            }
            dist[psi] += 1;
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildError, HypergraphBuilder};

    fn tiny() -> Result<Hypergraph, BuildError> {
        let mut b = HypergraphBuilder::new();
        let pi = b.add_cell("pi", CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad());
        let g = b.add_cell(
            "g",
            CellKind::Logic { area: 1, dff: 1 },
            1,
            1,
            AdjacencyMatrix::full(1, 1),
        );
        let po = b.add_cell("po", CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        let n0 = b.add_net("n0");
        let n1 = b.add_net("n1");
        b.connect_output(n0, pi, 0)?;
        b.connect_input(n0, g, 0)?;
        b.connect_output(n1, g, 0)?;
        b.connect_input(n1, po, 0)?;
        b.finish()
    }

    #[test]
    fn stats_count_table2_columns() {
        let hg = tiny().unwrap();
        let s = hg.stats();
        assert_eq!(s.clbs, 1);
        assert_eq!(s.iobs, 2);
        assert_eq!(s.dffs, 1);
        assert_eq!(s.nets, 2);
        assert_eq!(s.pins, 4);
        assert_eq!(s.cells, 1);
    }

    #[test]
    fn accessors_are_consistent() {
        let hg = tiny().unwrap();
        assert_eq!(hg.n_cells(), 3);
        assert_eq!(hg.n_nets(), 2);
        let g = hg.cell(CellId(1));
        assert_eq!(g.name(), "g");
        assert_eq!(g.input_net(0), NetId(0));
        assert_eq!(g.output_net(0), NetId(1));
        assert_eq!(g.incident_nets().count(), 2);
        let n0 = hg.net(NetId(0));
        assert_eq!(n0.driver().cell, CellId(0));
        assert_eq!(n0.degree(), 2);
        assert_eq!(n0.endpoints().count(), 2);
        assert_eq!(hg.total_area(), 1);
    }

    #[test]
    fn potential_distribution_excludes_terminals() {
        let hg = tiny().unwrap();
        let d = hg.replication_potential_distribution();
        assert_eq!(d, vec![1]); // one logic cell with ψ = 0
    }

    #[test]
    fn ids_format_compactly() {
        assert_eq!(format!("{:?}/{}", CellId(3), CellId(3)), "c3/c3");
        assert_eq!(format!("{:?}/{}", NetId(7), NetId(7)), "n7/n7");
    }
}
