//! The FM hot path must not touch the heap: gain queries
//! ([`EngineState::peek_gain`]) and applied moves
//! ([`EngineState::set_state`]) evaluate the functional-replication
//! connectivity rule from the per-pin output masks stored in the CSR
//! arenas, never from adjacency-matrix temporaries.
//!
//! A counting global allocator proves it. It counts every allocation
//! in the process, so this binary holds a single `#[test]`: no other
//! test can run concurrently and bump the counter.

use netpart_core::{CellState, EngineState};
use netpart_hypergraph::{AdjacencyMatrix, CellId, CellKind, Hypergraph, HypergraphBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, counting allocation calls.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter has no effect on the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Two multi-output cells between pads:
///
/// * `M` (Fig. 1 of the paper): inputs `a, b, c`, outputs `X ← {a, b}`
///   and `Y ← {b, c}`;
/// * `T`: inputs `X, c, clk`, outputs `P ← {X}`, `Q ← {X, c}`,
///   `R ← {c}`, where `clk` controls no output — a global input,
///   connected on both copies of a functional split.
///
/// Returns the graph, `[M, T]` and every cell's starting side.
fn fixture() -> (Hypergraph, [CellId; 2], Vec<u8>) {
    let mut b = HypergraphBuilder::new();
    let pad = |b: &mut HypergraphBuilder, name: &str| {
        b.add_cell(name, CellKind::input_pad(), 0, 1, AdjacencyMatrix::pad())
    };
    let [pa, pb, pc, pclk] = ["a", "b", "c", "clk"].map(|n| pad(&mut b, n));
    let m = b.add_cell(
        "M",
        CellKind::logic(1),
        3,
        2,
        AdjacencyMatrix::from_rows(3, &[&[0, 1], &[1, 2]]),
    );
    let t = b.add_cell(
        "T",
        CellKind::logic(2),
        3,
        3,
        AdjacencyMatrix::from_rows(3, &[&[0], &[0, 1], &[1]]),
    );
    let [na, nb, nc, nclk, nx, ny, np, nq, nr] =
        ["na", "nb", "nc", "nclk", "nx", "ny", "np", "nq", "nr"].map(|n| b.add_net(n));
    let wires = [
        b.connect_output(na, pa, 0),
        b.connect_output(nb, pb, 0),
        b.connect_output(nc, pc, 0),
        b.connect_output(nclk, pclk, 0),
        b.connect_input(na, m, 0),
        b.connect_input(nb, m, 1),
        b.connect_input(nc, m, 2),
        b.connect_output(nx, m, 0),
        b.connect_output(ny, m, 1),
        b.connect_input(nx, t, 0),
        b.connect_input(nc, t, 1),
        b.connect_input(nclk, t, 2),
        b.connect_output(np, t, 0),
        b.connect_output(nq, t, 1),
        b.connect_output(nr, t, 2),
    ];
    assert!(wires.iter().all(Result::is_ok), "fixture wiring");
    for (name, net) in [("X", nx), ("Y", ny), ("P", np), ("Q", nq), ("R", nr)] {
        let po = b.add_cell(name, CellKind::output_pad(), 1, 0, AdjacencyMatrix::pad());
        assert!(b.connect_input(net, po, 0).is_ok(), "fixture wiring");
    }
    let hg = b.finish().expect("fixture builds");
    // M on side 0, T on side 1, the pads spread over both sides.
    let sides = vec![0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1];
    assert_eq!(sides.len(), hg.n_cells());
    (hg, [m, t], sides)
}

/// Every state a cell with `m` outputs can take, each functional split
/// once per original side.
fn states(m: usize) -> Vec<CellState> {
    let mut out = Vec::new();
    for side in 0..2u8 {
        out.push(CellState::Single { side });
        out.push(CellState::Traditional { orig_side: side });
        for replica_mask in 1..(1u32 << m) - 1 {
            out.push(CellState::Functional {
                orig_side: side,
                replica_mask,
            });
        }
    }
    out
}

#[test]
fn gain_queries_and_moves_never_allocate() {
    let (hg, cells, sides) = fixture();
    let mut st = EngineState::new(&hg, &sides);
    let schedule: Vec<(CellId, Vec<CellState>)> = cells
        .iter()
        .map(|&c| (c, states(hg.cell(c).m_outputs())))
        .chain(
            hg.cell_ids()
                .filter(|&c| hg.cell(c).is_terminal())
                .map(|c| {
                    (
                        c,
                        vec![CellState::Single { side: 0 }, CellState::Single { side: 1 }],
                    )
                }),
        )
        .collect();
    let mut mismatches = 0usize;
    let mut functional_moves = 0usize;

    let before = ALLOCS.load(Ordering::SeqCst);
    for (c, targets) in &schedule {
        for &new in targets {
            // Probe every candidate, then apply this one.
            for &probe in targets {
                std::hint::black_box(st.peek_gain(*c, probe));
            }
            let predicted = st.peek_gain(*c, new);
            let realized = st.set_state(*c, new);
            if st.cell_state(*c) != new || predicted != realized {
                mismatches += 1;
            }
            functional_moves += usize::from(matches!(new, CellState::Functional { .. }));
        }
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;

    assert_eq!(
        functional_moves,
        2 * (2 + 6),
        "every functional split of M and T applied"
    );
    assert_eq!(mismatches, 0, "peek_gain predicts set_state");
    assert!(st.validate(), "incremental counts match a rebuild");
    assert_eq!(allocs, 0, "peek_gain/set_state allocated {allocs} times");
}
