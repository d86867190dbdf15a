//! The classic Fiduccia–Mattheyses gain-bucket ladder.
//!
//! [`GainBuckets`] keeps every candidate cell in a bucket array indexed
//! by `(gain, tie)` over the static gain range `[-p_max, +p_max]`, with
//! a doubly linked intrusive list per bucket and a moving max-gain
//! pointer. All structural operations — insert, remove, reposition after
//! an incremental gain update — are O(1); selection walks the max
//! pointer downward, which amortizes to O(total gain change) per pass,
//! the linear-time property FM is built on.
//!
//! Gains outside `±p_max` (possible for replication moves whose bound is
//! looser than the single-move pin bound) overflow into a small sorted
//! side list so their priorities stay exact instead of being clamped.
//!
//! # Ordering contract
//!
//! Selection returns the maximum `(gain, tie)` pair; the tie byte
//! encodes the pass's move preference (unreplicate > move > replicate).
//! Within one `(gain, tie)` bucket the order is LIFO (most recently
//! inserted first) — deterministic, because every insertion is driven by
//! the deterministic pass loop. Overflow entries break exact `(gain,
//! tie)` ties by the *lowest* cell id. A bucket entry and an overflow
//! entry can never share a key (overflow holds out-of-range gains only),
//! so the combined order is total and reproducible run-to-run — the
//! fixed-seed determinism the portfolio engine's `--jobs` byte-identity
//! contract builds on.

/// End-of-list sentinel for the intrusive links.
const NIL: u32 = u32::MAX;
/// `slot` marker: the cell is not in the structure.
const ABSENT: u32 = u32::MAX;
/// `slot` marker: the cell lives in the overflow list.
const OVERFLOW: u32 = u32::MAX - 1;
/// Tie classes per gain value (unreplicate / move / replicate).
const TIES: usize = 3;

/// Per-cell bucket metadata, packed into one 24-byte record so an
/// insert/remove/reposition touches a single cache line per cell
/// instead of four parallel vectors (links, slot and key used to live
/// in separate allocations, costing four cache misses per structural
/// operation on large circuits).
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Current gain of the cell while present (relocates overflow
    /// entries and skips no-op repositions).
    gain: i64,
    /// Intrusive forward link (`NIL` at a tail).
    next: u32,
    /// Intrusive backward link (`NIL` at a head).
    prev: u32,
    /// Bucket slot of the cell, `ABSENT`, or `OVERFLOW`.
    slot: u32,
    /// Tie class of the current key while present.
    tie: u8,
}

impl Node {
    const EMPTY: Node = Node {
        gain: 0,
        next: NIL,
        prev: NIL,
        slot: ABSENT,
        tie: 0,
    };

    fn key(&self) -> (i64, u8) {
        (self.gain, self.tie)
    }
}

/// A bucket-array priority structure over cells keyed by `(gain, tie)`.
///
/// See the module docs for the ordering contract. Cell ids must be
/// `< n_cells` passed at construction; each cell is present at most
/// once.
#[derive(Debug, Default)]
pub(crate) struct GainBuckets {
    /// Gain magnitude bound of the bucket array: in-range gains satisfy
    /// `-p_max <= gain <= p_max`.
    p_max: i64,
    /// Head cell of each `(gain, tie)` bucket (`NIL` when empty).
    heads: Vec<u32>,
    /// Packed per-cell state: links, slot and key, indexed by cell.
    nodes: Vec<Node>,
    /// Out-of-range entries as `(gain, tie, cell)`, sorted ascending by
    /// `(gain, tie, !cell)` so the maximum — lowest cell id on exact
    /// ties — is last.
    overflow: Vec<(i64, u8, u32)>,
    /// Highest bucket slot that may be non-empty (moving max pointer).
    max_slot: usize,
    /// Number of cells currently in the structure.
    len: usize,
    /// Bucket slots examined while walking the max pointer (telemetry).
    scans: u64,
}

impl GainBuckets {
    /// An empty structure for cells `0..n_cells` and in-range gains
    /// `[-p_max, +p_max]`.
    #[cfg(test)]
    pub(crate) fn new(n_cells: usize, p_max: i64) -> Self {
        let mut b = GainBuckets::default();
        b.reset(n_cells, p_max);
        b
    }

    /// Empties the structure for cells `0..n_cells` and in-range gains
    /// `[-p_max, +p_max]`, reusing its vectors.
    pub(crate) fn reset(&mut self, n_cells: usize, p_max: i64) {
        let p_max = p_max.max(0);
        let n_slots = (2 * p_max as usize + 1) * TIES;
        self.p_max = p_max;
        self.heads.clear();
        self.heads.resize(n_slots, NIL);
        self.nodes.clear();
        self.nodes.resize(n_cells, Node::EMPTY);
        self.overflow.clear();
        self.max_slot = 0;
        self.len = 0;
        self.scans = 0;
    }

    /// Number of cells in the structure.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the structure is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `cell` is currently present.
    pub(crate) fn contains(&self, cell: u32) -> bool {
        self.nodes[cell as usize].slot != ABSENT
    }

    /// The current `(gain, tie)` key of `cell`, or `None` when absent.
    pub(crate) fn key(&self, cell: u32) -> Option<(i64, u8)> {
        let node = &self.nodes[cell as usize];
        (node.slot != ABSENT).then(|| node.key())
    }

    /// Bucket slots examined so far while moving the max pointer.
    pub(crate) fn scans(&self) -> u64 {
        self.scans
    }

    fn slot_of(&self, gain: i64, tie: u8) -> Option<usize> {
        debug_assert!((1..=TIES as u8).contains(&tie), "tie class out of range");
        if gain < -self.p_max || gain > self.p_max {
            return None;
        }
        Some(((gain + self.p_max) as usize) * TIES + (tie as usize - 1))
    }

    fn key_of_slot(&self, slot: usize) -> (i64, u8) {
        ((slot / TIES) as i64 - self.p_max, (slot % TIES) as u8 + 1)
    }

    /// Ascending sort key for the overflow list: maximum last, lowest
    /// cell id first among exact `(gain, tie)` ties.
    fn overflow_key(entry: (i64, u8, u32)) -> (i64, u8, u32) {
        (entry.0, entry.1, !entry.2)
    }

    /// Inserts `cell` with the given key.
    ///
    /// The cell must not already be present (debug-asserted); the pass
    /// loop guarantees this by repositioning via [`GainBuckets::update`].
    pub(crate) fn insert(&mut self, cell: u32, gain: i64, tie: u8) {
        debug_assert!(!self.contains(cell), "cell {cell} inserted twice");
        self.nodes[cell as usize].gain = gain;
        self.nodes[cell as usize].tie = tie;
        match self.slot_of(gain, tie) {
            Some(s) => {
                let head = self.heads[s];
                self.nodes[cell as usize].next = head;
                self.nodes[cell as usize].prev = NIL;
                if head != NIL {
                    self.nodes[head as usize].prev = cell;
                }
                self.heads[s] = cell;
                self.nodes[cell as usize].slot = s as u32;
                if s > self.max_slot || self.len == 0 {
                    self.max_slot = s;
                }
            }
            None => {
                let entry = (gain, tie, cell);
                let pos = self
                    .overflow
                    .partition_point(|&e| Self::overflow_key(e) < Self::overflow_key(entry));
                self.overflow.insert(pos, entry);
                self.nodes[cell as usize].slot = OVERFLOW;
            }
        }
        self.len += 1;
    }

    /// Removes `cell` if present; returns whether it was.
    pub(crate) fn remove(&mut self, cell: u32) -> bool {
        let node = self.nodes[cell as usize];
        match node.slot {
            ABSENT => return false,
            OVERFLOW => {
                let entry = (node.gain, node.tie, cell);
                let pos = self
                    .overflow
                    .partition_point(|&e| Self::overflow_key(e) < Self::overflow_key(entry));
                debug_assert!(self.overflow.get(pos) == Some(&entry), "overflow desync");
                self.overflow.remove(pos);
            }
            s => {
                let s = s as usize;
                let (p, n) = (node.prev, node.next);
                if p == NIL {
                    self.heads[s] = n;
                } else {
                    self.nodes[p as usize].next = n;
                }
                if n != NIL {
                    self.nodes[n as usize].prev = p;
                }
            }
        }
        self.nodes[cell as usize].slot = ABSENT;
        self.nodes[cell as usize].next = NIL;
        self.nodes[cell as usize].prev = NIL;
        self.len -= 1;
        true
    }

    /// Repositions `cell` under a new key, inserting it if absent. A
    /// no-op when the key is unchanged and the cell is present.
    pub(crate) fn update(&mut self, cell: u32, gain: i64, tie: u8) {
        if self.contains(cell) {
            if self.nodes[cell as usize].key() == (gain, tie) {
                return;
            }
            self.remove(cell);
        }
        self.insert(cell, gain, tie);
    }

    /// Removes and returns the maximum-key cell, or `None` when empty.
    pub(crate) fn pop(&mut self) -> Option<(u32, i64, u8)> {
        if self.is_empty() {
            return None;
        }
        // Walk the max pointer down to the first non-empty bucket.
        let bucket_top = loop {
            if self.heads[self.max_slot] != NIL {
                break Some(self.max_slot);
            }
            self.scans += 1;
            if self.max_slot == 0 {
                break None;
            }
            self.max_slot -= 1;
        };
        let from_overflow = match (bucket_top, self.overflow.last()) {
            (None, Some(_)) => true,
            (Some(s), Some(&(g, t, _))) => (g, t) > self.key_of_slot(s),
            (_, None) => false,
        };
        if from_overflow {
            let (g, t, cell) = *self.overflow.last().expect("checked non-empty");
            self.remove(cell);
            return Some((cell, g, t));
        }
        let s = bucket_top?;
        let cell = self.heads[s];
        self.remove(cell);
        let (g, t) = self.key_of_slot(s);
        Some((cell, g, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_gain_then_tie_order() {
        let mut b = GainBuckets::new(8, 4);
        b.insert(0, -2, 2);
        b.insert(1, 3, 1);
        b.insert(2, 3, 3);
        b.insert(3, 0, 2);
        assert_eq!(b.len(), 4);
        // Highest gain first; on a gain tie the higher tie class wins.
        assert_eq!(b.pop(), Some((2, 3, 3)));
        assert_eq!(b.pop(), Some((1, 3, 1)));
        assert_eq!(b.pop(), Some((3, 0, 2)));
        assert_eq!(b.pop(), Some((0, -2, 2)));
        assert_eq!(b.pop(), None);
        assert!(b.is_empty());
    }

    #[test]
    fn equal_keys_pop_lifo() {
        let mut b = GainBuckets::new(4, 2);
        b.insert(0, 1, 2);
        b.insert(1, 1, 2);
        b.insert(2, 1, 2);
        assert_eq!(b.pop(), Some((2, 1, 2)));
        assert_eq!(b.pop(), Some((1, 1, 2)));
        assert_eq!(b.pop(), Some((0, 1, 2)));
    }

    #[test]
    fn out_of_range_gains_overflow_with_exact_priority() {
        let mut b = GainBuckets::new(8, 2);
        b.insert(0, 9, 1); // above +p_max
        b.insert(1, 1, 2);
        b.insert(2, -7, 2); // below -p_max
        b.insert(3, 9, 1); // same overflow key except cell: lower id wins
        assert_eq!(b.pop(), Some((0, 9, 1)));
        assert_eq!(b.pop(), Some((3, 9, 1)));
        assert_eq!(b.pop(), Some((1, 1, 2)));
        assert_eq!(b.pop(), Some((2, -7, 2)));
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn update_repositions_and_raises_the_max_pointer() {
        let mut b = GainBuckets::new(4, 5);
        b.insert(0, -3, 2);
        b.insert(1, 0, 2);
        assert_eq!(b.pop(), Some((1, 0, 2)));
        // Raising a gain after the pointer moved down must still win.
        b.update(0, 4, 2);
        b.insert(1, 2, 2);
        assert_eq!(b.pop(), Some((0, 4, 2)));
        assert_eq!(b.pop(), Some((1, 2, 2)));
    }

    #[test]
    fn key_reports_present_cells_only() {
        let mut b = GainBuckets::new(3, 2);
        b.insert(0, -1, 2);
        b.insert(1, 7, 3); // overflow keeps its exact key
        assert_eq!(b.key(0), Some((-1, 2)));
        assert_eq!(b.key(1), Some((7, 3)));
        assert_eq!(b.key(2), None);
        b.update(0, 2, 1);
        assert_eq!(b.key(0), Some((2, 1)));
        assert_eq!(b.pop(), Some((1, 7, 3)));
        assert_eq!(b.key(1), None, "popped cells are absent");
    }

    #[test]
    fn update_with_same_key_is_a_noop() {
        let mut b = GainBuckets::new(2, 3);
        b.insert(0, 2, 1);
        b.insert(1, 2, 1);
        b.update(1, 2, 1); // would reorder the LIFO bucket if not a no-op
        assert_eq!(b.pop(), Some((1, 2, 1)));
        assert_eq!(b.pop(), Some((0, 2, 1)));
    }

    #[test]
    fn remove_unlinks_from_the_middle() {
        let mut b = GainBuckets::new(4, 3);
        b.insert(0, 1, 2);
        b.insert(1, 1, 2);
        b.insert(2, 1, 2);
        assert!(b.remove(1));
        assert!(!b.remove(1));
        assert!(!b.contains(1));
        assert_eq!(b.pop(), Some((2, 1, 2)));
        assert_eq!(b.pop(), Some((0, 1, 2)));
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn overflow_and_bucket_interleave_correctly() {
        let mut b = GainBuckets::new(8, 1);
        b.insert(0, 1, 2); // bucket top
        b.insert(1, 5, 1); // overflow, higher gain
        b.insert(2, -4, 3); // overflow, lower than any bucket
        b.insert(3, 0, 3);
        assert_eq!(b.pop(), Some((1, 5, 1)));
        assert_eq!(b.pop(), Some((0, 1, 2)));
        assert_eq!(b.pop(), Some((3, 0, 3)));
        assert_eq!(b.pop(), Some((2, -4, 3)));
    }

    #[test]
    fn scans_count_bucket_walks() {
        let mut b = GainBuckets::new(2, 10);
        b.insert(0, 10, 3);
        b.insert(1, -10, 1);
        assert_eq!(b.pop(), Some((0, 10, 3)));
        let before = b.scans();
        assert_eq!(b.pop(), Some((1, -10, 1)));
        assert!(b.scans() > before, "walking down must be counted");
    }

    #[test]
    fn gains_exactly_at_pmax_stay_in_range() {
        // ±p_max are the *inclusive* bounds of the bucket array: entries
        // there must land in buckets (LIFO ties), not in the overflow
        // side list (lowest-id ties) — the two regimes order equal keys
        // differently, so a off-by-one here silently changes selection.
        let mut b = GainBuckets::new(6, 3);
        b.insert(0, 3, 2); // exactly +p_max
        b.insert(1, 3, 2);
        b.insert(2, -3, 1); // exactly -p_max
        b.insert(3, -3, 1);
        assert!(b.overflow.is_empty(), "boundary gains must not overflow");
        // LIFO within each boundary bucket proves bucket residency.
        assert_eq!(b.pop(), Some((1, 3, 2)));
        assert_eq!(b.pop(), Some((0, 3, 2)));
        assert_eq!(b.pop(), Some((3, -3, 1)));
        assert_eq!(b.pop(), Some((2, -3, 1)));
        // One past either bound overflows.
        b.insert(4, 4, 2);
        b.insert(5, -4, 2);
        assert_eq!(b.overflow.len(), 2);
    }

    #[test]
    fn overflow_side_list_stays_sorted_under_arbitrary_insertion_order() {
        // The side list is kept ascending by (gain, tie, !cell) so the
        // maximum is always `last()`. Insert in a deliberately adversarial
        // order and check the full invariant, then the pop order.
        let mut b = GainBuckets::new(8, 1);
        b.insert(5, 7, 1);
        b.insert(0, -9, 3);
        b.insert(3, 7, 1); // exact (gain, tie) duplicate, lower id
        b.insert(1, 7, 2);
        b.insert(4, -9, 3); // exact duplicate of cell 0's key, higher id
        b.insert(2, 12, 1);
        assert!(
            b.overflow
                .windows(2)
                .all(|w| GainBuckets::overflow_key(w[0]) < GainBuckets::overflow_key(w[1])),
            "overflow list out of order: {:?}",
            b.overflow
        );
        // Max gain first; exact (gain, tie) ties by lowest cell id.
        assert_eq!(b.pop(), Some((2, 12, 1)));
        assert_eq!(b.pop(), Some((1, 7, 2)));
        assert_eq!(b.pop(), Some((3, 7, 1)));
        assert_eq!(b.pop(), Some((5, 7, 1)));
        assert_eq!(b.pop(), Some((0, -9, 3)));
        assert_eq!(b.pop(), Some((4, -9, 3)));
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn max_slot_pointer_decays_after_last_cell_in_slot_unlinks() {
        let mut b = GainBuckets::new(6, 4);
        b.insert(0, 4, 3); // the top slot
        b.insert(1, 4, 3);
        b.insert(2, -1, 2);
        let top = b.max_slot;
        // Removing one of two cells keeps the slot non-empty: the pointer
        // must not move, and no scan happens on the next pop.
        assert!(b.remove(1));
        assert_eq!(b.max_slot, top);
        let scans0 = b.scans();
        assert_eq!(b.pop(), Some((0, 4, 3)));
        assert_eq!(b.scans(), scans0, "non-empty top slot must pop scan-free");
        // The top slot is now empty but the pointer is lazy: it still
        // points at `top` and only decays when the next pop walks down.
        assert_eq!(b.max_slot, top);
        assert_eq!(b.pop(), Some((2, -1, 2)));
        assert!(b.max_slot < top, "pointer must decay past the emptied slot");
        assert!(b.scans() > scans0, "the walk down must be counted");
        // A fresh insert above the decayed pointer raises it again.
        b.insert(3, 2, 1);
        assert_eq!(b.pop(), Some((3, 2, 1)));
    }

    #[test]
    fn reinsertion_after_pop_rebuilds_a_consistent_structure() {
        // Pop-then-update cycles are the pass loop's hot path; a stale
        // link after remove would corrupt the intrusive list.
        let mut b = GainBuckets::new(3, 2);
        for round in 0..3i64 {
            b.update(0, round - 1, 1);
            b.update(1, round - 1, 1);
            b.update(2, 2 - round, 2);
            let mut popped = Vec::new();
            while let Some((c, _, _)) = b.pop() {
                popped.push(c);
            }
            popped.sort_unstable();
            assert_eq!(popped, [0, 1, 2], "round {round} lost a cell");
            assert!(b.is_empty());
        }
    }

    #[test]
    fn zero_pmax_still_works_via_overflow() {
        let mut b = GainBuckets::new(3, 0);
        b.insert(0, 0, 2);
        b.insert(1, 3, 2);
        b.insert(2, -1, 2);
        assert_eq!(b.pop(), Some((1, 3, 2)));
        assert_eq!(b.pop(), Some((0, 0, 2)));
        assert_eq!(b.pop(), Some((2, -1, 2)));
    }
}
