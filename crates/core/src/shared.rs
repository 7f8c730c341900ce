//! The shared distance matrix with per-row publication flags — the heart of
//! the parallel algorithms' memory model.
//!
//! # Protocol
//!
//! * Every row `s` has exactly one logical owner: the task running the
//!   modified Dijkstra from source `s`. Only the owner may call
//!   [`SharedDistState::row_mut`], and only before publication.
//! * When the owner finishes, it calls [`SharedDistState::publish`], which
//!   stores `flag[s] = true` with `Release` ordering. The row is immutable
//!   from then on.
//! * Any thread may call [`SharedDistState::published_row`]; an `Acquire`
//!   load of the flag synchronizes-with the owner's `Release` store, so a
//!   `Some` result hands back a fully written, final row (this is the
//!   message-passing pattern of Rust Atomics & Locks ch. 3).
//!
//! This mirrors the paper's `flag` vector (Alg. 1 line 6 / line 21): OpenMP
//! gets the same effect implicitly from its flush semantics; in Rust the
//! orderings are explicit.
//!
//! A *subset* state ([`SharedDistState::subset`]) holds rows for `k`
//! chosen sources only: flags stay per vertex, and a vertex → slot map
//! places each source's row, so the cells take O(k·n) memory under the
//! very same protocol.
//!
//! The [`Store`](crate::store::Store) facade generalizes this protocol to
//! non-dense backends, and its [`RowLease`](crate::store::RowLease) layer
//! generalizes the read side: every lease — a borrow here, a pinned
//! hot-cache entry elsewhere — is handed out only after the same
//! Acquire/Release handshake, so a lease always views a complete, final
//! row no matter where its bytes live (DESIGN.md §14).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

use parapsp_graph::INF;

use crate::dist::{zeroed_cells, DistanceMatrix};

/// An `n × n` distance matrix (or the `k × n` rows of a source subset)
/// shared across SSSP tasks, with one publication flag per vertex.
pub(crate) struct SharedDistState {
    n: usize,
    /// `slots[v]` is the row slot of subset source `v` (`u32::MAX` for
    /// every other vertex); `None` when every vertex owns row `v`.
    slots: Option<Box<[u32]>>,
    cells: Box<[UnsafeCell<u32>]>,
    flags: Box<[AtomicBool]>,
}

// SAFETY: all mutable access goes through `row_mut`, whose contract makes
// the caller the unique owner of that row until `publish`; readers only see
// a row after the Acquire/Release handshake on its flag, at which point the
// row is never written again. `u32` itself is Send.
unsafe impl Sync for SharedDistState {}

impl SharedDistState {
    /// Allocates the matrix, all rows unpublished. The cells are born as
    /// untouched zero pages ([`zeroed_cells`]), not [`INF`]: a row's owner
    /// resets it when it claims the row
    /// ([`Store::claim_row`](crate::store::Store::claim_row)), and
    /// [`SharedDistState::into_parts`] sets every row never published to
    /// `INF`, so a zero row is never read or handed out.
    pub(crate) fn new(n: usize) -> Self {
        let len = n.checked_mul(n).expect("distance matrix size overflow");
        SharedDistState::from_plain(n, None, zeroed_cells(len), unpublished(n))
    }

    /// Allocates rows for `sources` only, in list order, all unpublished
    /// and born zero like [`SharedDistState::new`].
    ///
    /// # Panics
    ///
    /// Panics when a source is out of range or listed twice.
    pub(crate) fn subset(n: usize, sources: &[u32]) -> Self {
        let mut slots = vec![u32::MAX; n].into_boxed_slice();
        for (slot, &s) in sources.iter().enumerate() {
            assert!(
                (s as usize) < n,
                "subset source {s} out of range for {n} vertices"
            );
            assert!(
                slots[s as usize] == u32::MAX,
                "subset source {s} listed twice"
            );
            slots[s as usize] = slot as u32;
        }
        let len = sources.len().checked_mul(n).expect("subset size overflow");
        SharedDistState::from_plain(n, Some(slots), zeroed_cells(len), unpublished(n))
    }

    /// Builds the state from a partially computed matrix: rows flagged in
    /// `completed` are pre-published (they are final — resumed kernels may
    /// reuse them immediately). The rest keep whatever they hold, like the
    /// zero rows of [`SharedDistState::new`]: their owners reset them at
    /// claim, and teardown sets any still unpublished to [`INF`].
    pub(crate) fn from_parts(dist: DistanceMatrix, completed: &[bool]) -> Self {
        let n = dist.n();
        assert_eq!(completed.len(), n, "one completed flag per row");
        let flags = completed
            .iter()
            .map(|&done| AtomicBool::new(done))
            .collect();
        SharedDistState::from_plain(n, None, dist.into_raw(), flags)
    }

    fn from_plain(
        n: usize,
        slots: Option<Box<[u32]>>,
        plain: Box<[u32]>,
        flags: Box<[AtomicBool]>,
    ) -> Self {
        // SAFETY: UnsafeCell<T> is repr(transparent) over T, so
        // Box<[u32]> and Box<[UnsafeCell<u32>]> have the same layout, and
        // ownership transfers intact.
        let cells: Box<[UnsafeCell<u32>]> =
            unsafe { Box::from_raw(Box::into_raw(plain) as *mut [UnsafeCell<u32>]) };
        SharedDistState {
            n,
            slots,
            cells,
            flags,
        }
    }

    /// Clones the published rows into a fresh `n × n` matrix and reports
    /// which rows those are (the checkpoint payload, keyed by vertex on a
    /// subset too). Must run while no row owner is active — the APSP
    /// drivers call it only between parallel sweeps.
    pub(crate) fn snapshot(&self) -> (DistanceMatrix, Vec<bool>) {
        let mut dist = DistanceMatrix::new_infinite(self.n);
        let mut completed = vec![false; self.n];
        for s in 0..self.n as u32 {
            if let Some(row) = self.published_row(s) {
                dist.copy_row_from(s, row);
                completed[s as usize] = true;
            }
        }
        (dist, completed)
    }

    /// Number of vertices.
    #[inline]
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Index of the first cell of vertex `t`'s row. On a subset, vertices
    /// without a row map past the end of the cells.
    #[inline]
    fn row_start(&self, t: u32) -> usize {
        match &self.slots {
            None => t as usize * self.n,
            Some(slots) => slots[t as usize] as usize * self.n,
        }
    }

    /// Exclusive access to row `s`.
    ///
    /// # Safety
    ///
    /// The caller must be the unique owner of row `s`: no other `row_mut`
    /// for the same `s` may be live anywhere, and `publish(s)` must not
    /// have been called yet. The APSP drivers guarantee this by assigning
    /// each source to exactly one loop iteration of a permutation.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub(crate) unsafe fn row_mut(&self, s: u32) -> &mut [u32] {
        debug_assert!(
            !self.flags[s as usize].load(Ordering::Relaxed),
            "row {s} mutated after publication"
        );
        let start = self.row_start(s);
        // SAFETY: in-bounds by construction; exclusivity by the caller.
        unsafe { std::slice::from_raw_parts_mut(self.cells[start].get(), self.n) }
    }

    /// Issues a software prefetch for the head of row `t`'s storage (see
    /// [`crate::relax::prefetch_read`]). A pure performance hint: valid
    /// for any vertex, published or not, because a prefetch performs no
    /// architectural memory access (and a vertex without a row is
    /// skipped).
    #[inline]
    pub(crate) fn prefetch_row(&self, t: u32) {
        if let Some(cell) = self.cells.get(self.row_start(t)) {
            crate::relax::prefetch_read(cell.get() as *const u32);
        }
    }

    /// Marks row `s` complete and visible to all threads (Alg. 1 line 21).
    #[inline]
    pub(crate) fn publish(&self, s: u32) {
        self.flags[s as usize].store(true, Ordering::Release);
    }

    /// Returns row `t` if (and only if) it has been published. The returned
    /// slice is final — it will never change again.
    #[inline]
    pub(crate) fn published_row(&self, t: u32) -> Option<&[u32]> {
        if self.flags[t as usize].load(Ordering::Acquire) {
            let start = self.row_start(t);
            // SAFETY: the Acquire load observed the owner's Release store,
            // so every write to this row happens-before this read, and the
            // protocol forbids further writes. Only vertices with a row are
            // ever published, so the row is in bounds.
            Some(unsafe {
                std::slice::from_raw_parts(self.cells[start].get() as *const u32, self.n)
            })
        } else {
            None
        }
    }

    /// Number of published rows (diagnostics / tests).
    pub(crate) fn published_count(&self) -> usize {
        self.flags
            .iter()
            .filter(|f| f.load(Ordering::Relaxed))
            .count()
    }

    /// Consumes the state, yielding the matrix with every unpublished row
    /// set to [`INF`] (see [`SharedDistState::into_parts`]).
    #[cfg(test)]
    pub(crate) fn into_matrix(self) -> DistanceMatrix {
        self.into_parts().0
    }

    /// Consumes the state, yielding the `n × n` matrix **and** the
    /// publication flags — [`SharedDistState::snapshot`] without the O(n²)
    /// clone, for the finish of a complete run and for stop paths that own
    /// the state and will not touch it again. A subset has no `n × n`
    /// cells to hand over, so it takes the snapshot.
    pub(crate) fn into_parts(self) -> (DistanceMatrix, Vec<bool>) {
        if self.slots.is_some() {
            return self.snapshot();
        }
        let n = self.n;
        let (plain, completed) = self.into_rows();
        (DistanceMatrix::from_raw(n, plain), completed)
    }

    /// Consumes the state, yielding its cells row by row (in slot order on
    /// a subset) and the per-vertex publication flags. Every row never
    /// published (born zero, claimed and abandoned, or left over from a
    /// resume) comes out [`INF`]; after a complete run this is a flag scan
    /// that writes nothing.
    pub(crate) fn into_rows(self) -> (Box<[u32]>, Vec<bool>) {
        let n = self.n;
        let completed: Vec<bool> = self
            .flags
            .iter()
            .map(|f| f.load(Ordering::Acquire))
            .collect();
        let unfinished: Vec<usize> = (0..n as u32)
            .filter(|&v| !completed[v as usize])
            .map(|v| self.row_start(v))
            .collect();
        // SAFETY: inverse of the cast in `from_plain`; same layout, sole
        // owner.
        let mut plain: Box<[u32]> =
            unsafe { Box::from_raw(Box::into_raw(self.cells) as *mut [u32]) };
        for start in unfinished {
            // Subset vertices without a row start past the end.
            if let Some(row) = plain.get_mut(start..start + n) {
                row.fill(INF);
            }
        }
        (plain, completed)
    }
}

fn unpublished(n: usize) -> Box<[AtomicBool]> {
    (0..n).map(|_| AtomicBool::new(false)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_start_unpublished_and_infinite() {
        let state = SharedDistState::new(3);
        assert_eq!(state.n(), 3);
        assert_eq!(state.published_count(), 0);
        for t in 0..3 {
            assert!(state.published_row(t).is_none());
        }
        let m = state.into_matrix();
        assert!(m.as_slice().iter().all(|&d| d == INF));
    }

    #[test]
    fn publish_makes_row_visible_with_written_values() {
        let state = SharedDistState::new(2);
        {
            // SAFETY: single-threaded test, sole access to row 0.
            let row = unsafe { state.row_mut(0) };
            row[0] = 0;
            row[1] = 9;
        }
        state.publish(0);
        assert_eq!(state.published_row(0), Some(&[0u32, 9][..]));
        assert!(state.published_row(1).is_none());
        assert_eq!(state.published_count(), 1);
        let m = state.into_matrix();
        assert_eq!(m.get(0, 1), 9);
        assert_eq!(m.get(1, 0), INF);
    }

    #[test]
    fn from_parts_prepublishes_and_snapshot_round_trips() {
        let mut dist = DistanceMatrix::new_infinite(4);
        dist.copy_row_from(1, &[3, 0, 1, 2]);
        // Plant garbage in an incomplete row: from_parts must scrub it.
        dist.copy_row_from(2, &[9, 9, 9, 9]);
        let completed = vec![false, true, false, false];
        let state = SharedDistState::from_parts(dist, &completed);
        assert_eq!(state.published_count(), 1);
        assert_eq!(state.published_row(1), Some(&[3u32, 0, 1, 2][..]));
        assert!(state.published_row(2).is_none());
        let (snap, flags) = state.snapshot();
        assert_eq!(flags, completed);
        assert_eq!(snap.row(1), &[3, 0, 1, 2]);
        assert!(snap.row(0).iter().all(|&d| d == INF));
        let m = state.into_matrix();
        assert!(
            m.row(2).iter().all(|&d| d == INF),
            "garbage must not survive"
        );
    }

    #[test]
    fn cross_thread_publication_is_ordered() {
        // The Release/Acquire pair must make the fully written row visible.
        use std::sync::Arc;
        let state = Arc::new(SharedDistState::new(2_000));
        let n = state.n();
        let writer = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                // SAFETY: this thread is the sole owner of row 7.
                let row = unsafe { state.row_mut(7) };
                for (i, cell) in row.iter_mut().enumerate() {
                    *cell = i as u32;
                }
                state.publish(7);
            })
        };
        // Spin until the row appears, then verify every element.
        loop {
            if let Some(row) = state.published_row(7) {
                for (i, &v) in row.iter().enumerate() {
                    assert_eq!(v, i as u32, "row published before fully written");
                }
                break;
            }
            std::hint::spin_loop();
        }
        writer.join().unwrap();
        assert_eq!(state.published_count(), 1);
        let _ = (0..n).map(|_| ()).count();
    }
}
