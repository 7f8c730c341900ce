//! The dense all-pairs distance matrix result type.
//!
//! APSP output is inherently O(n²); the paper notes this is what limits
//! dataset sizes on shared-memory machines (its sx-superuser run needs
//! 160 GB). The matrix is stored row-major so that row reuse in the
//! modified Dijkstra kernel is a sequential scan.

use parapsp_graph::INF;

/// Allocates `len` zeroed cells without writing any of them.
///
/// `vec![0; len]` is a zeroed (calloc) allocation: its pages are mapped
/// lazily, so no serial pass faults them in, and each page is first
/// touched by the thread that writes it (placing it on that thread's NUMA
/// node). On Linux the 2 MiB-aligned interior is also advised
/// `MADV_HUGEPAGE`, so a large matrix faults in as huge pages where the
/// kernel allows it (THP `always` or `madvise`); a refused advice is
/// ignored and the pages stay small.
pub(crate) fn zeroed_cells(len: usize) -> Box<[u32]> {
    let mut cells = vec![0u32; len].into_boxed_slice();
    advise_huge_pages(&mut cells);
    cells
}

#[cfg(target_os = "linux")]
fn advise_huge_pages(cells: &mut [u32]) {
    // Raw libc binding (the workspace deliberately has no libc crate
    // dependency); the advice number is Linux's.
    extern "C" {
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }
    const MADV_HUGEPAGE: i32 = 14;
    // The huge-page size on x86-64 and 4 KiB-page arm64; also a multiple
    // of every base page size, as `madvise` requires of `addr`.
    const HUGE_PAGE: usize = 2 << 20;
    let base = cells.as_mut_ptr().cast::<u8>();
    let start = base as usize;
    let end = start + std::mem::size_of_val(cells);
    let lo = start.next_multiple_of(HUGE_PAGE);
    let hi = end & !(HUGE_PAGE - 1);
    if lo < hi {
        // SAFETY: [lo, hi) lies inside `cells`, which this call borrows
        // mutably; the advice changes how pages are backed, never their
        // contents. A failure (EINVAL without THP) is deliberately ignored.
        unsafe { madvise(base.add(lo - start), hi - lo, MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_cells: &mut [u32]) {}

/// A row-major `n × n` matrix of shortest-path distances.
///
/// `dist.get(u, v)` is the weight of the shortest `u → v` path, or
/// [`INF`] when `v` is unreachable from `u`. `get(v, v)` is always 0 for
/// any vertex that was used as a source.
#[derive(Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    data: Box<[u32]>,
}

impl DistanceMatrix {
    /// Creates an `n × n` matrix filled with [`INF`].
    pub fn new_infinite(n: usize) -> Self {
        DistanceMatrix {
            n,
            data: vec![INF; n.checked_mul(n).expect("matrix size overflow")].into_boxed_slice(),
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != n * n`.
    pub fn from_raw(n: usize, data: Box<[u32]>) -> Self {
        assert_eq!(data.len(), n * n, "distance buffer has the wrong length");
        DistanceMatrix { n, data }
    }

    /// Consumes the matrix, yielding its row-major buffer (the inverse of
    /// [`DistanceMatrix::from_raw`]).
    pub fn into_raw(self) -> Box<[u32]> {
        self.data
    }

    /// Number of vertices (the matrix is `n × n`).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distance from `u` to `v`.
    #[inline]
    pub fn get(&self, u: u32, v: u32) -> u32 {
        self.data[u as usize * self.n + v as usize]
    }

    /// The full distance row of source `u`.
    #[inline]
    pub fn row(&self, u: u32) -> &[u32] {
        let start = u as usize * self.n;
        &self.data[start..start + self.n]
    }

    /// Mutable row access for algorithm internals.
    #[inline]
    pub(crate) fn row_mut(&mut self, u: u32) -> &mut [u32] {
        let start = u as usize * self.n;
        &mut self.data[start..start + self.n]
    }

    /// Mutable access to the whole row-major buffer (algorithm internals:
    /// tiled and incremental updaters).
    #[inline]
    pub(crate) fn raw_mut(&mut self) -> &mut [u32] {
        &mut self.data
    }

    /// Overwrites row `u` with `row` — used by gather-style assemblers
    /// (e.g. the distributed-memory driver) that receive rows one by one.
    ///
    /// # Panics
    ///
    /// Panics when `row.len() != n`.
    pub fn copy_row_from(&mut self, u: u32, row: &[u32]) {
        self.row_mut(u).copy_from_slice(row);
    }

    /// Iterates over `(source, row)` pairs.
    pub fn rows(&self) -> impl Iterator<Item = (u32, &[u32])> {
        (0..self.n as u32).map(move |u| (u, self.row(u)))
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.data
    }

    /// True when `d(u, v) == d(v, u)` for all pairs — a structural
    /// invariant of APSP on undirected graphs that the tests exploit.
    pub fn is_symmetric(&self) -> bool {
        (0..self.n).all(|u| {
            (u + 1..self.n).all(|v| self.data[u * self.n + v] == self.data[v * self.n + u])
        })
    }

    /// Number of ordered pairs `(u, v)`, `u != v`, with a finite distance.
    pub fn reachable_pairs(&self) -> usize {
        let mut count = 0;
        for u in 0..self.n {
            for v in 0..self.n {
                if u != v && self.data[u * self.n + v] != INF {
                    count += 1;
                }
            }
        }
        count
    }

    /// Returns the first coordinate where two matrices differ, for test
    /// diagnostics.
    pub fn first_difference(&self, other: &DistanceMatrix) -> Option<(u32, u32, u32, u32)> {
        if self.n != other.n {
            return Some((u32::MAX, u32::MAX, self.n as u32, other.n as u32));
        }
        for u in 0..self.n {
            for v in 0..self.n {
                let a = self.data[u * self.n + v];
                let b = other.data[u * self.n + v];
                if a != b {
                    return Some((u as u32, v as u32, a, b));
                }
            }
        }
        None
    }
}

impl std::fmt::Debug for DistanceMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "DistanceMatrix({} × {})", self.n, self.n)?;
        let shown = self.n.min(8);
        for u in 0..shown {
            write!(f, "  [")?;
            for v in 0..shown {
                let d = self.data[u * self.n + v];
                if d == INF {
                    write!(f, "  ∞")?;
                } else {
                    write!(f, "{d:3}")?;
                }
            }
            writeln!(f, "{}]", if self.n > shown { " …" } else { "" })?;
        }
        if self.n > shown {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_matrix_is_all_infinite() {
        let m = DistanceMatrix::new_infinite(4);
        assert_eq!(m.n(), 4);
        assert!(m.as_slice().iter().all(|&d| d == INF));
        assert_eq!(m.reachable_pairs(), 0);
    }

    #[test]
    fn get_row_and_mutation() {
        let mut m = DistanceMatrix::new_infinite(3);
        m.row_mut(1)[2] = 7;
        assert_eq!(m.get(1, 2), 7);
        assert_eq!(m.row(1), &[INF, INF, 7]);
        assert_eq!(m.rows().count(), 3);
    }

    #[test]
    fn symmetry_detection() {
        let mut m = DistanceMatrix::new_infinite(2);
        assert!(m.is_symmetric());
        m.row_mut(0)[1] = 3;
        assert!(!m.is_symmetric());
        m.row_mut(1)[0] = 3;
        assert!(m.is_symmetric());
    }

    #[test]
    fn first_difference_pinpoints_mismatch() {
        let mut a = DistanceMatrix::new_infinite(3);
        let mut b = DistanceMatrix::new_infinite(3);
        a.row_mut(2)[0] = 5;
        b.row_mut(2)[0] = 6;
        assert_eq!(a.first_difference(&b), Some((2, 0, 5, 6)));
        b.row_mut(2)[0] = 5;
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn from_raw_validates_length() {
        let _ = DistanceMatrix::from_raw(2, vec![0u32; 3].into_boxed_slice());
    }

    #[test]
    fn zeroed_cells_are_zero_at_every_length() {
        // 0, 1, a non-page multiple, and one spanning several huge pages
        // with an unaligned tail (the advised interior).
        for len in [0, 1, 1_027, (5 << 20) / 4 + 3] {
            let cells = zeroed_cells(len);
            assert_eq!(cells.len(), len);
            assert!(cells.iter().all(|&c| c == 0), "len {len}");
        }
    }

    #[test]
    fn zero_size_matrix() {
        let m = DistanceMatrix::new_infinite(0);
        assert_eq!(m.n(), 0);
        assert_eq!(m.rows().count(), 0);
        assert!(m.is_symmetric());
    }

    #[test]
    fn debug_output_truncates() {
        let m = DistanceMatrix::new_infinite(20);
        let s = format!("{m:?}");
        assert!(s.contains("20 × 20"));
        assert!(s.contains('…'));
    }
}
