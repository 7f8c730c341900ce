//! The per-node worker: private rows, the core row solver, and the
//! hub-row mailbox.
//!
//! A node runs the very row solver of the shared-memory engines
//! ([`RowSolver`], resolved from the run's [`KernelOptions`]), reading
//! finished rows from its own table of computed and received rows
//! instead of a `Store`. So `--solver`, `--relax` and `--cap` act inside
//! every worker, and a capped row does less work. A node is
//! single-threaded over its own memory, so everything here is safe code —
//! the distributed setting trades the publication protocol for explicit
//! messages. Every row that crosses the simulated wire carries an FNV-1a
//! checksum; receivers verify it and discard rows that fail, so a
//! corrupted payload can never poison the reuse pools or the gathered
//! matrix.

use std::cell::Cell;

use parapsp_core::kernel::{KernelOptions, Workspace};
use parapsp_core::solver::RowSolver;
use parapsp_core::{Counters, FinishedRows, RowLease};
use parapsp_graph::{CsrGraph, INF};

/// FNV-1a over the source id and the row payload. This is the very same
/// function the run ledger stamps on its records, so a row journaled by
/// the driver carries the checksum it was verified against on the wire.
pub(crate) use parapsp_core::persist::row_checksum;

/// A completed row in transit between nodes (or to the driver).
#[derive(Debug, Clone)]
pub(crate) struct RowMessage {
    /// Global source vertex of the row.
    pub source: u32,
    /// The full, final distance row of that source.
    pub row: Vec<u32>,
    /// FNV-1a checksum of `source` and `row`, computed by the sender
    /// before the payload touches the wire.
    pub checksum: u32,
}

impl RowMessage {
    /// Seals a row for transmission, stamping its checksum.
    pub(crate) fn new(source: u32, row: Vec<u32>) -> Self {
        let checksum = row_checksum(source, &row);
        RowMessage {
            source,
            row,
            checksum,
        }
    }

    /// Whether the payload still matches its checksum.
    pub(crate) fn verify(&self) -> bool {
        row_checksum(self.source, &self.row) == self.checksum
    }

    /// Bytes this message occupies on the simulated wire: source id,
    /// checksum, payload.
    pub(crate) fn wire_bytes(&self) -> u64 {
        8 + self.row.len() as u64 * 4
    }
}

/// A node's finished rows, by global source: the ones it computed and
/// the hub rows it received. The row solver reads them through
/// [`FinishedRows`], which counts local and remote reuses apart.
struct RowTable {
    rows: Vec<Option<Vec<u32>>>,
    /// Which of `rows` this node computed itself.
    local: Vec<bool>,
    local_reuses: Cell<u64>,
    remote_reuses: Cell<u64>,
}

impl FinishedRows for RowTable {
    fn lease_row(&self, t: u32) -> Option<RowLease<'_>> {
        let row = self.rows[t as usize].as_deref()?;
        let reuses = if self.local[t as usize] {
            &self.local_reuses
        } else {
            &self.remote_reuses
        };
        reuses.set(reuses.get() + 1);
        Some(RowLease::borrowed(row))
    }

    fn prefetch_row(&self, _t: u32) {}
}

/// Private per-node state: the row table, the resolved row solver and
/// its scratch.
pub(crate) struct NodeState {
    table: RowTable,
    solver: RowSolver,
    ws: Workspace,
    /// The solver's work counters over this node's rows.
    pub(crate) counters: Counters,
    /// Received rows discarded for failing their checksum.
    pub(crate) rows_rejected: u64,
}

impl NodeState {
    /// A node of a run on `graph` solving rows under `options`.
    pub(crate) fn new(graph: &CsrGraph, options: KernelOptions) -> Self {
        let n = graph.vertex_count();
        NodeState {
            table: RowTable {
                rows: vec![None; n],
                local: vec![false; n],
                local_reuses: Cell::new(0),
                remote_reuses: Cell::new(0),
            },
            solver: RowSolver::resolve(graph, options),
            ws: Workspace::new(n),
            counters: Counters::default(),
            rows_rejected: 0,
        }
    }

    /// Row-reuse events against the node's own rows and against received
    /// ones.
    pub(crate) fn reuses(&self) -> (u64, u64) {
        (
            self.table.local_reuses.get(),
            self.table.remote_reuses.get(),
        )
    }

    /// Stores a received remote row after verifying its checksum; a
    /// corrupted row is counted and dropped, and a row this node computed
    /// itself is kept.
    pub(crate) fn accept(&mut self, message: RowMessage) {
        debug_assert_eq!(message.row.len(), self.table.rows.len());
        if !message.verify() {
            self.rows_rejected += 1;
            return;
        }
        let s = message.source as usize;
        if !self.table.local[s] {
            self.table.rows[s] = Some(message.row);
        }
    }

    /// The row of source `s`, if this node computed it (used to re-send a
    /// gather row the driver rejected).
    pub(crate) fn row_for(&self, s: u32) -> Option<&[u32]> {
        if self.table.local[s as usize] {
            self.table.rows[s as usize].as_deref()
        } else {
            None
        }
    }

    /// Solves source `s` with the run's row solver, storing the row
    /// locally and returning a reference to it.
    pub(crate) fn run_source(&mut self, graph: &CsrGraph, s: u32) -> &[u32] {
        let mut row = vec![INF; self.table.rows.len()];
        self.solver.solve_row(
            graph,
            s,
            &self.table,
            &mut row,
            &mut self.ws,
            &mut self.counters,
            None,
        );
        self.table.local[s as usize] = true;
        self.table.rows[s as usize].insert(row)
    }

    /// Consumes the node, yielding `(global_source, row)` pairs for every
    /// row it computed. The cluster driver streams rows instead; this
    /// stays for direct inspection in tests.
    #[cfg(test)]
    pub(crate) fn into_rows(self) -> Vec<(u32, Vec<u32>)> {
        let local = self.table.local;
        (0..)
            .zip(self.table.rows)
            .filter(|&(s, _)| local[s as usize])
            .filter_map(|(s, row)| row.map(|row| (s, row)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parapsp_core::baselines::dijkstra_sssp;
    use parapsp_graph::generate::{barabasi_albert, path_graph, WeightSpec};
    use parapsp_graph::Direction;

    #[test]
    fn single_node_computes_exact_rows() {
        let g = path_graph(5, Direction::Undirected);
        let mut node = NodeState::new(&g, KernelOptions::default());
        for s in 0..5u32 {
            node.run_source(&g, s);
        }
        let rows = node.into_rows();
        assert_eq!(rows.len(), 5);
        for (s, row) in rows {
            for v in 0..5u32 {
                assert_eq!(row[v as usize], s.abs_diff(v));
            }
        }
    }

    #[test]
    fn remote_rows_are_reused() {
        let g = parapsp_graph::generate::complete_graph(6);
        // Node solves only source 3; receives row of 0 from "elsewhere".
        let mut node = NodeState::new(&g, KernelOptions::default());
        let mut remote = vec![1u32; 6];
        remote[0] = 0;
        node.accept(RowMessage::new(0, remote));
        node.run_source(&g, 3);
        assert_eq!(node.reuses(), (0, 1));
        let rows = node.into_rows();
        assert_eq!(rows[0].1[0], 1);
        assert_eq!(rows[0].1[3], 0);
    }

    #[test]
    fn corrupted_remote_row_is_rejected_not_reused() {
        let g = parapsp_graph::generate::complete_graph(6);
        let mut node = NodeState::new(&g, KernelOptions::default());
        let mut remote = vec![1u32; 6];
        remote[0] = 0;
        let mut message = RowMessage::new(0, remote);
        message.row[2] ^= 1 << 7; // in-flight bit flip
        node.accept(message);
        assert_eq!(node.rows_rejected, 1);
        node.run_source(&g, 3);
        assert_eq!(node.reuses().1, 0, "rejected row must not be reused");
    }

    #[test]
    fn runtime_assignment_extends_ownership() {
        // A node solves whatever it is dealt: its initial share, or a
        // source re-dealt to it mid-run.
        let g = path_graph(4, Direction::Undirected);
        let mut node = NodeState::new(&g, KernelOptions::default());
        node.run_source(&g, 0);
        node.run_source(&g, 2);
        assert_eq!(node.row_for(2), Some(&[2u32, 1, 0, 1][..]));
        assert_eq!(node.row_for(1), None);
        let mut rows = node.into_rows();
        rows.sort_by_key(|&(s, _)| s);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].0, 2);
    }

    #[test]
    fn capped_sweep_relaxes_less_and_matches_post_filtered_rows() {
        // The cap acts inside the node's solver, so a capped sweep does
        // strictly less work than an uncapped one, and each row is the
        // exact row post-filtered at the cap.
        let g = barabasi_albert(200, 3, WeightSpec::Uniform { lo: 1, hi: 9 }, 17).unwrap();
        let cap = 6;
        let sweep = |max_distance| {
            let options = KernelOptions {
                max_distance,
                ..KernelOptions::default()
            };
            let mut node = NodeState::new(&g, options);
            for s in 0..200 {
                node.run_source(&g, s);
            }
            node
        };
        let uncapped = sweep(None);
        let capped = sweep(Some(cap));
        assert!(
            capped.counters.relaxations < uncapped.counters.relaxations,
            "capped {} vs uncapped {} relaxations",
            capped.counters.relaxations,
            uncapped.counters.relaxations
        );
        let mut exact = vec![0; 200];
        for s in 0..200 {
            dijkstra_sssp(&g, s, &mut exact);
            assert_eq!(uncapped.row_for(s), Some(&exact[..]), "source {s}");
            let filtered: Vec<u32> = exact
                .iter()
                .map(|&d| if d > cap { INF } else { d })
                .collect();
            assert_eq!(capped.row_for(s), Some(&filtered[..]), "source {s}");
        }
    }

    #[test]
    fn wire_bytes_counts_header_checksum_and_payload() {
        let m = RowMessage::new(1, vec![0; 10]);
        assert_eq!(m.wire_bytes(), 4 + 4 + 40);
    }

    #[test]
    fn checksum_detects_any_single_bit_flip_in_a_sample() {
        let row: Vec<u32> = (0..32u32)
            .map(|i| i.wrapping_mul(2654435761) % 1000)
            .collect();
        let clean = RowMessage::new(9, row);
        assert!(clean.verify());
        for word in 0..clean.row.len() {
            for bit in [0u32, 7, 13, 31] {
                let mut tampered = clean.clone();
                tampered.row[word] ^= 1 << bit;
                assert!(
                    !tampered.verify(),
                    "flip at word {word} bit {bit} went undetected"
                );
            }
        }
        let mut wrong_source = clean.clone();
        wrong_source.source = 10;
        assert!(!wrong_source.verify());
    }
}
