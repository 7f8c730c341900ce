//! Saving and loading distance matrices, plus partial-run checkpoints.
//!
//! An APSP run over a real dataset can take hours (the paper quotes
//! "several hours" for Flickr sequentially) — downstream analysis should
//! not have to recompute it, and a crashed run should not have to start
//! over. Three on-disk shapes:
//!
//! * **binary, version 1** — `PAPD` magic, format version, `n` as u64,
//!   then `n²` little-endian `u32`s. Compact and exact; ~4·n² bytes.
//! * **checkpoint, version 2** — same magic, version 2, `n`, the number
//!   of completed rows, a completed-row bitmap, then only the completed
//!   rows in ascending source order. Runs wrote it before the run ledger
//!   existed; it is still read, so old files resume via
//!   [`crate::engine::Runner::run_resumed`], but no run writes it.
//! * **run ledger, version 3** — same magic, version 3, `n`, a run id and
//!   driver epoch, then one *appended* framed record per completed row
//!   (source id, row length, payload, FNV-1a checksum). The one format a
//!   run writes: it grows by O(row) per completed row, every record is
//!   checksummed, and recovery ([`RowLedger::open`]) truncates a torn
//!   tail and replays the longest valid prefix, so a crash mid-append
//!   loses at most the record being written and a corrupted record is
//!   never replayed.
//! * **TSV** — human-readable rows, `INF` spelled as `inf`; intended for
//!   spreadsheets and ad-hoc scripts on small matrices.
//!
//! Version skew is one-directional by design: [`read_checkpoint`] accepts
//! a version-1 full matrix (treated as "every row complete") and replays a
//! version-3 ledger (so `--resume` takes either artifact), while
//! [`read_binary`] rejects version-2/3 files so pre-checkpoint readers
//! fail loudly instead of misinterpreting a bitmap as distances.
//!
//! All readers treat the header as untrusted: payloads are read in
//! bounded chunks, so a tiny file whose header claims a multi-gigabyte
//! matrix fails with [`PersistError::Format`] instead of attempting the
//! allocation.

use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use parapsp_graph::INF;

use crate::dist::DistanceMatrix;

const MAGIC: &[u8; 4] = b"PAPD";
const VERSION: u8 = 1;
const CHECKPOINT_VERSION: u8 = 2;
const LEDGER_VERSION: u8 = 3;

/// Bytes before the first ledger record: magic, version, `n`, run id,
/// epoch.
const LEDGER_HEADER_LEN: u64 = 4 + 1 + 8 + 8 + 4;
/// Byte offset of the epoch field inside the ledger header.
const LEDGER_EPOCH_OFFSET: u64 = 4 + 1 + 8 + 8;

/// FNV-1a over a source id and its row payload (little-endian words).
///
/// The same checksum seals rows on the distributed wire and in the run
/// ledger, so a row gathered over the network and a row replayed from
/// disk are guarded by one algorithm.
pub fn row_checksum(source: u32, row: &[u32]) -> u32 {
    const OFFSET: u32 = 0x811C_9DC5;
    const PRIME: u32 = 0x0100_0193;
    let mut hash = OFFSET;
    let mut eat = |word: u32| {
        for byte in word.to_le_bytes() {
            hash ^= u32::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    eat(source);
    for &word in row {
        eat(word);
    }
    hash
}

/// Cells per chunked read: 64 Ki cells = 256 KiB. Memory for a payload
/// grows with the bytes that actually arrive, never with the header's
/// claimed size alone.
const READ_CHUNK_CELLS: usize = 1 << 16;

/// Errors from matrix persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input is not a matrix file, or is a newer/corrupt version.
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(err) => write!(f, "I/O error: {err}"),
            PersistError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(err: std::io::Error) -> Self {
        PersistError::Io(err)
    }
}

/// Reads `cells` little-endian `u32`s in bounded chunks. `cells` comes
/// from an untrusted header, so nothing is allocated up front: the vector
/// grows only as data arrives, and a premature EOF is a [`PersistError::Format`]
/// naming how much of the promised payload was present.
fn read_cells<R: Read>(reader: &mut R, cells: usize) -> Result<Vec<u32>, PersistError> {
    let mut data = Vec::new();
    let mut bytes = vec![0u8; READ_CHUNK_CELLS.min(cells.max(1)) * 4];
    let mut remaining = cells;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK_CELLS);
        let chunk = &mut bytes[..take * 4];
        reader.read_exact(chunk).map_err(|err| {
            if err.kind() == std::io::ErrorKind::UnexpectedEof {
                PersistError::Format(format!(
                    "truncated payload: header promises {cells} cells, file ends within cell {}",
                    cells - remaining
                ))
            } else {
                PersistError::Io(err)
            }
        })?;
        data.extend(
            chunk
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        remaining -= take;
    }
    Ok(data)
}

/// Rejects trailing garbage after a fully parsed payload (a corrupt or
/// concatenated file).
fn expect_eof<R: Read>(reader: &mut R) -> Result<(), PersistError> {
    let mut probe = [0u8; 1];
    if reader.read(&mut probe)? != 0 {
        return Err(PersistError::Format("trailing bytes after matrix".into()));
    }
    Ok(())
}

/// Parses the shared `PAPD` header, returning `(version, n)`.
fn read_header<R: Read>(reader: &mut R) -> Result<(u8, usize), PersistError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(PersistError::Format(
            "missing PAPD magic — not a distance matrix file".into(),
        ));
    }
    let mut version = [0u8; 1];
    reader.read_exact(&mut version)?;
    let mut n_bytes = [0u8; 8];
    reader.read_exact(&mut n_bytes)?;
    let n = u64::from_le_bytes(n_bytes);
    let n = usize::try_from(n)
        .ok()
        .filter(|n| n.checked_mul(*n).is_some())
        .ok_or_else(|| PersistError::Format(format!("matrix size {n} overflows")))?;
    Ok((version[0], n))
}

/// Serializes one row as little-endian bytes and writes it in a single
/// call (one syscall-sized write per row instead of one per cell).
fn write_row<W: Write>(writer: &mut W, row: &[u32], buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.clear();
    for &cell in row {
        buf.extend_from_slice(&cell.to_le_bytes());
    }
    writer.write_all(buf)
}

/// Writes the binary format to any writer.
pub fn write_binary<W: Write>(dist: &DistanceMatrix, writer: W) -> Result<(), PersistError> {
    let mut writer = BufWriter::new(writer);
    writer.write_all(MAGIC)?;
    writer.write_all(&[VERSION])?;
    writer.write_all(&(dist.n() as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(dist.n() * 4);
    for (_, row) in dist.rows() {
        write_row(&mut writer, row, &mut buf)?;
    }
    writer.flush()?;
    Ok(())
}

/// Reads the binary format from any reader. Rejects checkpoint (version 2)
/// files: a partial matrix must be loaded with [`read_checkpoint`] so
/// missing rows cannot masquerade as real distances.
pub fn read_binary<R: Read>(reader: R) -> Result<DistanceMatrix, PersistError> {
    let mut reader = BufReader::new(reader);
    let (version, n) = read_header(&mut reader)?;
    if version != VERSION {
        return Err(PersistError::Format(format!(
            "unsupported format version {version} (checkpoints are version {CHECKPOINT_VERSION}; \
             load them with read_checkpoint)"
        )));
    }
    let data = read_cells(&mut reader, n * n)?;
    expect_eof(&mut reader)?;
    Ok(DistanceMatrix::from_raw(n, data.into_boxed_slice()))
}

/// Writes a matrix to `path` in the binary format.
pub fn save_binary(dist: &DistanceMatrix, path: impl AsRef<Path>) -> Result<(), PersistError> {
    write_binary(dist, std::fs::File::create(path)?)
}

/// Loads a matrix from a binary file.
pub fn load_binary(path: impl AsRef<Path>) -> Result<DistanceMatrix, PersistError> {
    read_binary(std::fs::File::open(path)?)
}

/// A partially computed distance matrix: the matrix itself plus a flag
/// per source row saying whether that row is final. Incomplete rows are
/// all-[`INF`], exactly the state a fresh kernel expects, so a resumed
/// run computes only the missing sources and lands on the bit-identical
/// matrix a fault-free run would have produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    dist: DistanceMatrix,
    completed: Vec<bool>,
}

impl Checkpoint {
    /// Wraps a matrix and its completed-row flags.
    ///
    /// Rows marked incomplete are scrubbed back to all-[`INF`]: the
    /// resume path owns them from scratch, so no half-written values may
    /// leak through.
    ///
    /// # Panics
    ///
    /// Panics when `completed.len() != dist.n()`.
    pub fn new(mut dist: DistanceMatrix, completed: Vec<bool>) -> Self {
        assert_eq!(
            completed.len(),
            dist.n(),
            "one completed flag per source row"
        );
        for (s, &done) in completed.iter().enumerate() {
            if !done {
                dist.row_mut(s as u32).fill(INF);
            }
        }
        Checkpoint { dist, completed }
    }

    /// [`Checkpoint::new`] for a matrix whose incomplete rows are already
    /// all-[`INF`] — a [`Store`](crate::store::Store) snapshot or teardown
    /// — without a second pass over them.
    pub(crate) fn from_store_parts(dist: DistanceMatrix, completed: Vec<bool>) -> Self {
        assert_eq!(
            completed.len(),
            dist.n(),
            "one completed flag per source row"
        );
        debug_assert!(
            (0..dist.n()).all(|s| completed[s] || dist.row(s as u32).iter().all(|&d| d == INF)),
            "store handed out an incomplete row that is not all INF"
        );
        Checkpoint { dist, completed }
    }

    /// A checkpoint in which every row is final (a finished run).
    pub fn complete(dist: DistanceMatrix) -> Self {
        let completed = vec![true; dist.n()];
        Checkpoint { dist, completed }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.dist.n()
    }

    /// Per-source completion flags.
    pub fn completed(&self) -> &[bool] {
        &self.completed
    }

    /// How many rows are final.
    pub fn completed_count(&self) -> usize {
        self.completed.iter().filter(|&&done| done).count()
    }

    /// Whether every row is final (the checkpoint is a full matrix).
    pub fn is_complete(&self) -> bool {
        self.completed.iter().all(|&done| done)
    }

    /// The matrix (incomplete rows are all-[`INF`]).
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.dist
    }

    /// Splits the checkpoint into matrix and flags.
    pub fn into_parts(self) -> (DistanceMatrix, Vec<bool>) {
        (self.dist, self.completed)
    }
}

/// Bitmap bytes needed for `n` rows.
fn bitmap_len(n: usize) -> usize {
    n.div_ceil(8)
}

/// Writes the version-2 checkpoint format: header, completed count,
/// completed-row bitmap (LSB-first within each byte, padding bits zero),
/// then only the completed rows in ascending source order.
///
/// No run writes this format any more (runs write a [`RowLedger`]); this
/// stays to build version-2 inputs for [`read_checkpoint`], which still
/// loads them.
pub fn write_checkpoint<W: Write>(cp: &Checkpoint, writer: W) -> Result<(), PersistError> {
    let n = cp.n();
    let mut writer = BufWriter::new(writer);
    writer.write_all(MAGIC)?;
    writer.write_all(&[CHECKPOINT_VERSION])?;
    writer.write_all(&(n as u64).to_le_bytes())?;
    writer.write_all(&(cp.completed_count() as u64).to_le_bytes())?;
    let mut bitmap = vec![0u8; bitmap_len(n)];
    for (s, &done) in cp.completed.iter().enumerate() {
        if done {
            bitmap[s / 8] |= 1 << (s % 8);
        }
    }
    writer.write_all(&bitmap)?;
    let mut buf = Vec::with_capacity(n * 4);
    for (s, &done) in cp.completed.iter().enumerate() {
        if done {
            write_row(&mut writer, cp.dist.row(s as u32), &mut buf)?;
        }
    }
    writer.flush()?;
    Ok(())
}

/// Reads a checkpoint. Accepts both format versions: a version-1 full
/// matrix loads as an all-rows-complete checkpoint (old outputs remain
/// valid resume inputs), and version 2 is the native checkpoint format
/// with its bitmap validated against the completed count and its padding
/// bits required to be zero.
pub fn read_checkpoint<R: Read>(reader: R) -> Result<Checkpoint, PersistError> {
    let mut reader = BufReader::new(reader);
    let (version, n) = read_header(&mut reader)?;
    match version {
        VERSION => {
            let data = read_cells(&mut reader, n * n)?;
            expect_eof(&mut reader)?;
            Ok(Checkpoint::complete(DistanceMatrix::from_raw(
                n,
                data.into_boxed_slice(),
            )))
        }
        CHECKPOINT_VERSION => {
            let mut count_bytes = [0u8; 8];
            reader.read_exact(&mut count_bytes)?;
            let claimed = u64::from_le_bytes(count_bytes);
            if claimed > n as u64 {
                return Err(PersistError::Format(format!(
                    "checkpoint claims {claimed} completed rows of only {n}"
                )));
            }
            let mut bitmap = vec![0u8; bitmap_len(n)];
            reader.read_exact(&mut bitmap)?;
            let completed: Vec<bool> = (0..n)
                .map(|s| bitmap[s / 8] & (1 << (s % 8)) != 0)
                .collect();
            let set = completed.iter().filter(|&&done| done).count();
            if set as u64 != claimed {
                return Err(PersistError::Format(format!(
                    "checkpoint bitmap has {set} rows set but the header claims {claimed}"
                )));
            }
            for s in n..bitmap.len() * 8 {
                if bitmap[s / 8] & (1 << (s % 8)) != 0 {
                    return Err(PersistError::Format(
                        "checkpoint bitmap has padding bits set".into(),
                    ));
                }
            }
            let cells = read_cells(&mut reader, set * n)?;
            expect_eof(&mut reader)?;
            let mut dist = DistanceMatrix::new_infinite(n);
            let mut rows = cells.chunks_exact(n.max(1));
            for (s, &done) in completed.iter().enumerate() {
                if done {
                    dist.copy_row_from(s as u32, rows.next().expect("one chunk per set bit"));
                }
            }
            Ok(Checkpoint { dist, completed })
        }
        LEDGER_VERSION => {
            let (checkpoint, _, _, _) = replay_ledger_body(&mut reader, n)?;
            Ok(checkpoint)
        }
        other => Err(PersistError::Format(format!(
            "unsupported format version {other}"
        ))),
    }
}

/// Fsyncs the directory holding `path`, making a just-created entry
/// durable. A bare filename syncs `.`, the working directory.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

/// Non-Unix platforms often refuse to open directories; the entry's
/// durability across power loss is left to the OS.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> std::io::Result<()> {
    Ok(())
}

/// Loads a checkpoint from a file (any format version, including a
/// version-3 run ledger, whose longest valid record prefix is replayed).
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<Checkpoint, PersistError> {
    read_checkpoint(std::fs::File::open(path)?)
}

// ---------------------------------------------------------------------------
// Run ledger (version 3): crash-safe O(row) incremental durability
// ---------------------------------------------------------------------------

/// When ledger appends reach the platter.
///
/// The ledger appends small records, so the caller chooses the
/// durability/throughput point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Fsync after every appended record: a crash loses nothing that
    /// [`RowLedger::append`] returned `Ok` for.
    Always,
    /// Fsync on [`RowLedger::commit`] (the `Runner` commits once per
    /// checkpoint chunk) and on [`RowLedger::finish`]. The default: a
    /// crash loses at most one uncommitted chunk.
    #[default]
    Commit,
    /// Never fsync explicitly; the OS flushes the page cache on its own
    /// schedule. Fastest, weakest — recovery still never yields a
    /// corrupted row, only fewer of them.
    Never,
}

impl FsyncPolicy {
    /// Every selectable policy, in display order.
    pub const ALL: [FsyncPolicy; 3] =
        [FsyncPolicy::Always, FsyncPolicy::Commit, FsyncPolicy::Never];

    /// The stable CLI name of this policy.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Commit => "commit",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Reads exactly `buf.len()` bytes, or returns `None` on a premature EOF
/// (a torn ledger tail, not an error). Genuine I/O failures propagate.
fn read_exact_or_torn<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<Option<()>, PersistError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Ok(None),
            Ok(got) => filled += got,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
            Err(err) => return Err(PersistError::Io(err)),
        }
    }
    Ok(Some(()))
}

/// Replays ledger records after the `(version, n)` header: reads the run
/// id and epoch, then accepts framed records until the first torn or
/// invalid one. Returns the replayed checkpoint, the run id, the epoch,
/// and the byte length of the valid prefix (header included) — everything
/// past that length is a torn tail the writer may truncate.
fn replay_ledger_body<R: Read>(
    reader: &mut R,
    n: usize,
) -> Result<(Checkpoint, u64, u32, u64), PersistError> {
    let mut id_bytes = [0u8; 8];
    reader.read_exact(&mut id_bytes)?;
    let run_id = u64::from_le_bytes(id_bytes);
    let mut epoch_bytes = [0u8; 4];
    reader.read_exact(&mut epoch_bytes)?;
    let epoch = u32::from_le_bytes(epoch_bytes);

    let mut dist = DistanceMatrix::new_infinite(n);
    let mut completed = vec![false; n];
    let mut valid = LEDGER_HEADER_LEN;
    let mut payload = Vec::new();
    loop {
        let mut record_header = [0u8; 8];
        if read_exact_or_torn(reader, &mut record_header)?.is_none() {
            break;
        }
        let source = u32::from_le_bytes(record_header[..4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(record_header[4..].try_into().expect("4 bytes"));
        // A record whose coordinates disagree with the header is
        // indistinguishable from a torn/corrupt tail: stop replaying.
        if source as usize >= n || len as usize != n {
            break;
        }
        // Bounded payload read: memory grows with arriving data, and a
        // short read is a torn tail, not a format error.
        payload.clear();
        let mut chunk = [0u8; 4];
        let mut torn = false;
        for _ in 0..n {
            if read_exact_or_torn(reader, &mut chunk)?.is_none() {
                torn = true;
                break;
            }
            payload.push(u32::from_le_bytes(chunk));
        }
        if torn {
            break;
        }
        let mut sum_bytes = [0u8; 4];
        if read_exact_or_torn(reader, &mut sum_bytes)?.is_none() {
            break;
        }
        if u32::from_le_bytes(sum_bytes) != row_checksum(source, &payload) {
            break;
        }
        dist.copy_row_from(source, &payload);
        completed[source as usize] = true;
        valid += record_len(n) as u64;
    }
    Ok((Checkpoint { dist, completed }, run_id, epoch, valid))
}

/// Byte length of one framed ledger record of an `n`-vertex run: source
/// id, row length, `n` cells, checksum.
fn record_len(n: usize) -> usize {
    8 + 4 * n + 4
}

/// Frames completed row `source` as one version-3 ledger record into
/// `out` (replacing its contents): source id, row length, the cells as
/// little-endian words, then their [`row_checksum`]. Pure — no I/O — so
/// row owners can encode in parallel and hand the bytes to
/// [`RowLedger::append_encoded`].
pub fn encode_record(source: u32, row: &[u32], out: &mut Vec<u8>) {
    out.clear();
    out.resize(record_len(row.len()), 0);
    let (header, rest) = out.split_at_mut(8);
    header[..4].copy_from_slice(&source.to_le_bytes());
    header[4..].copy_from_slice(&(row.len() as u32).to_le_bytes());
    let (payload, sum) = rest.split_at_mut(4 * row.len());
    for (chunk, &cell) in payload.chunks_exact_mut(4).zip(row) {
        chunk.copy_from_slice(&cell.to_le_bytes());
    }
    sum.copy_from_slice(&row_checksum(source, row).to_le_bytes());
}

/// A crash-safe append-only run ledger: one framed record per completed
/// row, recovered by replaying the longest valid prefix.
///
/// The ledger appends O(n) bytes per completed row — the per-source
/// decomposition makes every completed row independently final, so
/// appending it once is all the durability a restart needs. The header
/// carries a `run_id` (minted at [`RowLedger::create`]) and an `epoch`
/// (bumped on every [`RowLedger::open`] of an existing file), which the
/// distributed driver hands to its workers so a restarted driver can
/// reject handshakes from a different run or a stale incarnation.
#[derive(Debug)]
pub struct RowLedger {
    writer: BufWriter<std::fs::File>,
    path: PathBuf,
    n: usize,
    policy: FsyncPolicy,
    run_id: u64,
    epoch: u32,
    records: u64,
    dirty: bool,
    buf: Vec<u8>,
}

/// Accepts a `(version, n)` header only when it is a run ledger for `n`
/// vertices; otherwise the error names what the file is.
fn expect_ledger(version: u8, file_n: usize, n: usize) -> Result<(), PersistError> {
    let kind = match version {
        LEDGER_VERSION if file_n == n => return Ok(()),
        LEDGER_VERSION => {
            return Err(PersistError::Format(format!(
                "a version-{LEDGER_VERSION} run ledger for {file_n} vertices, \
                 but this run has {n}"
            )))
        }
        VERSION => "distance matrix",
        CHECKPOINT_VERSION => "checkpoint",
        _ => "file of an unknown format",
    };
    Err(PersistError::Format(format!(
        "not a run ledger: a version-{version} {kind} (ledgers are version {LEDGER_VERSION})"
    )))
}

/// Checks, from its header alone, that `path` can be the run ledger of an
/// `n`-vertex run: the file is missing, empty, or already such a ledger
/// (which the run then resumes). Anything else — a version-1 matrix, a
/// version-2 checkpoint, a ledger for another `n`, a foreign file — is an
/// error naming what the file is, so a caller can refuse it before the
/// run starts and leave it untouched, instead of failing inside the run
/// when [`RowLedger::open`] rejects it.
pub fn check_ledger_target(path: impl AsRef<Path>, n: usize) -> Result<(), PersistError> {
    let mut file = match std::fs::File::open(path) {
        Ok(file) => file,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(err) => return Err(PersistError::Io(err)),
    };
    if file.metadata()?.len() == 0 {
        return Ok(());
    }
    let (version, file_n) = read_header(&mut file)?;
    expect_ledger(version, file_n, n)
}

/// Mints a run id that is unique for practical purposes without a
/// dependency on an RNG crate: wall-clock nanoseconds and the process id,
/// mixed through splitmix64. Never returns 0 — that value is reserved for
/// "no previous run" in the distributed handshake. Used by
/// [`RowLedger::create`], and by the distributed driver for ledger-less
/// runs that still need a run identity to hand their workers.
pub fn mint_run_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut z = nanos ^ (u64::from(std::process::id()) << 32);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).max(1) // 0 is reserved for "no previous run" in handshakes
}

impl RowLedger {
    /// Creates a fresh ledger at `path` (truncating any existing file)
    /// for an `n`-vertex run, minting a new run id at epoch 0. The header
    /// is written and — unless the policy is [`FsyncPolicy::Never`] —
    /// fsynced along with its directory entry before this returns.
    pub fn create(
        path: impl Into<PathBuf>,
        n: usize,
        policy: FsyncPolicy,
    ) -> Result<RowLedger, PersistError> {
        let path = path.into();
        let file = std::fs::File::create(&path)?;
        let mut ledger = RowLedger {
            writer: BufWriter::new(file),
            path,
            n,
            policy,
            run_id: mint_run_id(),
            epoch: 0,
            records: 0,
            dirty: false,
            buf: Vec::new(),
        };
        ledger.writer.write_all(MAGIC)?;
        ledger.writer.write_all(&[LEDGER_VERSION])?;
        ledger.writer.write_all(&(n as u64).to_le_bytes())?;
        ledger.writer.write_all(&ledger.run_id.to_le_bytes())?;
        ledger.writer.write_all(&ledger.epoch.to_le_bytes())?;
        ledger.writer.flush()?;
        if ledger.policy != FsyncPolicy::Never {
            ledger.writer.get_ref().sync_all()?;
            sync_parent_dir(&ledger.path)?;
        }
        Ok(ledger)
    }

    /// Opens `path` for appending, recovering whatever a previous
    /// incarnation managed to write: the longest valid record prefix is
    /// replayed into the returned [`Checkpoint`], the torn tail (if any)
    /// is truncated away, and the header's epoch is bumped — so workers
    /// still holding state from the previous driver incarnation can be
    /// told apart. A missing or empty file becomes a fresh
    /// [`RowLedger::create`].
    ///
    /// Fails with [`PersistError::Format`] when the file exists but is
    /// not an `n`-vertex ledger (wrong magic, version, or size) — an
    /// existing artifact is never silently clobbered.
    pub fn open(
        path: impl Into<PathBuf>,
        n: usize,
        policy: FsyncPolicy,
    ) -> Result<(RowLedger, Checkpoint), PersistError> {
        let path = path.into();
        let mut file = match std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
        {
            Ok(file) => file,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                let ledger = RowLedger::create(path, n, policy)?;
                let empty = Checkpoint::new(DistanceMatrix::new_infinite(n), vec![false; n]);
                return Ok((ledger, empty));
            }
            Err(err) => return Err(PersistError::Io(err)),
        };
        if file.metadata()?.len() == 0 {
            drop(file);
            let ledger = RowLedger::create(path, n, policy)?;
            let empty = Checkpoint::new(DistanceMatrix::new_infinite(n), vec![false; n]);
            return Ok((ledger, empty));
        }
        let (checkpoint, run_id, epoch, valid) = {
            let mut reader = BufReader::new(&mut file);
            let (version, file_n) = read_header(&mut reader)?;
            expect_ledger(version, file_n, n)?;
            replay_ledger_body(&mut reader, n)?
        };
        use std::io::Seek as _;
        let epoch = epoch.wrapping_add(1);
        file.seek(std::io::SeekFrom::Start(LEDGER_EPOCH_OFFSET))?;
        file.write_all(&epoch.to_le_bytes())?;
        // Truncate the torn tail so the next append extends the valid
        // prefix instead of burying garbage mid-file.
        file.set_len(valid)?;
        file.seek(std::io::SeekFrom::Start(valid))?;
        if policy != FsyncPolicy::Never {
            file.sync_all()?;
        }
        let records = checkpoint.completed_count() as u64;
        let ledger = RowLedger {
            writer: BufWriter::new(file),
            path,
            n,
            policy,
            run_id,
            epoch,
            records,
            dirty: false,
            buf: Vec::new(),
        };
        Ok((ledger, checkpoint))
    }

    /// Appends one completed row. With [`FsyncPolicy::Always`] the record
    /// is durable when this returns; otherwise it becomes durable at the
    /// next [`RowLedger::commit`] (or when the OS flushes).
    ///
    /// # Panics
    ///
    /// Panics when `row.len()` differs from the ledger's `n` — rows are
    /// final and full-length by construction, so a short row is a caller
    /// bug, not a runtime condition.
    pub fn append(&mut self, source: u32, row: &[u32]) -> Result<(), PersistError> {
        let mut buf = std::mem::take(&mut self.buf);
        encode_record(source, row, &mut buf);
        let appended = self.append_encoded(&buf);
        self.buf = buf;
        appended
    }

    /// Appends one record already framed by [`encode_record`] — the
    /// split that lets a row's owner encode (and checksum) its record in
    /// its own thread and hold a shared ledger only for the write.
    /// Durability follows [`RowLedger::append`].
    ///
    /// # Panics
    ///
    /// Panics when `record` is not one framed record of this ledger's `n`.
    pub fn append_encoded(&mut self, record: &[u8]) -> Result<(), PersistError> {
        assert_eq!(
            record.len(),
            record_len(self.n),
            "ledger rows are full n-length rows"
        );
        self.writer.write_all(record)?;
        self.records += 1;
        self.dirty = true;
        if self.policy == FsyncPolicy::Always {
            self.writer.flush()?;
            self.writer.get_ref().sync_data()?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Pushes buffered appends to the OS and — except under
    /// [`FsyncPolicy::Never`] — fsyncs them.
    pub fn commit(&mut self) -> Result<(), PersistError> {
        if !self.dirty {
            return Ok(());
        }
        self.writer.flush()?;
        if self.policy != FsyncPolicy::Never {
            self.writer.get_ref().sync_data()?;
        }
        self.dirty = false;
        Ok(())
    }

    /// Commits outstanding appends and closes the ledger.
    pub fn finish(mut self) -> Result<(), PersistError> {
        self.commit()
    }

    /// The ledger's destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The run id minted when the ledger was created.
    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    /// The driver incarnation count: 0 for a fresh ledger, bumped by
    /// every recovery-open of an existing file.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Records appended so far, replayed ones included.
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// Writes a tab-separated text dump (`inf` for unreachable pairs), one
/// buffered write per row.
pub fn write_tsv<W: Write>(dist: &DistanceMatrix, writer: W) -> Result<(), PersistError> {
    use std::fmt::Write as _;
    let mut writer = BufWriter::new(writer);
    let mut line = String::new();
    for (_, row) in dist.rows() {
        line.clear();
        for (i, &cell) in row.iter().enumerate() {
            if i > 0 {
                line.push('\t');
            }
            if cell == INF {
                line.push_str("inf");
            } else {
                write!(line, "{cell}").expect("writing to a String cannot fail");
            }
        }
        line.push('\n');
        writer.write_all(line.as_bytes())?;
    }
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ApspEngine, RunConfig, Runner};
    use parapsp_graph::generate::{barabasi_albert, WeightSpec};

    fn sample_matrix() -> DistanceMatrix {
        let g = barabasi_albert(60, 2, WeightSpec::Uniform { lo: 1, hi: 9 }, 5).unwrap();
        Runner::new(RunConfig::par_apsp(2))
            .run(ApspEngine::new(), &g)
            .dist
    }

    fn partial_checkpoint() -> Checkpoint {
        let dist = sample_matrix();
        let completed: Vec<bool> = (0..dist.n()).map(|s| s % 3 != 1).collect();
        Checkpoint::new(dist, completed)
    }

    #[test]
    fn binary_round_trip_in_memory() {
        let dist = sample_matrix();
        let mut buf = Vec::new();
        write_binary(&dist, &mut buf).unwrap();
        assert_eq!(buf.len(), 4 + 1 + 8 + 60 * 60 * 4);
        let loaded = read_binary(buf.as_slice()).unwrap();
        assert_eq!(dist.first_difference(&loaded), None);
    }

    #[test]
    fn binary_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("parapsp-persist-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("matrix.bin");
        let dist = sample_matrix();
        save_binary(&dist, &path).unwrap();
        let loaded = load_binary(&path).unwrap();
        assert_eq!(dist.first_difference(&loaded), None);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(matches!(
            read_binary(&b"NOPE"[..]),
            Err(PersistError::Io(_)) | Err(PersistError::Format(_))
        ));
        let mut buf = Vec::new();
        write_binary(&DistanceMatrix::new_infinite(3), &mut buf).unwrap();
        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_binary(bad.as_slice()),
            Err(PersistError::Format(_))
        ));
        // Wrong version.
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(matches!(
            read_binary(bad.as_slice()),
            Err(PersistError::Format(_))
        ));
        // Truncated payload — caught as a format error before any
        // allocation proportional to the claimed size.
        let truncated = &buf[..buf.len() - 2];
        assert!(matches!(
            read_binary(truncated),
            Err(PersistError::Format(_))
        ));
        // Trailing bytes.
        let mut extended = buf.clone();
        extended.push(0);
        assert!(matches!(
            read_binary(extended.as_slice()),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn forged_giant_header_fails_without_allocating() {
        // 4 GiB-matrix header followed by a handful of real bytes: the
        // chunked reader must bail on the missing payload, not allocate
        // cells for the claimed n².
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&(1u64 << 16).to_le_bytes());
        buf.extend_from_slice(&[7u8; 64]);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "got {err}");
        assert!(err.to_string().contains("truncated"), "got {err}");
    }

    #[test]
    fn checkpoint_round_trip_partial_and_complete() {
        for cp in [partial_checkpoint(), Checkpoint::complete(sample_matrix())] {
            let mut buf = Vec::new();
            write_checkpoint(&cp, &mut buf).unwrap();
            let loaded = read_checkpoint(buf.as_slice()).unwrap();
            assert_eq!(loaded, cp);
        }
    }

    #[cfg(unix)]
    #[test]
    fn bare_filename_syncs_the_working_directory() {
        // No parent component in the path: the directory fsync must fall
        // back to `.` instead of failing or silently skipping durability.
        super::sync_parent_dir(Path::new("bare.ckpt")).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unsyncable_parent_directory_is_an_error_not_a_shrug() {
        // The ledger lands in a directory that vanishes between its
        // creation and the fsync — impossible to arrange reliably — so
        // instead exercise the helper directly with a parent that cannot
        // be opened.
        let err = super::sync_parent_dir(Path::new("/definitely/not/a/dir/x.ckpt")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn checkpoint_stores_only_completed_rows() {
        let cp = partial_checkpoint();
        let mut buf = Vec::new();
        write_checkpoint(&cp, &mut buf).unwrap();
        let n = cp.n();
        let expect = 4 + 1 + 8 + 8 + n.div_ceil(8) + cp.completed_count() * n * 4;
        assert_eq!(buf.len(), expect);
    }

    #[test]
    fn incomplete_rows_are_scrubbed_to_inf() {
        let dist = sample_matrix();
        let mut completed = vec![true; dist.n()];
        completed[7] = false;
        let cp = Checkpoint::new(dist, completed);
        assert!(cp.matrix().row(7).iter().all(|&d| d == INF));
        assert_eq!(cp.completed_count(), cp.n() - 1);
        assert!(!cp.is_complete());
    }

    #[test]
    fn version_skew_is_one_directional() {
        // v1 full matrix loads as an all-complete checkpoint...
        let dist = sample_matrix();
        let mut v1 = Vec::new();
        write_binary(&dist, &mut v1).unwrap();
        let upgraded = read_checkpoint(v1.as_slice()).unwrap();
        assert!(upgraded.is_complete());
        assert_eq!(upgraded.matrix().first_difference(&dist), None);
        // ...but a v2 checkpoint is rejected by the plain matrix reader,
        // with a pointer at the right entry point.
        let mut v2 = Vec::new();
        write_checkpoint(&Checkpoint::complete(dist), &mut v2).unwrap();
        let err = read_binary(v2.as_slice()).unwrap_err();
        assert!(err.to_string().contains("read_checkpoint"), "got {err}");
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let cp = partial_checkpoint();
        let mut buf = Vec::new();
        write_checkpoint(&cp, &mut buf).unwrap();
        let bitmap_start = 4 + 1 + 8 + 8;

        // Truncated mid-payload.
        let truncated = &buf[..buf.len() - 3];
        assert!(matches!(
            read_checkpoint(truncated),
            Err(PersistError::Format(_))
        ));
        // Bitmap/count mismatch: clear a set bit without fixing the count.
        let mut bad = buf.clone();
        let byte = (0..cp.n())
            .find(|&s| cp.completed()[s])
            .map(|s| bitmap_start + s / 8)
            .unwrap();
        bad[byte] ^= 1 << ((0..cp.n()).find(|&s| cp.completed()[s]).unwrap() % 8);
        assert!(matches!(
            read_checkpoint(bad.as_slice()),
            Err(PersistError::Format(_))
        ));
        // Padding bits set beyond row n-1.
        let mut bad = buf.clone();
        let last_bitmap_byte = bitmap_start + cp.n().div_ceil(8) - 1;
        bad[last_bitmap_byte] |= 1 << 7; // n = 60, bits 60..63 are padding
        assert!(matches!(
            read_checkpoint(bad.as_slice()),
            Err(PersistError::Format(_))
        ));
        // Claimed count larger than n.
        let mut bad = buf.clone();
        bad[13..21].copy_from_slice(&(cp.n() as u64 + 1).to_le_bytes());
        assert!(matches!(
            read_checkpoint(bad.as_slice()),
            Err(PersistError::Format(_))
        ));
        // Trailing bytes.
        let mut bad = buf.clone();
        bad.push(0);
        assert!(matches!(
            read_checkpoint(bad.as_slice()),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn tsv_output_is_readable() {
        let mut m = DistanceMatrix::new_infinite(2);
        m.copy_row_from(0, &[0, 7]);
        m.copy_row_from(1, &[INF, 0]);
        let mut buf = Vec::new();
        write_tsv(&m, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "0\t7\ninf\t0\n");
    }

    #[test]
    fn empty_matrix_round_trips() {
        let dist = DistanceMatrix::new_infinite(0);
        let mut buf = Vec::new();
        write_binary(&dist, &mut buf).unwrap();
        let loaded = read_binary(buf.as_slice()).unwrap();
        assert_eq!(loaded.n(), 0);
        let cp = Checkpoint::complete(DistanceMatrix::new_infinite(0));
        let mut buf = Vec::new();
        write_checkpoint(&cp, &mut buf).unwrap();
        assert!(read_checkpoint(buf.as_slice()).unwrap().is_complete());
    }

    // --- run ledger ---

    fn ledger_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("parapsp-ledger-tests-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn ledger_appends_and_replays_as_checkpoint() {
        let dir = ledger_dir("replay");
        let path = dir.join("run.ledger");
        let dist = sample_matrix();
        let n = dist.n();
        let mut ledger = RowLedger::create(&path, n, FsyncPolicy::Commit).unwrap();
        assert_eq!(ledger.epoch(), 0);
        for s in (0..n as u32).filter(|s| s % 3 != 1) {
            ledger.append(s, dist.row(s)).unwrap();
        }
        let expected_records = (0..n).filter(|s| s % 3 != 1).count() as u64;
        assert_eq!(ledger.records(), expected_records);
        ledger.finish().unwrap();

        // The generic checkpoint loader replays the ledger directly.
        let cp = load_checkpoint(&path).unwrap();
        assert_eq!(cp, partial_checkpoint());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn encoded_records_keep_the_v3_layout_and_match_append() {
        let mut record = Vec::new();
        encode_record(2, &[7, 0, INF], &mut record);
        let mut golden = Vec::new();
        for word in [2, 3, 7, 0, INF, row_checksum(2, &[7, 0, INF])] {
            golden.extend_from_slice(&u32::to_le_bytes(word));
        }
        assert_eq!(record, golden);

        // `append` and `append_encoded` write the same bytes.
        let dir = ledger_dir("encoded");
        let (by_row, by_record) = (dir.join("row.ledger"), dir.join("record.ledger"));
        let mut ledger = RowLedger::create(&by_row, 3, FsyncPolicy::Never).unwrap();
        ledger.append(2, &[7, 0, INF]).unwrap();
        ledger.finish().unwrap();
        let mut ledger = RowLedger::create(&by_record, 3, FsyncPolicy::Never).unwrap();
        ledger.append_encoded(&record).unwrap();
        assert_eq!(ledger.records(), 1);
        ledger.finish().unwrap();
        for path in [&by_row, &by_record] {
            let bytes = std::fs::read(path).unwrap();
            assert_eq!(&bytes[LEDGER_HEADER_LEN as usize..], golden.as_slice());
        }
        std::fs::remove_file(by_row).ok();
        std::fs::remove_file(by_record).ok();
    }

    #[test]
    #[should_panic(expected = "full n-length rows")]
    fn append_encoded_rejects_a_record_of_another_shape() {
        let path = ledger_dir("shape").join("run.ledger");
        let mut ledger = RowLedger::create(&path, 3, FsyncPolicy::Never).unwrap();
        let mut record = Vec::new();
        encode_record(0, &[0, 1], &mut record);
        let _ = ledger.append_encoded(&record);
    }

    #[test]
    fn ledger_open_recovers_truncates_torn_tail_and_bumps_epoch() {
        let dir = ledger_dir("torn");
        let path = dir.join("run.ledger");
        let dist = sample_matrix();
        let n = dist.n();
        let mut ledger = RowLedger::create(&path, n, FsyncPolicy::Never).unwrap();
        let run_id = ledger.run_id();
        for s in 0..4u32 {
            ledger.append(s, dist.row(s)).unwrap();
        }
        ledger.finish().unwrap();

        // Simulate a crash mid-append: tear the last record.
        let full = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 5).unwrap();
        drop(file);

        let (ledger, recovered) = RowLedger::open(&path, n, FsyncPolicy::Commit).unwrap();
        assert_eq!(ledger.run_id(), run_id, "recovery keeps the run id");
        assert_eq!(ledger.epoch(), 1, "recovery bumps the epoch");
        assert_eq!(recovered.completed_count(), 3, "torn record dropped");
        assert_eq!(ledger.records(), 3);
        for s in 0..3u32 {
            assert_eq!(recovered.matrix().row(s), dist.row(s));
        }
        assert!(recovered.matrix().row(3).iter().all(|&d| d == INF));
        // The torn tail is physically gone.
        let record_len = (8 + 4 * n + 4) as u64;
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            LEDGER_HEADER_LEN + 3 * record_len
        );

        // Appends after recovery extend the valid prefix.
        let mut ledger = ledger;
        ledger.append(3, dist.row(3)).unwrap();
        ledger.append(4, dist.row(4)).unwrap();
        ledger.finish().unwrap();
        let cp = load_checkpoint(&path).unwrap();
        assert_eq!(cp.completed_count(), 5);
        for s in 0..5u32 {
            assert_eq!(cp.matrix().row(s), dist.row(s));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ledger_open_of_missing_or_empty_file_starts_fresh() {
        let dir = ledger_dir("fresh");
        let missing = dir.join("missing.ledger");
        std::fs::remove_file(&missing).ok();
        let (ledger, cp) = RowLedger::open(&missing, 5, FsyncPolicy::Never).unwrap();
        assert_eq!(ledger.epoch(), 0);
        assert_eq!(cp.completed_count(), 0);
        drop(ledger);

        let empty = dir.join("empty.ledger");
        std::fs::write(&empty, b"").unwrap();
        let (ledger, cp) = RowLedger::open(&empty, 5, FsyncPolicy::Never).unwrap();
        assert_eq!(ledger.epoch(), 0);
        assert_eq!(cp.completed_count(), 0);
        std::fs::remove_file(missing).ok();
        std::fs::remove_file(empty).ok();
    }

    #[test]
    fn ledger_duplicate_rows_last_write_wins() {
        let dir = ledger_dir("dup");
        let path = dir.join("run.ledger");
        let mut ledger = RowLedger::create(&path, 3, FsyncPolicy::Never).unwrap();
        ledger.append(1, &[9, 0, 9]).unwrap();
        ledger.append(1, &[4, 0, 4]).unwrap();
        ledger.finish().unwrap();
        let cp = load_checkpoint(&path).unwrap();
        assert_eq!(cp.completed_count(), 1);
        assert_eq!(cp.matrix().row(1), &[4, 0, 4]);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ledger_replay_stops_at_corrupt_record_not_just_torn_tail() {
        let dir = ledger_dir("corrupt");
        let path = dir.join("run.ledger");
        let mut ledger = RowLedger::create(&path, 3, FsyncPolicy::Never).unwrap();
        ledger.append(0, &[0, 1, 2]).unwrap();
        ledger.append(1, &[1, 0, 3]).unwrap();
        ledger.append(2, &[2, 3, 0]).unwrap();
        ledger.finish().unwrap();

        // Flip a payload byte in the middle record: its checksum fails,
        // so replay keeps only the first record — a corrupted row is
        // never surfaced, and the final record (beyond the corruption)
        // is not trusted either.
        let mut bytes = std::fs::read(&path).unwrap();
        let record_len = 8 + 4 * 3 + 4;
        let second_payload = LEDGER_HEADER_LEN as usize + record_len + 8;
        bytes[second_payload] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (ledger, cp) = RowLedger::open(&path, 3, FsyncPolicy::Never).unwrap();
        assert_eq!(cp.completed_count(), 1);
        assert_eq!(cp.matrix().row(0), &[0, 1, 2]);
        assert_eq!(ledger.records(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ledger_open_rejects_wrong_shape_and_wrong_format() {
        let dir = ledger_dir("reject");
        let path = dir.join("run.ledger");
        let mut ledger = RowLedger::create(&path, 4, FsyncPolicy::Never).unwrap();
        ledger.append(0, &[0, 1, 2, 3]).unwrap();
        ledger.finish().unwrap();
        // Vertex-count mismatch.
        let err = RowLedger::open(&path, 5, FsyncPolicy::Never).unwrap_err();
        assert!(err.to_string().contains("4 vertices"), "got {err}");
        // A v2 checkpoint is not a ledger: refuse to clobber it.
        let ckpt = dir.join("not-a-ledger.ckpt");
        write_checkpoint(&partial_checkpoint(), std::fs::File::create(&ckpt).unwrap()).unwrap();
        let err = RowLedger::open(&ckpt, 60, FsyncPolicy::Never).unwrap_err();
        assert!(err.to_string().contains("not a run ledger"), "got {err}");
        assert!(
            err.to_string().contains("version-2 checkpoint"),
            "got {err}"
        );
        std::fs::remove_file(path).ok();
        std::fs::remove_file(ckpt).ok();
    }

    /// The header check a caller runs before opening a ledger agrees with
    /// [`RowLedger::open`]: it accepts exactly the files `open` accepts,
    /// names what every other file is, and never modifies one.
    #[test]
    fn ledger_target_check_reads_only_the_header() {
        let dir = ledger_dir("target");
        let missing = dir.join("missing.ledger");
        std::fs::remove_file(&missing).ok();
        check_ledger_target(&missing, 60).unwrap();
        assert!(!missing.exists(), "the check creates nothing");
        let empty = dir.join("empty.ledger");
        std::fs::write(&empty, b"").unwrap();
        check_ledger_target(&empty, 60).unwrap();

        let ledger = dir.join("run.ledger");
        let mut writer = RowLedger::create(&ledger, 60, FsyncPolicy::Never).unwrap();
        writer.append(0, sample_matrix().row(0)).unwrap();
        writer.finish().unwrap();
        check_ledger_target(&ledger, 60).unwrap();

        let v1 = dir.join("matrix.bin");
        save_binary(&sample_matrix(), &v1).unwrap();
        let v2 = dir.join("old.ckpt");
        write_checkpoint(&partial_checkpoint(), std::fs::File::create(&v2).unwrap()).unwrap();
        for (path, n, names) in [
            (&v1, 60, "version-1 distance matrix"),
            (&v2, 60, "version-2 checkpoint"),
            (&ledger, 61, "version-3 run ledger for 60 vertices"),
        ] {
            let before = std::fs::read(path).unwrap();
            let err = check_ledger_target(path, n).unwrap_err();
            assert!(err.to_string().contains(names), "{}: {err}", path.display());
            let open_err = RowLedger::open(path, n, FsyncPolicy::Never).unwrap_err();
            assert_eq!(open_err.to_string(), err.to_string());
            assert_eq!(std::fs::read(path).unwrap(), before, "{}", path.display());
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn ledger_append_rejects_out_of_range_sources_on_replay() {
        // A record whose source is >= n (e.g. from a bit flip in the
        // source field) terminates replay rather than panicking.
        let dir = ledger_dir("range");
        let path = dir.join("run.ledger");
        let mut ledger = RowLedger::create(&path, 3, FsyncPolicy::Never).unwrap();
        ledger.append(0, &[0, 1, 2]).unwrap();
        ledger.append(1, &[1, 0, 3]).unwrap();
        ledger.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let second_source = LEDGER_HEADER_LEN as usize + (8 + 4 * 3 + 4);
        bytes[second_source..second_source + 4].copy_from_slice(&7u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let cp = load_checkpoint(&path).unwrap();
        assert_eq!(cp.completed_count(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_ids_are_distinct_and_nonzero() {
        let a = mint_run_id();
        let b = mint_run_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b, "nanosecond clock + splitmix should not collide");
    }
}
