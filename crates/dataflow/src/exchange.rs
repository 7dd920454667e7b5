//! The Exchange API: how rows move between partitions.
//!
//! A shuffle used to be two hardwired engine methods — a scatter that
//! hash-modded every key and a `gather` that concatenated every exchanged
//! row through one in-memory `Vec<Vec<Vec<Value>>>`. This module makes the
//! exchange a first-class boundary:
//!
//! * the [`HashPartitioner`] decides which destination bucket a key
//!   belongs to;
//! * an [`Exchange`] is the streaming sink/reader pair behind every
//!   shuffle: source partitions send rows through per-partition
//!   [`ExchangeWriter`]s — a boxed row with [`emit`](ExchangeWriter::emit),
//!   a columnar tile's rows as lanes with
//!   [`emit_tile`](ExchangeWriter::emit_tile), a keyed scatter through
//!   [`KeyedScatter`] — and each writer builds one [`Chunk`] per bucket.
//!   The exchange buffers the chunks under a **memory budget**
//!   ([`Context::memory_budget`](crate::Context::memory_budget),
//!   `DIABLO_MEMORY_BUDGET`), spills chunks past the budget as sorted
//!   runs appended to one per-exchange temp file (a single open
//!   descriptor however often a tiny budget overflows), and
//!   [`Exchange::finish`] merge-reads every bucket back **in source
//!   order** as one chunk, so rows, order, and first errors are
//!   byte-identical to an unbounded in-memory exchange.
//!
//! There is one exchange for every shuffle.
//!
//! ## Order preservation rule
//!
//! A writer seals a bucket's chunk as one *piece* when it flushes; boxed
//! rows and tiles sent to one bucket between two flushes append to the
//! same piece in emission order. Every piece is tagged
//! `(bucket, source partition, sequence)`, the sequence counting the
//! source's pieces. Within one source partition, pieces are sealed in
//! row order, so sorting a bucket's pieces by
//! `(source, sequence)` and concatenating reproduces exactly the row
//! order of the old collect-everything gather: bucket `b` holds source
//! 0's rows in source order, then source 1's, … Spill runs are written
//! with their pieces pre-sorted by `(bucket, source, sequence)` and
//! merge-read per bucket, so a spilled exchange and an in-memory exchange
//! are indistinguishable downstream. A bucket comes back as the first
//! piece's lanes with the other pieces appended — a leaf that disagrees
//! across pieces boxed — the same rows either way.
//!
//! ## Budget semantics
//!
//! The budget bounds the bytes of exchanged rows the sink holds in memory
//! at once (estimated with [`diablo_runtime::serialized_size`], summed
//! row-by-row by the writers — a lane row is charged the size of the row
//! it stands for, so spills fall where they fall for boxed rows;
//! unbounded exchanges skip the accounting entirely). `None` means
//! unbounded (never spill). A budget of 0 spills every flushed chunk.
//!
//! ## Spill format
//!
//! A run is one frame per piece ([`chunk::encode_frame`]): the piece's
//! lane, starting with its tag — raw words for long and double lanes, a
//! byte per bool, the boxed lane (boxed rows among them) in
//! [`encode_value`]'s format. The run's in-memory index holds each
//! piece's place, bytes and row count, and the merge-read decodes every
//! piece back into the lanes it was written as, so a spilled typed lane
//! builds no boxed row. Spills are counted in [`Stats`](crate::Stats)
//! (`spilled_records`, `spilled_bytes` — the frames' bytes —
//! `spill_files`) and noted in the executed-plan trace. A spill error
//! names the run file and, on the read side, the bucket.

use std::borrow::Cow;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use diablo_runtime::array::key_value_ref;
use diablo_runtime::{RuntimeError, Value};

use crate::chunk::{self, row_size, Chunk, ChunkBuf};
use crate::columnar::{each_key, TileSink, VCol};
use crate::dataset::key_hash;
use crate::keytable::Key;
use crate::plan::Result;
use crate::Context;

// ----------------------------------------------------------- partitioners

/// The hash partitioner: bucket = `hash(key) mod partitions`. Every
/// shuffle picks its buckets with it.
#[derive(Debug, Default, Clone, Copy)]
pub struct HashPartitioner;

impl HashPartitioner {
    /// The destination bucket for `key`, in `0..partitions`.
    pub fn partition(&self, key: &Value, partitions: usize) -> usize {
        (key_hash(key) % partitions as u64) as usize
    }

    /// [`HashPartitioner::partition`] of a key that may be read from
    /// lanes: the same bucket as its boxed `Value`, whose hash a [`Key`]
    /// writes.
    pub(crate) fn bucket(&self, key: &Key<'_>, partitions: usize) -> usize {
        (key_hash(key) % partitions as u64) as usize
    }
}

// ------------------------------------------------------------- the sink

/// An in-flight chunk: one piece of one bucket's rows from one source
/// partition, tagged with its place among that source's pieces.
struct Tagged {
    bucket: u32,
    src: u32,
    seq: u64,
    chunk: Chunk,
}

/// Where a spilled chunk lives inside the exchange's spill file.
struct ChunkLoc {
    bucket: u32,
    src: u32,
    seq: u64,
    offset: u64,
    len: u64,
    rows: u32,
}

/// The exchange's single spill file: sorted runs are appended to one
/// file, indexed in memory, so an exchange holds exactly one descriptor
/// open no matter how many times a tiny budget overflows.
struct SpillFile {
    file: File,
    /// Where the file is, for the errors that name it.
    path: PathBuf,
    index: Vec<ChunkLoc>,
    /// Bytes written so far — the append offset of the next run.
    len: u64,
}

#[derive(Default)]
struct ExchangeState {
    chunks: Vec<Tagged>,
    buffered_bytes: u64,
    spill: Option<SpillFile>,
    /// Sorted runs appended to the spill file.
    spill_runs: u64,
    dir: Option<PathBuf>,
    emitted_rows: u64,
    spilled_records: u64,
    spilled_bytes: u64,
}

/// The streaming exchange: the write side of a shuffle. Create one per
/// exchange, hand each source partition a [`writer`](Exchange::writer),
/// and [`finish`](Exchange::finish) it into destination partitions.
pub(crate) struct Exchange {
    partitions: usize,
    budget: Option<u64>,
    state: Mutex<ExchangeState>,
}

/// Distinguishes concurrent exchanges' temp dirs within one process.
static EXCHANGE_ID: AtomicU64 = AtomicU64::new(0);

/// The error of a state lock that a panicking thread poisoned. No code
/// that can panic runs under the lock — chunk pushes, saturating byte
/// counts, and the spill file's appends, whose failures are `Result`s —
/// so a poisoned lock means a bug elsewhere, and it fails this one stage
/// instead of the thread that meets it.
fn poisoned() -> RuntimeError {
    RuntimeError::new("exchange state lock poisoned by a panicking writer")
}

impl Exchange {
    /// A new exchange into `partitions` buckets under `budget` bytes of
    /// in-memory buffering (`None` = unbounded, never spill).
    pub fn new(partitions: usize, budget: Option<u64>) -> Exchange {
        Exchange {
            partitions,
            budget,
            state: Mutex::new(ExchangeState::default()),
        }
    }

    fn state(&self) -> Result<MutexGuard<'_, ExchangeState>> {
        self.state.lock().map_err(|_| poisoned())
    }

    /// A writer for one source partition. Writers are independent and may
    /// run concurrently; each must be [`close`](ExchangeWriter::close)d.
    pub fn writer(&self, src: usize) -> ExchangeWriter<'_> {
        // Small budgets flush (and so spill-check) eagerly, roomy ones
        // amortize the shared-state lock over bigger pieces. Budgeted
        // writers also flush on estimated *bytes* (a quarter of the
        // budget, floored so tiny budgets keep their row-count cadence),
        // so wide rows — §5 tile payloads — cannot pile up a large
        // multiple of the budget in writer-local buffers. Unbounded
        // writers never flush before they close.
        let flush = self.budget.map(|b| {
            let rows = if b < (1 << 20) { 64 } else { 1024 };
            (rows, (b / 4).max(64 * 1024))
        });
        ExchangeWriter {
            exchange: self,
            src: src as u32,
            seq: 0,
            flush,
            pending_rows: 0,
            pending_bytes: 0,
            buckets: (0..self.partitions).map(|_| ChunkBuf::default()).collect(),
            sealed: Vec::new(),
            rows_of: vec![Vec::new(); self.partitions],
        }
    }

    /// Accepts one flush's pieces (whose estimated size the writer
    /// already accumulated row-by-row — nothing is re-walked under the
    /// lock), spilling if the budget is now exceeded. The CPU-heavy half
    /// of a spill — sorting and binary-encoding the run — happens
    /// **outside** the state lock, so concurrent scatter workers only
    /// serialize on the actual file append, not on the encode.
    fn accept(&self, pieces: Vec<Tagged>, bytes: u64) -> Result<()> {
        let over_budget = {
            let mut state = self.state()?;
            for piece in pieces {
                state.emitted_rows += piece.chunk.len() as u64;
                state.chunks.push(piece);
            }
            state.buffered_bytes = state.buffered_bytes.saturating_add(bytes);
            self.budget.is_some_and(|b| state.buffered_bytes > b)
        };
        if over_budget {
            // Claim the buffered chunks (new ones may accumulate behind
            // us — they will trigger their own spill if needed).
            let chunks = {
                let mut state = self.state()?;
                state.buffered_bytes = 0;
                std::mem::take(&mut state.chunks)
            };
            if !chunks.is_empty() {
                let run = encode_run(chunks)?;
                append_run(&mut *self.state()?, run)?;
            }
        }
        Ok(())
    }

    /// Closes the write side and merge-reads every bucket back,
    /// interleaving in-memory chunks and spilled runs by
    /// `(source, sequence)`, so the destination partitions are
    /// byte-identical to an unbounded in-memory exchange. Records shuffle
    /// (and any spill) statistics and plan notes on `ctx`, then removes
    /// the temp run files.
    pub fn finish(self, ctx: &Context) -> Result<Vec<Chunk>> {
        let Exchange {
            partitions,
            budget,
            state,
        } = self;
        let state = state.into_inner().map_err(|_| poisoned())?;
        let spill_runs = state.spill_runs;
        let (spilled_records, spilled_bytes) = (state.spilled_records, state.spilled_bytes);
        let emitted = state.emitted_rows;
        let dest = merge_read(state, partitions)?;
        crate::verify::verify_exchange_output(&dest, partitions, emitted)?;
        let bytes = crate::chunk::estimate_bytes(&dest);
        ctx.stats().record_shuffle(emitted, bytes);
        ctx.plan_note_with(|| {
            format!("shuffle: {emitted} rows exchanged across {partitions} partitions")
        });
        if spill_runs > 0 {
            ctx.stats()
                .record_spill(spilled_records, spilled_bytes, spill_runs);
            ctx.plan_note_with(|| format!(
                "spill: {spilled_records} rows ({spilled_bytes} B) through {spill_runs} sorted run(s), budget {} B",
                budget.unwrap_or(0)
            ));
        }
        Ok(dest)
    }
}

impl Drop for ExchangeState {
    fn drop(&mut self) {
        // Error paths drop the exchange before the merge-read removed the
        // temp dir; it must not outlive the state either way.
        self.spill = None;
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One encoded sorted run, ready to append: bytes plus its index with
/// offsets relative to the run's start.
struct EncodedRun {
    bytes: Vec<u8>,
    index: Vec<ChunkLoc>,
    records: u64,
}

/// Sorts chunks by `(bucket, source, sequence)` — so the read side can
/// scan one bucket's chunks contiguously — and encodes them into one run,
/// one [`chunk::encode_frame`] per piece: lanes stay lanes. Pure CPU:
/// called without the exchange lock held.
fn encode_run(mut chunks: Vec<Tagged>) -> Result<EncodedRun> {
    chunks.sort_by_key(|c| (c.bucket, c.src, c.seq));
    let mut bytes = Vec::new();
    let mut index = Vec::with_capacity(chunks.len());
    let mut records = 0u64;
    for c in chunks {
        let offset = bytes.len() as u64;
        let rows = c.chunk.len();
        chunk::encode_frame(&c.chunk, &mut bytes)?;
        index.push(ChunkLoc {
            bucket: c.bucket,
            src: c.src,
            seq: c.seq,
            offset,
            len: bytes.len() as u64 - offset,
            rows: u32::try_from(rows).map_err(|_| {
                RuntimeError::new("exchange spill: a chunk holds 2^32 rows or more")
            })?,
        });
        records += rows as u64;
    }
    Ok(EncodedRun {
        bytes,
        index,
        records,
    })
}

/// Appends an encoded run to the exchange's single spill file (created
/// on first spill — one open descriptor per exchange, no matter how many
/// runs a tiny budget forces) and merges its index in.
fn append_run(state: &mut ExchangeState, run: EncodedRun) -> Result<()> {
    let sf = match &mut state.spill {
        Some(sf) => sf,
        None => {
            let dir = std::env::temp_dir().join(format!(
                "diablo-exchange-{}-{}",
                std::process::id(),
                EXCHANGE_ID.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, None, e))?;
            state.dir = Some(dir.clone());
            let path = dir.join("runs.bin");
            let file = File::options()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .map_err(|e| io_err(&path, None, e))?;
            state.spill.insert(SpillFile {
                file,
                path,
                index: Vec::new(),
                len: 0,
            })
        }
    };
    sf.file
        .seek(SeekFrom::Start(sf.len))
        .and_then(|_| sf.file.write_all(&run.bytes))
        .map_err(|e| io_err(&sf.path, None, e))?;
    let base = sf.len;
    sf.index.extend(run.index.into_iter().map(|mut loc| {
        loc.offset += base;
        loc
    }));
    sf.len += run.bytes.len() as u64;
    state.spill_runs += 1;
    state.spilled_records += run.records;
    state.spilled_bytes += run.bytes.len() as u64;
    Ok(())
}

/// Builds the destination partitions: per bucket, every chunk — buffered
/// or spilled — sorted by `(source, sequence)` and concatenated into one
/// chunk ([`chunk::concat`]: the first piece's lanes, the others
/// appended). A spilled piece comes back in the lanes it was written as
/// ([`chunk::decode_frame`]). Disk chunks that sort adjacently *and* sit
/// contiguously in the spill file (the common case: consecutive sequences
/// of one source within one run) are fetched with a single ranged read
/// instead of one seek+read per chunk.
fn merge_read(mut state: ExchangeState, partitions: usize) -> Result<Vec<Chunk>> {
    // (src, seq) -> where the rows are.
    enum Loc {
        Mem(Chunk),
        Disk { at: usize },
    }
    let mut by_bucket: Vec<Vec<(u32, u64, Loc)>> = (0..partitions).map(|_| Vec::new()).collect();
    for c in std::mem::take(&mut state.chunks) {
        by_bucket[c.bucket as usize].push((c.src, c.seq, Loc::Mem(c.chunk)));
    }
    if let Some(sf) = &state.spill {
        for (i, loc) in sf.index.iter().enumerate() {
            by_bucket[loc.bucket as usize].push((loc.src, loc.seq, Loc::Disk { at: i }));
        }
    }
    let mut dest: Vec<Chunk> = Vec::with_capacity(partitions);
    for (bucket, chunks) in by_bucket.iter_mut().enumerate() {
        chunks.sort_by_key(|&(src, seq, _)| (src, seq));
        let mut pieces = Vec::new();
        let mut pending: Vec<usize> = Vec::new(); // contiguous disk chunks
        let read_pending = |pending: &mut Vec<usize>,
                            pieces: &mut Vec<Chunk>,
                            state: &mut ExchangeState|
         -> Result<()> {
            let Some(&first) = pending.first() else {
                return Ok(());
            };
            // Disk locations come from the spill file's own index.
            let Some(sf) = state.spill.as_mut() else {
                return Err(RuntimeError::new(
                    "exchange spill: run index without a file",
                ));
            };
            let start = sf.index[first].offset;
            let total: u64 = pending.iter().map(|&i| sf.index[i].len).sum();
            let mut buf = vec![0u8; total as usize];
            sf.file
                .seek(SeekFrom::Start(start))
                .and_then(|_| sf.file.read_exact(&mut buf))
                .map_err(|e| io_err(&sf.path, Some(bucket), e))?;
            let mut frames = &buf[..];
            for &i in pending.iter() {
                let loc = &sf.index[i];
                let (frame, rest) = frames.split_at(loc.len as usize);
                frames = rest;
                let piece = chunk::decode_frame(frame, loc.rows as usize);
                pieces.push(piece.map_err(|e| spill_err(e.message, &sf.path, Some(bucket)))?);
            }
            pending.clear();
            Ok(())
        };
        for (_, _, loc) in chunks.drain(..) {
            match loc {
                Loc::Mem(chunk) => {
                    read_pending(&mut pending, &mut pieces, &mut state)?;
                    pieces.push(chunk);
                }
                Loc::Disk { at } => {
                    let contiguous = pending.last().is_some_and(|&prev| {
                        state.spill.as_ref().is_some_and(|sf| {
                            sf.index[prev].offset + sf.index[prev].len == sf.index[at].offset
                        })
                    });
                    if !contiguous {
                        read_pending(&mut pending, &mut pieces, &mut state)?;
                    }
                    pending.push(at);
                }
            }
        }
        read_pending(&mut pending, &mut pieces, &mut state)?;
        dest.push(chunk::concat(pieces));
    }
    drop(state); // removes the temp spill file
    Ok(dest)
}

/// A spill error, naming the run file and, on the read side, the bucket.
fn spill_err(e: impl std::fmt::Display, path: &Path, bucket: Option<usize>) -> RuntimeError {
    let bucket = bucket.map_or(String::new(), |b| format!("bucket {b} of "));
    RuntimeError::new(format!("{e} ({bucket}{})", path.display()))
}

fn io_err(path: &Path, bucket: Option<usize>, e: std::io::Error) -> RuntimeError {
    spill_err(format_args!("exchange spill I/O: {e}"), path, bucket)
}

/// The per-source-partition write handle of an [`Exchange`]: builds one
/// chunk per bucket — from boxed rows ([`emit`](ExchangeWriter::emit)) and
/// tiles ([`emit_tile`](ExchangeWriter::emit_tile)), in emission order —
/// and hands them to the shared sink as ordered pieces.
pub(crate) struct ExchangeWriter<'a> {
    exchange: &'a Exchange,
    src: u32,
    /// The sequence number of the next piece this writer seals.
    seq: u64,
    /// Row-count and byte flush triggers; `None` on unbounded exchanges
    /// (no need to pay per-row size estimation there).
    flush: Option<(usize, u64)>,
    pending_rows: usize,
    pending_bytes: u64,
    /// The chunk each bucket is building.
    buckets: Vec<ChunkBuf>,
    /// Pieces sealed since the last flush. An unbounded exchange (no
    /// spill checks needed) keeps them until
    /// [`close`](ExchangeWriter::close) publishes them all at once — one
    /// lock acquisition per writer per stage, so concurrent scatter
    /// workers never contend on the sink. The tags
    /// `(bucket, source, sequence)` make the merge order independent of
    /// which worker published first.
    sealed: Vec<Tagged>,
    /// Per bucket, the tile rows going to it (scratch, reused).
    rows_of: Vec<Vec<u32>>,
}

impl ExchangeWriter<'_> {
    /// An out-of-range bucket (a partitioner bug) is a [`RuntimeError`],
    /// not a panic.
    fn check(&self, bucket: usize) -> Result<()> {
        if bucket >= self.buckets.len() {
            return Err(RuntimeError::new(format!(
                "partitioner chose bucket {bucket} of {} partitions",
                self.buckets.len()
            )));
        }
        Ok(())
    }

    /// True when the rows since the last flush reach a flush trigger.
    fn due(&self) -> bool {
        self.flush
            .is_some_and(|(rows, bytes)| self.pending_rows >= rows || self.pending_bytes >= bytes)
    }

    /// Finishes bucket `b`'s chunk as the source's next piece.
    fn seal(&mut self, b: usize) {
        let chunk = self.buckets[b].take();
        self.sealed.push(Tagged {
            bucket: b as u32,
            src: self.src,
            seq: self.seq,
            chunk,
        });
        self.seq += 1;
    }

    /// Sends one boxed row to destination bucket `bucket`, preserving
    /// emission order per `(source, bucket)` pair.
    pub fn emit(&mut self, bucket: usize, row: Value) -> Result<()> {
        self.check(bucket)?;
        if self.flush.is_some() {
            self.pending_bytes += diablo_runtime::serialized_size(&row) as u64;
        }
        self.buckets[bucket].push_row(row);
        self.pending_rows += 1;
        if self.due() {
            self.flush()?;
        }
        Ok(())
    }

    /// Sends row `i` of the tile column `col` to bucket `buckets[i]`, for
    /// every row, as lanes: each bucket gets its rows in tile order, and
    /// the writer flushes where emitting the rows one by one would — each
    /// row charged the size of the row it stands for — so spills fall
    /// where they would for boxed rows.
    pub fn emit_tile(&mut self, buckets: &[u32], col: &VCol) -> Result<()> {
        if let Some(&b) = buckets.iter().max() {
            self.check(b as usize)?;
        }
        let mut start = 0;
        while start < buckets.len() {
            let mut end = buckets.len();
            if self.flush.is_some() {
                end = start;
                while end < buckets.len() && !self.due() {
                    self.pending_bytes += row_size(col, end) as u64;
                    self.pending_rows += 1;
                    end += 1;
                }
            } else {
                self.pending_rows += end - start;
            }
            self.push_tile(col, &buckets[start..end], start);
            if self.due() {
                self.flush()?;
            }
            start = end;
        }
        Ok(())
    }

    /// Appends tile rows `offset..` (one per entry of `buckets`) to their
    /// buckets' lanes.
    fn push_tile(&mut self, col: &VCol, buckets: &[u32], offset: usize) {
        let mut rows_of = std::mem::take(&mut self.rows_of);
        for (i, &b) in buckets.iter().enumerate() {
            rows_of[b as usize].push((offset + i) as u32);
        }
        for (b, rows) in rows_of.iter_mut().enumerate() {
            if !rows.is_empty() {
                self.buckets[b].push_tile(col, rows);
                rows.clear();
            }
        }
        self.rows_of = rows_of;
    }

    /// Seals every bucket's chunk and, on a budgeted exchange, hands the
    /// pieces to the shared sink (spilling there if the budget is
    /// exceeded).
    fn flush(&mut self) -> Result<()> {
        if self.pending_rows == 0 {
            return Ok(());
        }
        for b in 0..self.buckets.len() {
            if self.buckets[b].len() > 0 {
                self.seal(b);
            }
        }
        if self.flush.is_some() {
            let pieces = std::mem::take(&mut self.sealed);
            self.exchange.accept(pieces, self.pending_bytes)?;
        }
        self.pending_rows = 0;
        self.pending_bytes = 0;
        Ok(())
    }

    /// Final flush, plus the one-lock publish of an unbounded writer's
    /// pieces. Dropping a writer without closing it discards its
    /// un-published rows — which is exactly right on scatter error paths.
    pub fn close(mut self) -> Result<()> {
        self.flush()?;
        if !self.sealed.is_empty() {
            let rows: u64 = self.sealed.iter().map(|c| c.chunk.len() as u64).sum();
            let mut state = self.exchange.state()?;
            state.emitted_rows += rows;
            state.chunks.append(&mut self.sealed);
        }
        Ok(())
    }
}

/// A keyed scatter as a [`TileSink`]: every `(key, row)` pair goes to
/// its key's bucket — the whole pair (a merge or group-by side) or only
/// the row (a join side). A tile of struct-of-arrays pairs sends its
/// columns as lanes, its key read where it lies; a row, or a tile of
/// boxed pairs, is split and sent boxed.
pub(crate) struct KeyedScatter<'w, 'e> {
    writer: &'w mut ExchangeWriter<'e>,
    partitions: usize,
    /// Send the pair, not only its row.
    whole: bool,
    /// The current tile's bucket per row (scratch, reused).
    buckets: Vec<u32>,
}

impl<'w, 'e> KeyedScatter<'w, 'e> {
    pub fn new(writer: &'w mut ExchangeWriter<'e>, partitions: usize, whole: bool) -> Self {
        KeyedScatter {
            writer,
            partitions,
            whole,
            buckets: Vec::new(),
        }
    }

    fn pair(&mut self, pair: Cow<'_, Value>) -> Result<()> {
        let (key, row) = key_value_ref(&pair)?;
        let b = HashPartitioner.partition(key, self.partitions);
        let row = if self.whole {
            pair.into_owned()
        } else {
            row.clone()
        };
        self.writer.emit(b, row)
    }
}

impl TileSink for KeyedScatter<'_, '_> {
    fn tile(&mut self, col: &VCol, len: usize) -> Result<()> {
        let VCol::Tuple(kv) = col else {
            return (0..len).try_for_each(|i| self.pair(col.at(i)));
        };
        if kv.len() != 2 {
            return (0..len).try_for_each(|i| self.pair(col.at(i)));
        }
        let (p, mut buckets) = (self.partitions, std::mem::take(&mut self.buckets));
        buckets.clear();
        each_key(&kv[0], len, |_, key| {
            buckets.push(HashPartitioner.bucket(&key, p) as u32);
            Ok(())
        })?;
        let sent = self
            .writer
            .emit_tile(&buckets, if self.whole { col } else { &kv[1] });
        self.buckets = buckets;
        sent
    }

    fn row(&mut self, row: Value) -> Result<()> {
        self.pair(Cow::Owned(row))
    }
}

// ----------------------------------------------------------- row codec

/// Deepest value nesting the row codec writes or reads: a scalar is one
/// level, a container one more than its deepest element. The codec
/// recurses per level, so a few kilobytes of hostile frame or corrupt
/// spill file nested deeper would overflow the reading thread's stack.
pub const MAX_VALUE_DEPTH: usize = 128;

/// Binary row codec: the values of a spilled frame's boxed lane. Exact
/// round-trip for every [`Value`] shape (doubles travel as raw bits), so
/// spilled rows come back bit-identical.
/// Lengths that do not fit the u32 wire format (a single string or
/// container past 4 GiB / 2³² elements) are a loud error, not a silent
/// truncation.
///
/// Public because the serve layer's wire protocol and the plan-hash
/// cache key reuse the same canonical encoding — one codec, one notion
/// of value identity across spill files, sockets, and cache keys.
///
/// A value nested deeper than [`MAX_VALUE_DEPTH`] is an error: the codec
/// writes nothing that [`decode_value`] would refuse.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) -> Result<()> {
    encode_nested(v, out, MAX_VALUE_DEPTH)
}

/// Writes a length in the codec's u32 wire format.
pub(crate) fn put_len(out: &mut Vec<u8>, n: usize) -> Result<()> {
    let n = u32::try_from(n).map_err(|_| {
        RuntimeError::new("exchange spill: value length exceeds the u32 wire format")
    })?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

pub(crate) fn too_deep() -> RuntimeError {
    RuntimeError::new(format!(
        "exchange spill: value nesting exceeds the codec's depth limit ({MAX_VALUE_DEPTH})"
    ))
}

/// [`encode_value`] with `depth` levels left.
pub(crate) fn encode_nested(v: &Value, out: &mut Vec<u8>, depth: usize) -> Result<()> {
    if depth == 0 {
        return Err(too_deep());
    }
    match v {
        Value::Unit => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::Long(n) => {
            out.push(2);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Double(x) => {
            out.push(3);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            put_len(out, s.len())?;
            out.extend_from_slice(s.as_bytes());
        }
        Value::Tuple(fs) => {
            out.push(5);
            put_len(out, fs.len())?;
            for f in fs.iter() {
                encode_nested(f, out, depth - 1)?;
            }
        }
        Value::Record(r) => {
            out.push(6);
            put_len(out, r.len())?;
            for (n, f) in r.iter() {
                put_len(out, n.len())?;
                out.extend_from_slice(n.as_bytes());
                encode_nested(f, out, depth - 1)?;
            }
        }
        Value::Bag(items) => {
            out.push(7);
            put_len(out, items.len())?;
            for f in items.iter() {
                encode_nested(f, out, depth - 1)?;
            }
        }
    }
    Ok(())
}

/// Inverse of [`encode_value`]: decodes one value from the front of
/// `buf`, advancing it past the consumed bytes. Any truncated or
/// malformed input — a value nested deeper than [`MAX_VALUE_DEPTH`]
/// included — is a `corrupt` error, never a panic.
pub fn decode_value(buf: &mut &[u8]) -> Result<Value> {
    decode_nested(buf, MAX_VALUE_DEPTH)
}

/// The error of every truncated or malformed input to the codec.
pub(crate) fn corrupt() -> RuntimeError {
    RuntimeError::new("corrupt exchange spill file")
}

/// The next `n` bytes of `buf`, which it advances past them.
pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(corrupt());
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// A length in the codec's u32 wire format.
pub(crate) fn take_len(buf: &mut &[u8]) -> Result<usize> {
    let b = take(buf, 4)?;
    Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
}

/// [`decode_value`] with `depth` levels left.
pub(crate) fn decode_nested(buf: &mut &[u8], depth: usize) -> Result<Value> {
    if depth == 0 {
        return Err(corrupt());
    }
    let d = depth - 1;
    let tag = *take(buf, 1)?.first().expect("1 byte");
    Ok(match tag {
        0 => Value::Unit,
        // `encode_value` writes 0 or 1; any other byte is corruption, and
        // accepting it would give one value two encodings.
        1 => match take(buf, 1)?[0] {
            0 => Value::Bool(false),
            1 => Value::Bool(true),
            _ => return Err(corrupt()),
        },
        2 => Value::Long(i64::from_le_bytes(take(buf, 8)?.try_into().expect("8"))),
        3 => Value::Double(f64::from_bits(u64::from_le_bytes(
            take(buf, 8)?.try_into().expect("8"),
        ))),
        4 => {
            let n = take_len(buf)?;
            let bytes = take(buf, n)?;
            Value::str(std::str::from_utf8(bytes).map_err(|_| corrupt())?)
        }
        5 => match take_len(buf)? {
            // Pairs and triples — every sparse-array row and most keys —
            // are built in their `Arc` directly: one allocation, no copy.
            2 => Value::Tuple(Arc::from([decode_nested(buf, d)?, decode_nested(buf, d)?])),
            3 => Value::Tuple(Arc::from([
                decode_nested(buf, d)?,
                decode_nested(buf, d)?,
                decode_nested(buf, d)?,
            ])),
            n => {
                // Capacity capped by the remaining bytes: a corrupt length
                // must fail with `corrupt()` when decoding runs dry, never
                // abort on a giant pre-allocation.
                let mut fs = Vec::with_capacity(n.min(buf.len()));
                for _ in 0..n {
                    fs.push(decode_nested(buf, d)?);
                }
                Value::tuple(fs)
            }
        },
        6 => {
            // Names are read in place: the record takes a recent record's
            // names when they are the same, and copies them only when not.
            let n = take_len(buf)?;
            let mut fields = Vec::with_capacity(n.min(buf.len()));
            for _ in 0..n {
                let ln = take_len(buf)?;
                let name = std::str::from_utf8(take(buf, ln)?).map_err(|_| corrupt())?;
                fields.push((name, decode_nested(buf, d)?));
            }
            Value::Record(Arc::new(fields.into_iter().collect()))
        }
        7 => {
            let n = take_len(buf)?;
            let mut items = Vec::with_capacity(n.min(buf.len()));
            for _ in 0..n {
                items.push(decode_nested(buf, d)?);
            }
            Value::bag(items)
        }
        _ => return Err(corrupt()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every bucket's rows, boxed.
    fn boxed(dest: Vec<Chunk>) -> Vec<Vec<Value>> {
        dest.iter().map(|c| c.rows().into_owned()).collect()
    }

    fn roundtrip(v: &Value) -> Value {
        let mut buf = Vec::new();
        encode_value(v, &mut buf).unwrap();
        let mut cursor = &buf[..];
        let back = decode_value(&mut cursor).unwrap();
        assert!(cursor.is_empty(), "codec consumed everything");
        back
    }

    #[test]
    fn codec_round_trips_every_shape() {
        let samples = vec![
            Value::Unit,
            Value::Bool(true),
            Value::Long(-42),
            Value::Double(0.1),
            Value::Double(f64::NAN),
            Value::Double(-0.0),
            Value::str("héllo"),
            Value::str(""),
            Value::pair(Value::Long(1), Value::Double(2.5)),
            Value::record(vec![
                ("x".into(), Value::Long(7)),
                ("y".into(), Value::bag(vec![Value::str("a"), Value::Unit])),
            ]),
            Value::bag(vec![]),
        ];
        for v in &samples {
            let back = roundtrip(v);
            assert_eq!(&back, v, "round-trip changed {v}");
            // NaN compares Equal under total order; also check bits.
            if let (Value::Double(a), Value::Double(b)) = (v, &back) {
                assert_eq!(a.to_bits(), b.to_bits(), "double bits preserved");
            }
        }
    }

    #[test]
    fn codec_rejects_truncated_input() {
        let mut buf = Vec::new();
        encode_value(&Value::str("hello"), &mut buf).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = &buf[..];
        assert!(decode_value(&mut cursor).is_err());
    }

    #[test]
    fn codec_rejects_corrupt_length_prefixes_gracefully() {
        // A flipped length field must decode to an error, not abort on a
        // pathological pre-allocation.
        let mut buf = Vec::new();
        encode_value(&Value::tuple(vec![Value::Long(1)]), &mut buf).unwrap();
        buf[1..5].copy_from_slice(&u32::MAX.to_le_bytes()); // tag, then len
        let mut cursor = &buf[..];
        assert!(decode_value(&mut cursor).is_err());
    }

    /// A value `depth` levels deep: 1-tuples around a `Long`.
    fn nested(depth: usize) -> Value {
        (1..depth).fold(Value::Long(7), |v, _| Value::tuple(vec![v]))
    }

    #[test]
    fn codec_round_trips_the_depth_limit_and_refuses_one_more() {
        let deepest = nested(MAX_VALUE_DEPTH);
        assert_eq!(roundtrip(&deepest), deepest);

        let err = encode_value(&nested(MAX_VALUE_DEPTH + 1), &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("depth limit"), "{err}");
        // The bytes it would be: one more 1-tuple header around `deepest`.
        let mut buf = vec![5, 1, 0, 0, 0];
        encode_value(&deepest, &mut buf).unwrap();
        let err = decode_value(&mut &buf[..]).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn codec_rejects_bool_bytes_other_than_zero_and_one() {
        for byte in 2..=u8::MAX {
            let buf = [1, byte];
            let mut cursor = &buf[..];
            assert!(decode_value(&mut cursor).is_err(), "bool byte {byte}");
        }
    }

    mod tuple_arities {
        use super::*;
        use proptest::prelude::*;

        /// A field of every scalar shape plus one nested tuple.
        fn field(pick: u64, n: i64) -> Value {
            match pick % 7 {
                0 => Value::Unit,
                1 => Value::Bool(n % 2 == 0),
                2 => Value::Long(n),
                3 => Value::Double(n as f64 / 3.0),
                4 => Value::str(format!("é{n}")),
                5 => Value::bag(vec![Value::Long(n)]),
                _ => Value::pair(Value::Long(n), Value::str("")),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn tuples_of_arity_0_to_5_round_trip(
                arity in 0usize..6,
                picks in prop::collection::vec(any::<u64>(), 5..6),
                n in any::<i64>(),
            ) {
                let fields: Vec<Value> = picks[..arity]
                    .iter()
                    .enumerate()
                    .map(|(i, p)| field(*p, n.wrapping_add(i as i64)))
                    .collect();
                let v = Value::tuple(fields);
                let mut buf = Vec::new();
                encode_value(&v, &mut buf).unwrap();
                let mut cursor = &buf[..];
                let back = decode_value(&mut cursor).unwrap();
                prop_assert!(cursor.is_empty(), "codec left {} bytes", cursor.len());
                prop_assert_eq!(back.as_tuple().map(|fs| fs.len()), Some(arity));
                prop_assert_eq!(back, v);
            }
        }
    }

    #[test]
    fn hash_partitioner_matches_legacy_hash_mod() {
        let p = HashPartitioner;
        for i in 0..100i64 {
            let k = Value::Long(i);
            assert_eq!(
                p.partition(&k, 7),
                (key_hash(&k) % 7) as usize,
                "hash partitioner must be the legacy hash-mod"
            );
        }
    }

    #[test]
    fn lane_keys_land_in_the_buckets_of_their_boxed_values() {
        // A wrong bucket would split one key across two partitions, and
        // the join would silently lose its matches.
        use crate::keytable::lane_samples::{shapes, ROWS};
        for (s, lanes) in shapes().iter().enumerate() {
            for row in 0..ROWS {
                let boxed = Key::from(lanes.key(row)).into_value();
                for p in 1..=17 {
                    assert_eq!(
                        HashPartitioner.bucket(&Key::from(lanes.key(row)), p),
                        HashPartitioner.partition(&boxed, p),
                        "shape {s}, row {row}: {boxed:?} over {p} partitions"
                    );
                }
            }
        }
        // Equal keys spelled with longs and with doubles share a bucket.
        use crate::keytable::{KeyLane, KeyLanes};
        let longs = KeyLanes(vec![KeyLane::Longs(&[3]), KeyLane::Longs(&[1])]);
        let doubles = Value::pair(Value::Double(3.0), Value::Double(1.0));
        for p in 1..=17 {
            assert_eq!(
                HashPartitioner.bucket(&Key::from(longs.key(0)), p),
                HashPartitioner.partition(&doubles, p)
            );
        }
    }

    #[test]
    fn exchange_spills_and_merges_back_in_source_order() {
        // Budget 0: every flush spills, so the whole exchange goes
        // through run files — and must come back identical to unbounded.
        let reference = {
            let ex = Exchange::new(3, None);
            drive(&ex);
            finish_quiet(ex)
        };
        let spilled = {
            let ex = Exchange::new(3, Some(0));
            drive(&ex);
            finish_quiet(ex)
        };
        assert_eq!(spilled, reference);
        assert_eq!(
            reference.iter().map(Vec::len).sum::<usize>(),
            400,
            "all rows arrived"
        );

        fn drive(ex: &Exchange) {
            // Two "source partitions" interleaving writes.
            let mut w0 = ex.writer(0);
            let mut w1 = ex.writer(1);
            for i in 0..200i64 {
                w0.emit((i % 3) as usize, Value::Long(i)).unwrap();
                w1.emit((i % 3) as usize, Value::Long(1000 + i)).unwrap();
            }
            w0.close().unwrap();
            w1.close().unwrap();
        }
        fn finish_quiet(ex: Exchange) -> Vec<Vec<Value>> {
            let ctx = crate::Context::new(1, 3);
            boxed(ex.finish(&ctx).unwrap())
        }
    }

    #[test]
    fn spilled_exchange_records_spill_stats_and_cleans_up() {
        let ctx = crate::Context::new(1, 2);
        let ex = Exchange::new(2, Some(0));
        let mut w = ex.writer(0);
        for i in 0..500i64 {
            w.emit(
                (i % 2) as usize,
                Value::pair(Value::Long(i), Value::str("x")),
            )
            .unwrap();
        }
        w.close().unwrap();
        let dir = ex.state.lock().unwrap().dir.clone().expect("spilled");
        assert!(dir.exists());
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            1,
            "many runs, one spill file (one descriptor per exchange)"
        );
        assert!(
            ex.state.lock().unwrap().spill_runs > 1,
            "tiny budget forces several runs"
        );
        let before = ctx.stats().snapshot();
        let dest = ex.finish(&ctx).unwrap();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(dest.iter().map(Chunk::len).sum::<usize>(), 500);
        assert!(after.spill_files > 0, "{after:?}");
        assert_eq!(after.spilled_records, 500, "{after:?}");
        assert!(after.spilled_bytes > 0, "{after:?}");
        assert_eq!(after.shuffled_records, 500);
        assert!(!dir.exists(), "temp run files removed after finish");
    }

    #[test]
    fn a_lane_row_spills_as_the_row_it_stands_for() {
        let rows: Vec<Value> = (0..6i64)
            .map(|i| {
                let key = Value::pair(Value::Long(i), Value::Double(i as f64 / 4.0));
                Value::pair(key, Value::str(format!("s{i}")))
            })
            .collect();
        let lanes = chunk::owned_col(rows.clone());
        assert!(matches!(&lanes, VCol::Tuple(_)), "{lanes:?}");
        // Sent as lanes under a budget of 0, every piece spills and comes
        // back as lanes, in order, charged as the rows themselves.
        let ctx = crate::Context::new(1, 2);
        let ex = Exchange::new(2, Some(0));
        let mut w = ex.writer(0);
        w.emit_tile(&[0, 1, 0, 1, 0, 1], &lanes).unwrap();
        w.close().unwrap();
        assert!(ex.state.lock().unwrap().spill_runs > 0, "spilled");
        let before = ctx.stats().snapshot();
        let dest = ex.finish(&ctx).unwrap();
        let after = ctx.stats().snapshot().since(&before);
        assert!(
            dest.iter()
                .all(|c| c.len == 3 && matches!(c.lanes, VCol::Tuple(_))),
            "{dest:?}"
        );
        let want: Vec<Vec<Value>> = (0..2)
            .map(|b| rows.iter().skip(b).step_by(2).cloned().collect())
            .collect();
        assert_eq!(
            after.shuffled_bytes,
            chunk::estimate_bytes(&[Chunk::boxed(rows)])
        );
        assert_eq!(boxed(dest), want);
    }

    #[test]
    fn a_damaged_run_file_is_an_error_that_names_it() {
        // One exchange per damage, each spilled whole under a budget of 0.
        let spilled = || {
            let ex = Exchange::new(2, Some(0));
            let mut w = ex.writer(0);
            for i in 0..100i64 {
                w.emit((i % 2) as usize, Value::pair(Value::Long(i), Value::Unit))
                    .unwrap();
            }
            w.close().unwrap();
            let path = ex
                .state
                .lock()
                .unwrap()
                .spill
                .as_ref()
                .unwrap()
                .path
                .clone();
            (ex, path)
        };
        let ctx = crate::Context::new(1, 2);
        // A frame kind no writer writes, at the head of bucket 0's first
        // piece: a corrupt frame.
        let (ex, path) = spilled();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = ex.finish(&ctx).unwrap_err();
        assert!(err.message.contains("corrupt"), "{err}");
        assert!(
            err.message
                .contains(&format!("bucket 0 of {}", path.display())),
            "{err}"
        );
        // A file cut short: the first read past its end fails (every run
        // holds pieces of both buckets, so bucket 0's).
        let (ex, path) = spilled();
        let len = std::fs::metadata(&path).unwrap().len();
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        let err = ex.finish(&ctx).unwrap_err();
        assert!(err.message.contains("exchange spill I/O"), "{err}");
        assert!(
            err.message
                .contains(&format!("bucket 0 of {}", path.display())),
            "{err}"
        );
    }

    #[test]
    fn dropped_exchange_removes_its_temp_dir() {
        let ex = Exchange::new(2, Some(0));
        let mut w = ex.writer(0);
        for i in 0..100i64 {
            w.emit(0, Value::Long(i)).unwrap();
        }
        w.close().unwrap();
        let dir = ex.state.lock().unwrap().dir.clone().expect("spilled");
        assert!(dir.exists());
        drop(ex); // error path: finish never runs
        assert!(!dir.exists(), "Drop cleans the temp dir");
    }

    #[test]
    fn unbounded_exchange_never_touches_disk() {
        let ex = Exchange::new(2, None);
        let mut w = ex.writer(0);
        for i in 0..10_000i64 {
            w.emit((i % 2) as usize, Value::Long(i)).unwrap();
        }
        w.close().unwrap();
        assert!(ex.state.lock().unwrap().dir.is_none());
        let ctx = crate::Context::new(1, 2);
        let dest = ex.finish(&ctx).unwrap();
        assert_eq!(dest[0].len() + dest[1].len(), 10_000);
    }

    #[test]
    fn writers_merge_by_source_then_sequence() {
        // Source 1 finishes before source 0 even starts flushing; bucket
        // rows must still come back in source order 0 then 1.
        let ex = Exchange::new(1, Some(0));
        let mut w1 = ex.writer(1);
        for i in 0..100i64 {
            w1.emit(0, Value::Long(1000 + i)).unwrap();
        }
        w1.close().unwrap();
        let mut w0 = ex.writer(0);
        for i in 0..100i64 {
            w0.emit(0, Value::Long(i)).unwrap();
        }
        w0.close().unwrap();
        let ctx = crate::Context::new(1, 1);
        let dest = boxed(ex.finish(&ctx).unwrap());
        let expect: Vec<Value> = (0..100).chain(1000..1100).map(Value::Long).collect();
        assert_eq!(dest[0], expect);
    }

    #[test]
    fn a_writer_that_mixes_rows_and_tiles_keeps_emission_order() {
        // Each writer interleaves boxed rows and tiles of lanes into the
        // same buckets. Rows are wide enough (≈ 120 B) that every 64-row
        // flush overruns a 4 KiB budget, so both budgets spill every row.
        let row = |src: i64, i: i64| {
            Value::pair(
                Value::Long(src * 1000 + i),
                Value::str(format!("{i:0>100}")),
            )
        };
        let mut spilled = Vec::new();
        for budget in [None, Some(0), Some(4096)] {
            let ctx = crate::Context::new(1, 3);
            let ex = Exchange::new(3, budget);
            let mut want = vec![Vec::new(); 3];
            for src in 0..2i64 {
                let mut w = ex.writer(src as usize);
                let mut i = 0;
                for _ in 0..32 {
                    let tile: Vec<Value> = (i..i + 5).map(|j| row(src, j)).collect();
                    let buckets: Vec<u32> = (i..i + 5).map(|j| (j % 3) as u32).collect();
                    w.emit_tile(&buckets, &chunk::owned_col(tile.clone()))
                        .unwrap();
                    for (v, &b) in tile.into_iter().zip(&buckets) {
                        want[b as usize].push(v);
                    }
                    for j in i + 5..i + 8 {
                        w.emit((j % 3) as usize, row(src, j)).unwrap();
                        want[(j % 3) as usize].push(row(src, j));
                    }
                    i += 8;
                }
                w.close().unwrap();
            }
            let before = ctx.stats().snapshot();
            let dest = ex.finish(&ctx).unwrap();
            spilled.push(ctx.stats().snapshot().since(&before).spilled_records);
            assert_eq!(boxed(dest), want, "budget {budget:?}");
        }
        assert_eq!(spilled, [0, 512, 512]);
    }

    #[test]
    fn exchange_keys_need_not_be_hashable_pairs() {
        // The sink is key-agnostic: a custom scatter can emit any row to
        // any bucket (how reduce_by_key streams combined pairs).
        let ex = Exchange::new(2, None);
        let mut w = ex.writer(0);
        w.emit(1, Value::Unit).unwrap();
        w.emit(0, Value::str("loose row")).unwrap();
        w.close().unwrap();
        let ctx = crate::Context::new(1, 2);
        let dest = boxed(ex.finish(&ctx).unwrap());
        assert_eq!(dest[0], vec![Value::str("loose row")]);
        assert_eq!(dest[1], vec![Value::Unit]);
    }

    #[test]
    fn wide_rows_flush_on_bytes_not_row_count() {
        // flush_bytes = max(budget/4, 64 KiB); a 1 MiB budget flushes at
        // 256 KiB — three ~100 KiB rows — long before the 1024-row count.
        let ex = Exchange::new(1, Some(1 << 20));
        let mut w = ex.writer(0);
        let wide = Value::str("x".repeat(100 * 1024));
        for _ in 0..4 {
            w.emit(0, wide.clone()).unwrap();
        }
        assert!(
            ex.state.lock().unwrap().emitted_rows > 0,
            "byte trigger must flush wide rows early"
        );
        w.close().unwrap();
        let ctx = crate::Context::new(1, 1);
        assert_eq!(ex.finish(&ctx).unwrap()[0].len(), 4);
    }

    #[test]
    fn out_of_range_bucket_is_an_error_not_a_panic() {
        let ex = Exchange::new(2, None);
        let mut w = ex.writer(0);
        let err = w.emit(2, Value::Long(1)).unwrap_err();
        assert!(err.message.contains("bucket 2 of 2 partitions"), "{err}");
    }

    #[test]
    fn empty_exchange_produces_empty_buckets() {
        let ctx = crate::Context::new(1, 4);
        let ex = Exchange::new(4, Some(0));
        let dest = ex.finish(&ctx).unwrap();
        assert_eq!(dest.len(), 4);
        assert!(dest.iter().all(|c| c.len() == 0));
    }
}
