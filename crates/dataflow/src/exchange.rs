//! The Exchange API: how rows move between partitions.
//!
//! A shuffle used to be two hardwired engine methods — a scatter that
//! hash-modded every key and a `gather` that concatenated every exchanged
//! row through one in-memory `Vec<Vec<Vec<Value>>>`. This module makes the
//! exchange a first-class boundary:
//!
//! * a partitioner decides which destination bucket a key belongs to:
//!   [`HashPartitioner`] for a hash shuffle, [`RangePartitioner`], which
//!   keeps ordered keys in contiguous buckets, for an ordered one;
//! * an [`Exchange`] is the streaming sink/reader pair behind every
//!   shuffle: source partitions [`emit`](ExchangeWriter::emit) rows
//!   through per-partition [`ExchangeWriter`]s, the exchange buffers them
//!   as ordered chunks under a **memory budget**
//!   ([`Context::memory_budget`](crate::Context::memory_budget),
//!   `DIABLO_MEMORY_BUDGET`), spills chunks past the budget as sorted
//!   runs appended to one per-exchange temp file (a single open
//!   descriptor however often a tiny budget overflows), and
//!   [`Exchange::finish`] merge-reads the runs back **in source order**,
//!   so rows, order, and first errors are byte-identical to an unbounded
//!   in-memory exchange.
//!
//! There is one exchange for every shuffle. The ordered keyed operators
//! ([`Context::ordered`](crate::Context::ordered)) differ only in the
//! bucket their scatter picks — a [`RangePartitioner`]'s — and sort each
//! post-shuffle partition by key themselves.
//!
//! ## Order preservation rule
//!
//! Every chunk is tagged `(bucket, source partition, flush sequence)`.
//! Within one source partition, chunks are flushed in row order, so sorting
//! a bucket's chunks by `(source, sequence)` and concatenating reproduces
//! exactly the row order the old collect-everything gather produced:
//! bucket `b` holds source 0's rows in source order, then source 1's, …
//! Spill runs are written with their chunks pre-sorted by
//! `(bucket, source, sequence)` and merge-read per bucket, so a spilled
//! exchange and an in-memory exchange are indistinguishable downstream.
//!
//! ## Budget semantics
//!
//! The budget bounds the bytes of exchanged rows the sink holds in memory
//! at once (estimated with [`diablo_runtime::serialized_size`], summed
//! row-by-row by the writers — unbounded exchanges skip the accounting
//! entirely). `None` means unbounded (never spill). A budget of 0 spills
//! every flushed chunk. Spills are counted in [`Stats`](crate::Stats)
//! (`spilled_records`, `spilled_bytes`, `spill_files`) and noted in the
//! executed-plan trace.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use diablo_runtime::{RuntimeError, Value};

use crate::dataset::key_hash;
use crate::keytable::Key;
use crate::plan::Result;
use crate::Context;

// ----------------------------------------------------------- partitioners

/// The hash partitioner: bucket = `hash(key) mod partitions`. Every hash
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

/// Range partitioner for ordered keys: bucket `i` receives the keys in
/// `(bounds[i-1], bounds[i]]` (bucket 0 everything up to `bounds[0]`, the
/// last bucket everything above the final bound), so concatenating the
/// output partitions yields globally key-sorted data when each partition
/// is sorted locally.
#[derive(Debug, Clone)]
pub struct RangePartitioner {
    bounds: Vec<Value>,
}

impl RangePartitioner {
    /// Builds a range partitioner from explicit, ascending upper bounds
    /// (`p` partitions need `p - 1` bounds). Unsorted bounds are sorted
    /// and deduplicated.
    pub fn new(mut bounds: Vec<Value>) -> RangePartitioner {
        bounds.sort();
        bounds.dedup();
        RangePartitioner { bounds }
    }

    /// Builds a range partitioner by sampling: sorts the sample keys and
    /// picks `partitions - 1` evenly spaced split points — how a driver
    /// derives bounds from a key sample, Spark's `RangePartitioner`
    /// construction in miniature.
    ///
    /// Bounds are **coalesced**: duplicates collapse (a sample with fewer
    /// distinct keys than partitions yields fewer bounds, never repeated
    /// ones that would pin guaranteed-empty middle buckets), and the
    /// maximum sampled key is never used as a bound — bucket `i` is
    /// `(bounds[i-1], bounds[i]]`, so a max-key bound would reserve the
    /// final bucket for keys above every sampled key: a guaranteed-empty
    /// tail partition whenever the sample covers the key range. An
    /// all-equal sample therefore yields no bounds at all (one bucket).
    pub fn from_sample(mut sample: Vec<Value>, partitions: usize) -> RangePartitioner {
        sample.sort();
        sample.dedup();
        let need = partitions.saturating_sub(1);
        if need == 0 || sample.is_empty() {
            return RangePartitioner { bounds: Vec::new() };
        }
        if sample.len() <= need + 1 {
            // No more distinct keys than partitions: every distinct key
            // but the maximum becomes a bound, so each key gets its own
            // bucket and no bucket is reserved for keys above the whole
            // sample. (Already sorted and deduplicated.)
            sample.pop();
            return RangePartitioner { bounds: sample };
        }
        // More distinct keys than partitions: evenly spaced ranks. The
        // indices are strictly increasing and never reach the maximum
        // (i·len/(need+1) < len·need/(need+1) ≤ len−1 for len > need+1),
        // so the bounds are already coalesced and tail-safe.
        let bounds = (1..=need)
            .map(|i| sample[(i * sample.len() / (need + 1)).min(sample.len() - 1)].clone())
            .collect();
        RangePartitioner::new(bounds)
    }

    /// The split points, ascending.
    pub fn bounds(&self) -> &[Value] {
        &self.bounds
    }

    /// The destination bucket for `key`, in `0..partitions`.
    pub fn partition(&self, key: &Value, partitions: usize) -> usize {
        let idx = self.bounds.partition_point(|b| b < key);
        idx.min(partitions.saturating_sub(1))
    }
}

// ------------------------------------------------------------- the sink

/// An in-flight chunk: one flush's worth of rows for one bucket from one
/// source partition.
struct Chunk {
    bucket: u32,
    src: u32,
    seq: u64,
    rows: Vec<Value>,
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
    index: Vec<ChunkLoc>,
    /// Bytes written so far — the append offset of the next run.
    len: u64,
}

#[derive(Default)]
struct ExchangeState {
    chunks: Vec<Chunk>,
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

    /// A writer for one source partition. Writers are independent and may
    /// run concurrently; each must be [`close`](ExchangeWriter::close)d.
    pub fn writer(&self, src: usize) -> ExchangeWriter<'_> {
        // Small budgets flush (and so spill-check) eagerly; roomy or
        // unbounded exchanges amortize the shared-state lock over bigger
        // chunks instead of serializing scatter workers on it. Budgeted
        // writers also flush on estimated *bytes* (a quarter of the
        // budget, floored so tiny budgets keep their row-count cadence),
        // so wide rows — §5 tile payloads — cannot pile up a large
        // multiple of the budget in writer-local buffers.
        let flush_rows = match self.budget {
            Some(b) if b < (1 << 20) => 64,
            _ => 1024,
        };
        let flush_bytes = self.budget.map(|b| (b / 4).max(64 * 1024));
        ExchangeWriter {
            exchange: self,
            src: src as u32,
            seq: 0,
            flush_rows,
            flush_bytes,
            pending_rows: 0,
            pending_bytes: 0,
            buckets: vec![Vec::new(); self.partitions],
            staged: Vec::new(),
        }
    }

    /// Accepts one flush's buckets (whose estimated size the writer
    /// already accumulated row-by-row — nothing is re-walked under the
    /// lock), spilling if the budget is now exceeded. The CPU-heavy half
    /// of a spill — sorting and binary-encoding the run — happens
    /// **outside** the state lock, so concurrent scatter workers only
    /// serialize on the actual file append, not on the encode.
    fn accept(&self, src: u32, seq: u64, buckets: &mut [Vec<Value>], bytes: u64) -> Result<()> {
        let over_budget = {
            let mut state = self.state.lock().expect("exchange lock");
            for (b, rows) in buckets.iter_mut().enumerate() {
                if rows.is_empty() {
                    continue;
                }
                let rows = std::mem::take(rows);
                state.emitted_rows += rows.len() as u64;
                state.chunks.push(Chunk {
                    bucket: b as u32,
                    src,
                    seq,
                    rows,
                });
            }
            state.buffered_bytes += bytes;
            self.budget.is_some_and(|b| state.buffered_bytes > b)
        };
        if over_budget {
            // Claim the buffered chunks (new ones may accumulate behind
            // us — they will trigger their own spill if needed).
            let chunks = {
                let mut state = self.state.lock().expect("exchange lock");
                state.buffered_bytes = 0;
                std::mem::take(&mut state.chunks)
            };
            if !chunks.is_empty() {
                let run = encode_run(chunks)?;
                let mut state = self.state.lock().expect("exchange lock");
                append_run(&mut state, run)?;
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
    pub fn finish(self, ctx: &Context) -> Result<Vec<Vec<Value>>> {
        let state = self.state.into_inner().expect("exchange lock");
        let spill_runs = state.spill_runs;
        let (spilled_records, spilled_bytes) = (state.spilled_records, state.spilled_bytes);
        let emitted = state.emitted_rows;
        let dest = merge_read(state, self.partitions)?;
        crate::verify::verify_exchange_output(&dest, self.partitions, emitted)?;
        let bytes = crate::dataset::estimate_bytes(&dest);
        ctx.stats().record_shuffle(emitted, bytes);
        ctx.plan_note(format!(
            "shuffle: {emitted} rows exchanged across {} partitions",
            self.partitions
        ));
        if spill_runs > 0 {
            ctx.stats()
                .record_spill(spilled_records, spilled_bytes, spill_runs);
            ctx.plan_note(format!(
                "spill: {spilled_records} rows ({spilled_bytes} B) through {spill_runs} sorted run(s), budget {} B",
                self.budget.unwrap_or(0)
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
/// scan one bucket's chunks contiguously — and binary-encodes them into
/// one run. Pure CPU: called without the exchange lock held.
fn encode_run(mut chunks: Vec<Chunk>) -> Result<EncodedRun> {
    chunks.sort_by_key(|c| (c.bucket, c.src, c.seq));
    let mut bytes = Vec::new();
    let mut index = Vec::with_capacity(chunks.len());
    let mut records = 0u64;
    for c in chunks {
        let offset = bytes.len() as u64;
        for row in &c.rows {
            encode_value(row, &mut bytes)?;
        }
        index.push(ChunkLoc {
            bucket: c.bucket,
            src: c.src,
            seq: c.seq,
            offset,
            len: bytes.len() as u64 - offset,
            rows: c.rows.len() as u32,
        });
        records += c.rows.len() as u64;
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
    if state.spill.is_none() {
        let dir = std::env::temp_dir().join(format!(
            "diablo-exchange-{}-{}",
            std::process::id(),
            EXCHANGE_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join("runs.bin"))
            .map_err(io_err)?;
        state.dir = Some(dir);
        state.spill = Some(SpillFile {
            file,
            index: Vec::new(),
            len: 0,
        });
    }
    let sf = state.spill.as_mut().expect("spill file");
    sf.file.seek(SeekFrom::Start(sf.len)).map_err(io_err)?;
    sf.file.write_all(&run.bytes).map_err(io_err)?;
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
/// or spilled — sorted by `(source, sequence)` and concatenated. Disk
/// chunks that sort adjacently *and* sit contiguously in the spill file
/// (the common case: consecutive sequences of one source within one run)
/// are fetched with a single ranged read instead of one seek+read per
/// chunk.
fn merge_read(mut state: ExchangeState, partitions: usize) -> Result<Vec<Vec<Value>>> {
    // (src, seq) -> where the rows are.
    enum Loc {
        Mem(Vec<Value>),
        Disk { at: usize },
    }
    let mut by_bucket: Vec<Vec<(u32, u64, Loc)>> = (0..partitions).map(|_| Vec::new()).collect();
    for c in std::mem::take(&mut state.chunks) {
        by_bucket[c.bucket as usize].push((c.src, c.seq, Loc::Mem(c.rows)));
    }
    if let Some(sf) = &state.spill {
        for (i, loc) in sf.index.iter().enumerate() {
            by_bucket[loc.bucket as usize].push((loc.src, loc.seq, Loc::Disk { at: i }));
        }
    }
    let mut dest: Vec<Vec<Value>> = Vec::with_capacity(partitions);
    for chunks in &mut by_bucket {
        chunks.sort_by_key(|&(src, seq, _)| (src, seq));
        let mut part = Vec::new();
        let mut pending: Vec<usize> = Vec::new(); // contiguous disk chunks
        let read_pending = |pending: &mut Vec<usize>,
                            part: &mut Vec<Value>,
                            state: &mut ExchangeState|
         -> Result<()> {
            let Some(&first) = pending.first() else {
                return Ok(());
            };
            let sf = state.spill.as_mut().expect("indexed spill file");
            let start = sf.index[first].offset;
            let total: u64 = pending.iter().map(|&i| sf.index[i].len).sum();
            sf.file.seek(SeekFrom::Start(start)).map_err(io_err)?;
            let mut buf = vec![0u8; total as usize];
            sf.file.read_exact(&mut buf).map_err(io_err)?;
            let mut cursor = &buf[..];
            let rows: u64 = pending.iter().map(|&i| u64::from(sf.index[i].rows)).sum();
            for _ in 0..rows {
                part.push(decode_value(&mut cursor)?);
            }
            pending.clear();
            Ok(())
        };
        for (_, _, loc) in chunks.drain(..) {
            match loc {
                Loc::Mem(rows) => {
                    read_pending(&mut pending, &mut part, &mut state)?;
                    part.extend(rows);
                }
                Loc::Disk { at } => {
                    let contiguous = pending.last().is_some_and(|&prev| {
                        let sf = state.spill.as_ref().expect("indexed spill file");
                        sf.index[prev].offset + sf.index[prev].len == sf.index[at].offset
                    });
                    if !contiguous {
                        read_pending(&mut pending, &mut part, &mut state)?;
                    }
                    pending.push(at);
                }
            }
        }
        read_pending(&mut pending, &mut part, &mut state)?;
        dest.push(part);
    }
    drop(state); // removes the temp spill file
    Ok(dest)
}

fn io_err(e: std::io::Error) -> RuntimeError {
    RuntimeError::new(format!("exchange spill I/O: {e}"))
}

/// The per-source-partition write handle of an [`Exchange`]: buffers rows
/// per bucket and flushes ordered chunks into the shared sink.
pub(crate) struct ExchangeWriter<'a> {
    exchange: &'a Exchange,
    src: u32,
    seq: u64,
    flush_rows: usize,
    /// Byte-based flush trigger; `None` on unbounded exchanges (no need
    /// to pay per-row size estimation there).
    flush_bytes: Option<u64>,
    pending_rows: usize,
    pending_bytes: u64,
    buckets: Vec<Vec<Value>>,
    /// Chunks staged writer-locally on unbounded exchanges (no spill
    /// checks needed there): flushes append here instead of taking the
    /// shared sink lock, and [`close`](ExchangeWriter::close) publishes
    /// them all at once — one lock acquisition per writer per stage, so
    /// concurrent scatter workers never contend on the sink. The chunk
    /// tags `(bucket, source, sequence)` make the merge order independent
    /// of which worker published first.
    staged: Vec<Chunk>,
}

impl ExchangeWriter<'_> {
    /// Sends one row to destination bucket `bucket`, preserving emission
    /// order per `(source, bucket)` pair. An out-of-range bucket (a
    /// partitioner bug) is a [`RuntimeError`], not a panic.
    pub fn emit(&mut self, bucket: usize, row: Value) -> Result<()> {
        if bucket >= self.buckets.len() {
            return Err(RuntimeError::new(format!(
                "partitioner chose bucket {bucket} of {} partitions",
                self.buckets.len()
            )));
        }
        if self.flush_bytes.is_some() {
            self.pending_bytes += diablo_runtime::serialized_size(&row) as u64;
        }
        self.buckets[bucket].push(row);
        self.pending_rows += 1;
        if self.pending_rows >= self.flush_rows
            || self.flush_bytes.is_some_and(|b| self.pending_bytes >= b)
        {
            self.flush()?;
        }
        Ok(())
    }

    /// Hands all locally buffered rows to the exchange (spilling there if
    /// the budget is exceeded).
    pub fn flush(&mut self) -> Result<()> {
        if self.pending_rows == 0 {
            return Ok(());
        }
        if self.exchange.budget.is_none() {
            // Unbounded exchange: stage locally, publish once at close.
            for (b, rows) in self.buckets.iter_mut().enumerate() {
                if rows.is_empty() {
                    continue;
                }
                self.staged.push(Chunk {
                    bucket: b as u32,
                    src: self.src,
                    seq: self.seq,
                    rows: std::mem::take(rows),
                });
            }
        } else {
            self.exchange
                .accept(self.src, self.seq, &mut self.buckets, self.pending_bytes)?;
        }
        self.seq += 1;
        self.pending_rows = 0;
        self.pending_bytes = 0;
        Ok(())
    }

    /// Final flush, plus the one-lock publish of any writer-staged
    /// chunks. Dropping a writer without closing it discards its
    /// un-published rows — which is exactly right on scatter error paths.
    pub fn close(mut self) -> Result<()> {
        self.flush()?;
        if !self.staged.is_empty() {
            let rows: u64 = self.staged.iter().map(|c| c.rows.len() as u64).sum();
            let mut state = self.exchange.state.lock().expect("exchange lock");
            state.emitted_rows += rows;
            state.chunks.append(&mut self.staged);
        }
        Ok(())
    }
}

// ----------------------------------------------------------- row codec

/// Deepest value nesting the row codec writes or reads: a scalar is one
/// level, a container one more than its deepest element. The codec
/// recurses per level, so a few kilobytes of hostile frame or corrupt
/// spill file nested deeper would overflow the reading thread's stack.
pub const MAX_VALUE_DEPTH: usize = 128;

/// Binary row codec for spill runs. Exact round-trip for every [`Value`]
/// shape (doubles travel as raw bits), so spilled rows come back
/// bit-identical. Lengths that do not fit the u32 wire format (a single
/// string or container past 4 GiB / 2³² elements) are a loud error, not
/// a silent truncation.
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

/// [`encode_value`] with `depth` levels left.
fn encode_nested(v: &Value, out: &mut Vec<u8>, depth: usize) -> Result<()> {
    fn put_len(out: &mut Vec<u8>, n: usize) -> Result<()> {
        let n = u32::try_from(n).map_err(|_| {
            RuntimeError::new("exchange spill: value length exceeds the u32 wire format")
        })?;
        out.extend_from_slice(&n.to_le_bytes());
        Ok(())
    }
    if depth == 0 {
        return Err(RuntimeError::new(format!(
            "exchange spill: value nesting exceeds the codec's depth limit ({MAX_VALUE_DEPTH})"
        )));
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
        Value::Record(fields) => {
            out.push(6);
            put_len(out, fields.len())?;
            for (n, f) in fields.iter() {
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

/// [`decode_value`] with `depth` levels left.
fn decode_nested(buf: &mut &[u8], depth: usize) -> Result<Value> {
    fn corrupt() -> RuntimeError {
        RuntimeError::new("corrupt exchange spill file")
    }
    fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
        if buf.len() < n {
            return Err(corrupt());
        }
        let (head, rest) = buf.split_at(n);
        *buf = rest;
        Ok(head)
    }
    fn take_len(buf: &mut &[u8]) -> Result<usize> {
        let b = take(buf, 4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize)
    }
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
            let n = take_len(buf)?;
            let mut fields = Vec::with_capacity(n.min(buf.len()));
            for _ in 0..n {
                let ln = take_len(buf)?;
                let name = std::str::from_utf8(take(buf, ln)?)
                    .map_err(|_| corrupt())?
                    .to_string();
                fields.push((name, decode_nested(buf, d)?));
            }
            Value::record(fields)
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
    fn range_partitioner_orders_buckets() {
        let p = RangePartitioner::new(vec![Value::Long(10), Value::Long(20)]);
        assert_eq!(p.partition(&Value::Long(-5), 3), 0);
        assert_eq!(p.partition(&Value::Long(10), 3), 0, "inclusive");
        assert_eq!(p.partition(&Value::Long(11), 3), 1);
        assert_eq!(p.partition(&Value::Long(20), 3), 1);
        assert_eq!(p.partition(&Value::Long(999), 3), 2);
        // Fewer partitions than bounds never index out of range.
        assert_eq!(p.partition(&Value::Long(999), 2), 1);
    }

    #[test]
    fn range_partitioner_from_sample_covers_all_buckets() {
        let sample: Vec<Value> = (0..100).map(Value::Long).collect();
        let p = RangePartitioner::from_sample(sample, 4);
        assert_eq!(p.bounds().len(), 3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            seen.insert(p.partition(&Value::Long(i), 4));
        }
        assert_eq!(seen.len(), 4, "sampled bounds spread keys over buckets");
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
            ex.finish(&ctx).unwrap()
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
        assert_eq!(dest.iter().map(Vec::len).sum::<usize>(), 500);
        assert!(after.spill_files > 0, "{after:?}");
        assert_eq!(after.spilled_records, 500, "{after:?}");
        assert!(after.spilled_bytes > 0, "{after:?}");
        assert_eq!(after.shuffled_records, 500);
        assert!(!dir.exists(), "temp run files removed after finish");
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
        let dest = ex.finish(&ctx).unwrap();
        let expect: Vec<Value> = (0..100).chain(1000..1100).map(Value::Long).collect();
        assert_eq!(dest[0], expect);
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
        let dest = ex.finish(&ctx).unwrap();
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
        assert!(dest.iter().all(Vec::is_empty));
    }
}
