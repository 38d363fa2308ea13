//! Pipelined v2 log writing: raw block builders, a background encode
//! pool, and an in-order committer.
//!
//! The inline writer ([`LogWriterV2`](crate::LogWriterV2)) delta-encodes,
//! checksums and frames every record on the producing thread — exactly
//! the work the paper says must stay off the monitored program's hot
//! path. This module splits the write path into stages, the mirror image
//! of the out-of-order decode pool in [`crate::parallel`]:
//!
//! ```text
//! producer ──raw──▶ encode pool ──sealed──▶ committer ──▶ sink (Write)
//!  (append,          (N threads,            (reorders by
//!  seal every         delta + group-         sequence index,
//!  block_records      varint encode,         owns the running
//!  records)           head/payload sums,     file checksum,
//!                     frame assembly,        header + footer)
//!                     out of order)
//! ```
//!
//! * The **producer** — whoever calls [`PipelinedSink::push`] — only
//!   appends the record to a raw `Vec<Record>` block builder. At every
//!   `block_records` boundary the builder is sealed and handed over a
//!   bounded channel; nothing on the push path encodes, checksums or
//!   touches the sink. `push(&mut self)` is single-producer, so the
//!   builder is per-producer-thread by construction — the per-thread
//!   buffers of the paper's design collapse to one builder per sink
//!   under the simulator's single event stream, whose global order is
//!   load-bearing for happens-before detection.
//! * **Encode workers** pull sealed raw blocks in any order and run the
//!   full v2 block encode ([`encode_block_rev`](crate::encode_block_rev)):
//!   per-thread delta state (which resets at block boundaries, so blocks
//!   encode as independently as they decode), `head_sum`/`payload_sum`
//!   checksums, and 24-byte frame assembly.
//! * The **committer** restores sequence order with the decode pool's
//!   reorder buffer ([`Reorder`]) and owns everything that is inherently
//!   sequential: the 5-byte file header, the running whole-file checksum,
//!   and the sealing footer — written only when
//!   [`finish`](PipelinedSink::finish) was called, so a dropped sink
//!   leaves a classifiably [`Unsealed`](crate::SealState::Unsealed) log
//!   exactly like the inline writer.
//!
//! The emitted stream is rev-conformant v2 — decodable by the strict,
//! salvage and pooled readers alike. Block *boundaries* differ from the
//! inline writer (records per block here, payload bytes there), so the
//! equivalence contract is record-level: the log decodes to an identical
//! [`EventLog`](crate::EventLog), and detection reports over it are
//! byte-identical (pinned by `tests/pipelined_equivalence.rs`).

use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bytes::BytesMut;

use crate::checksum::Checksum;
use crate::error::{LogError, LogResult};
use crate::parallel::Reorder;
use crate::record::Record;
use crate::stream::{auto_stream_depth, panic_message, DEFAULT_STREAM_DEPTH};
use crate::v2::{encode_block_rev, make_footer, rev_supported, FRAME_BYTES, V2_MAGIC, V2_VERSION};

/// Default records per sealed block. Large enough that encode work (and,
/// on a saturated host, the context switch each handoff costs) amortizes
/// to well under 10% of the block's encode time, small enough that a
/// sealed block stays a bounded memory unit (~90 KB encoded, ~640 KB
/// raw). 4096 measurably lost ~12% single-worker throughput to handoff
/// on a 1-CPU host; 16384 keeps the tax under the bench gate's 10%.
pub const DEFAULT_BLOCK_RECORDS: usize = 16_384;

/// Tuning for a [`PipelinedSink`]: how many encode workers to run, how
/// many records a raw block holds before sealing, and how deep the
/// bounded handoff channels are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeOpts {
    /// Encode worker threads (min 1; the committer is always its own
    /// thread, so even `threads: 1` takes encoding off the producer).
    pub threads: usize,
    /// Records per sealed block.
    pub block_records: usize,
    /// Bound, in blocks, of each handoff channel.
    pub depth: usize,
}

impl EncodeOpts {
    /// One encode worker, default block size and depth.
    pub fn sequential() -> EncodeOpts {
        EncodeOpts {
            threads: 1,
            block_records: DEFAULT_BLOCK_RECORDS,
            depth: DEFAULT_STREAM_DEPTH,
        }
    }

    /// `threads` encode workers with an
    /// [`auto_stream_depth`](crate::auto_stream_depth)-sized channel.
    pub fn with_threads(threads: usize) -> EncodeOpts {
        let threads = threads.max(1);
        EncodeOpts {
            threads,
            block_records: DEFAULT_BLOCK_RECORDS,
            depth: auto_stream_depth(threads, 0),
        }
    }

    /// Sizes the pool to the host's available parallelism.
    pub fn auto() -> EncodeOpts {
        EncodeOpts::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Overrides the records-per-block seal point (clamped to at least 1).
    pub fn block_records(self, block_records: usize) -> EncodeOpts {
        EncodeOpts {
            block_records: block_records.max(1),
            ..self
        }
    }

    /// Overrides the channel depth (clamped to at least 1).
    pub fn depth(self, depth: usize) -> EncodeOpts {
        EncodeOpts {
            depth: depth.max(1),
            ..self
        }
    }
}

impl Default for EncodeOpts {
    fn default() -> EncodeOpts {
        EncodeOpts::sequential()
    }
}

/// A sealed raw block heading into the encode pool, tagged with its
/// sequence index in the stream.
struct RawBlock {
    seq: u64,
    records: Vec<Record>,
}

/// A worker's result: the encoded frame + payload (contiguous — the
/// checksum is chunking-agnostic, so the committer feeds the whole slice
/// to the running file sum), or a contained encode panic.
struct Sealed {
    seq: u64,
    records: u64,
    result: Result<BytesMut, String>,
}

/// One encode worker: pulls sealed raw blocks, runs the full block
/// encode (delta state, checksums, frame assembly). Panics are contained
/// per block.
fn encode_worker(
    jobs: &Mutex<Receiver<RawBlock>>,
    out: &SyncSender<Sealed>,
    recycle: &SyncSender<Vec<Record>>,
    rev: u8,
    queued: &AtomicU64,
) {
    loop {
        let idle_start = literace_telemetry::enabled().then(std::time::Instant::now);
        let job = {
            let guard = jobs.lock().expect("encode job queue poisoned");
            match guard.recv() {
                Ok(job) => job,
                Err(_) => return,
            }
        };
        queued.fetch_sub(1, Ordering::AcqRel);
        if let Some(t0) = idle_start {
            literace_telemetry::metrics()
                .log_encode_worker_idle_ns
                .add(t0.elapsed().as_nanos() as u64);
        }
        let busy_start = literace_telemetry::enabled().then(std::time::Instant::now);
        literace_telemetry::trace_begin("encode.block");
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut bytes = BytesMut::new();
            encode_block_rev(&job.records, &mut bytes, rev);
            bytes
        }))
        .map_err(|payload| panic_message(payload.as_ref()));
        literace_telemetry::trace_end("encode.block");
        if let Some(t0) = busy_start {
            literace_telemetry::metrics()
                .log_encode_worker_busy_ns
                .add(t0.elapsed().as_nanos() as u64);
        }
        let done = Sealed {
            seq: job.seq,
            records: job.records.len() as u64,
            result,
        };
        // Hand the spent raw buffer back to the producer so steady-state
        // sealing reuses warm pages instead of faulting in a fresh
        // allocation per block. Best-effort: a full return lane just
        // drops the buffer.
        let mut spent = job.records;
        spent.clear();
        let _ = recycle.try_send(spent);
        if out.send(done).is_err() {
            return;
        }
    }
}

/// The in-order committer: owns the sink, the file header, the running
/// file checksum and the footer. Returns the sink (or the first error)
/// to [`PipelinedSink::finish`] through its join handle.
struct Committer<W> {
    sink: W,
    rev: u8,
    inflight: Arc<AtomicU64>,
    /// Total blocks the producer sealed — final once the results channel
    /// closes (the job sender is dropped before the workers can exit).
    issued: Arc<AtomicU64>,
    /// Set by `finish`; without it a closed channel means the producer
    /// was dropped, and the footer must not be written.
    finish_requested: Arc<AtomicBool>,
}

impl<W: Write> Committer<W> {
    fn run(mut self, results: Receiver<Sealed>) -> LogResult<W> {
        let mut error: Option<LogError> = None;
        let mut file_sum = Checksum::new();
        let mut total_records = 0u64;
        let mut header_written = false;
        let mut reorder = Reorder::new();
        while let Ok(sealed) = results.recv() {
            reorder.insert(sealed.seq, sealed);
            while let Some(sealed) = reorder.pop() {
                self.inflight.fetch_sub(1, Ordering::AcqRel);
                if error.is_some() {
                    continue; // drain without writing; first error wins
                }
                let bytes = match sealed.result {
                    Ok(bytes) => bytes,
                    Err(message) => {
                        error = Some(LogError::corrupt(format!(
                            "encode worker panicked: {message}"
                        )));
                        continue;
                    }
                };
                literace_telemetry::trace_begin("commit.block");
                let rev = self.rev;
                let commit = (|| -> LogResult<()> {
                    if !header_written {
                        self.sink.write_all(&V2_MAGIC)?;
                        self.sink.write_all(&[rev])?;
                        header_written = true;
                        if literace_telemetry::enabled() {
                            literace_telemetry::metrics()
                                .log_encode_v2_bytes
                                .add(V2_MAGIC.len() as u64 + 1);
                        }
                    }
                    self.sink.write_all(&bytes)?;
                    Ok(())
                })();
                match commit {
                    Ok(()) => {
                        file_sum.update(&bytes);
                        total_records += sealed.records;
                    }
                    Err(e) => error = Some(e),
                }
                literace_telemetry::trace_end("commit.block");
            }
        }
        if let Some(e) = error {
            return Err(e);
        }
        if !reorder.complete(self.issued.load(Ordering::Acquire)) {
            return Err(LogError::corrupt("encode worker dropped a block"));
        }
        if !self.finish_requested.load(Ordering::Acquire) {
            // Producer dropped without finish: blocks are flushed (the
            // log reads back Unsealed), the footer is withheld — the
            // inline writer's Drop semantics.
            self.sink.flush()?;
            return Ok(self.sink);
        }
        if !header_written {
            self.sink.write_all(&V2_MAGIC)?;
            self.sink.write_all(&[self.rev])?;
            if literace_telemetry::enabled() {
                literace_telemetry::metrics()
                    .log_encode_v2_bytes
                    .add(V2_MAGIC.len() as u64 + 1);
            }
        }
        self.sink
            .write_all(&make_footer(total_records, file_sum.finish()))?;
        if literace_telemetry::enabled() {
            literace_telemetry::metrics()
                .log_encode_v2_bytes
                .add(FRAME_BYTES as u64);
        }
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Streams records into a v2 log through the pipelined write path: the
/// caller's `push` is a raw append; encoding, checksumming and framing
/// run on background workers; an in-order committer seals the file.
///
/// Like the inline sinks, write and encode errors cannot interrupt the
/// producer — they are stashed and surface from
/// [`finish`](PipelinedSink::finish).
#[derive(Debug)]
pub struct PipelinedSink<W: Write + Send + 'static> {
    builder: Vec<Record>,
    block_records: usize,
    seq: u64,
    records: u64,
    /// Spent raw buffers coming back from the encode workers for reuse.
    recycle_rx: Receiver<Vec<Record>>,
    job_tx: Option<SyncSender<RawBlock>>,
    committer: Option<JoinHandle<LogResult<W>>>,
    workers: Vec<JoinHandle<()>>,
    queued: Arc<AtomicU64>,
    inflight: Arc<AtomicU64>,
    issued: Arc<AtomicU64>,
    finish_requested: Arc<AtomicBool>,
}

impl<W: Write + Send + 'static> PipelinedSink<W> {
    /// Creates a pipelined sink writing a v2 log to `sink` with default
    /// options (one encode worker).
    ///
    /// # Errors
    ///
    /// Surfaces thread-spawn failures.
    pub fn new(sink: W) -> LogResult<PipelinedSink<W>> {
        PipelinedSink::with_opts(sink, EncodeOpts::default())
    }

    /// Creates a pipelined sink with explicit [`EncodeOpts`].
    ///
    /// # Errors
    ///
    /// Surfaces thread-spawn failures.
    pub fn with_opts(sink: W, opts: EncodeOpts) -> LogResult<PipelinedSink<W>> {
        PipelinedSink::with_revision_and_opts(sink, V2_VERSION, opts)
    }

    /// [`with_opts`](PipelinedSink::with_opts) pinned to payload revision
    /// `rev` (3 or 4) — compatibility and test tooling.
    ///
    /// # Errors
    ///
    /// Surfaces thread-spawn failures.
    ///
    /// # Panics
    ///
    /// Panics when `rev` is not a writable revision.
    pub fn with_revision_and_opts(
        sink: W,
        rev: u8,
        opts: EncodeOpts,
    ) -> LogResult<PipelinedSink<W>> {
        assert!(rev_supported(rev), "unwritable v2 revision {rev}");
        assert!(
            rev == V2_VERSION,
            "pipelined sink only writes the current revision ({V2_VERSION}); \
             use LogWriterV2::with_revision for compatibility output"
        );
        let threads = opts.threads.max(1);
        let depth = opts.depth.max(1);
        let (job_tx, job_rx) = sync_channel::<RawBlock>(depth);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (res_tx, res_rx) = sync_channel::<Sealed>(depth.max(threads));
        let (recycle_tx, recycle_rx) =
            sync_channel::<Vec<Record>>(depth.max(threads) + 1);
        let queued = Arc::new(AtomicU64::new(0));
        let inflight = Arc::new(AtomicU64::new(0));
        let issued = Arc::new(AtomicU64::new(0));
        let finish_requested = Arc::new(AtomicBool::new(false));

        let workers: Vec<_> = (0..threads)
            .map(|i| {
                let job_rx = job_rx.clone();
                let res_tx = res_tx.clone();
                let recycle_tx = recycle_tx.clone();
                let queued = queued.clone();
                std::thread::Builder::new()
                    .name(format!("literace-encode-{i}"))
                    .spawn(move || {
                        encode_worker(&job_rx, &res_tx, &recycle_tx, rev, &queued)
                    })
                    .map_err(LogError::Io)
            })
            .collect::<LogResult<_>>()?;
        // The committer's results loop must end when the workers do.
        drop(res_tx);
        drop(recycle_tx);

        let committer = Committer {
            sink,
            rev,
            inflight: inflight.clone(),
            issued: issued.clone(),
            finish_requested: finish_requested.clone(),
        };
        let handle = std::thread::Builder::new()
            .name("literace-log-commit".to_owned())
            .spawn(move || committer.run(res_rx))
            .map_err(LogError::Io)?;

        Ok(PipelinedSink {
            builder: Vec::with_capacity(opts.block_records.max(1)),
            block_records: opts.block_records.max(1),
            recycle_rx,
            seq: 0,
            records: 0,
            job_tx: Some(job_tx),
            committer: Some(handle),
            workers,
            queued,
            inflight,
            issued,
            finish_requested,
        })
    }

    /// Appends one record to the raw block builder — the entire hot
    /// path. Seals and hands the block to the encode pool at every
    /// `block_records` boundary.
    pub fn push(&mut self, record: Record) {
        self.records += 1;
        self.builder.push(record);
        if self.builder.len() >= self.block_records {
            self.seal();
        }
    }

    /// Seals the open builder (if non-empty) into the encode pool.
    fn seal(&mut self) {
        if self.builder.is_empty() {
            return;
        }
        let fresh = self
            .recycle_rx
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.block_records));
        let records = std::mem::replace(&mut self.builder, fresh);
        let seq = self.seq;
        self.seq += 1;
        self.issued.store(self.seq, Ordering::Release);
        let queued = self.queued.fetch_add(1, Ordering::AcqRel) + 1;
        let in_flight = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        if literace_telemetry::enabled() {
            let m = literace_telemetry::metrics();
            m.log_encode_sealed_blocks_hwm.record(queued);
            m.log_encode_blocks_inflight_hwm.record(in_flight);
        }
        if let Some(tx) = &self.job_tx {
            if tx.send(RawBlock { seq, records }).is_err() {
                // Every worker is gone (contained panics still exit on a
                // closed results channel); the committer's missing-block
                // check surfaces this from `finish`.
                self.job_tx = None;
            }
        }
    }

    /// Records pushed so far (including any dropped after an error).
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Seals the open block, drains the pipeline, writes the
    /// finalization footer, flushes, and returns the sink. A log
    /// finished here reads back as [`Sealed`](crate::SealState::Sealed).
    ///
    /// # Errors
    ///
    /// Surfaces the first sink I/O error or contained encode panic from
    /// anywhere in the pipeline.
    pub fn finish(mut self) -> LogResult<W> {
        self.seal();
        self.finish_requested.store(true, Ordering::Release);
        self.shutdown()
    }

    /// Closes the job channel, joins every pipeline thread, and returns
    /// the committer's verdict.
    fn shutdown(&mut self) -> LogResult<W> {
        drop(self.job_tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let handle = self.committer.take().ok_or(LogError::WriterFinished)?;
        handle.join().unwrap_or_else(|payload| {
            Err(LogError::corrupt(format!(
                "encode committer panicked: {}",
                panic_message(payload.as_ref())
            )))
        })
    }
}

impl<W: Write + Send + 'static> Drop for PipelinedSink<W> {
    /// Best-effort: seals and flushes buffered blocks (a dropped sink
    /// cannot silently lose whole blocks) but withholds the footer, so
    /// the log reads back [`Unsealed`](crate::SealState::Unsealed) —
    /// matching the inline writer's Drop. Errors are swallowed here;
    /// call [`finish`](PipelinedSink::finish) to observe them.
    fn drop(&mut self) {
        if self.committer.is_some() {
            self.seal();
            let _ = self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SamplerMask;
    use crate::salvage::read_log_salvage;
    use crate::stream::{read_log_auto, DecodeOpts, RecordStream};
    use crate::v2::SealState;
    use literace_sim::{Addr, FuncId, Pc, SyncOpKind, SyncVar, ThreadId};

    fn mixed_records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    Record::Sync {
                        tid: ThreadId::from_index(i % 4),
                        pc: Pc::new(FuncId::from_index(1), i),
                        kind: SyncOpKind::LockAcquire,
                        var: SyncVar(i as u64 % 3),
                        timestamp: i as u64,
                    }
                } else {
                    Record::Mem {
                        tid: ThreadId::from_index(i % 4),
                        pc: Pc::new(FuncId::from_index(i % 5), i),
                        addr: Addr::global((i % 13) as u64 * 8),
                        is_write: i % 2 == 0,
                        mask: SamplerMask::bit(0),
                    }
                }
            })
            .collect()
    }

    fn pipelined_bytes(records: &[Record], opts: EncodeOpts) -> Vec<u8> {
        let mut sink = PipelinedSink::with_opts(Vec::new(), opts).unwrap();
        for r in records {
            sink.push(*r);
        }
        assert_eq!(sink.records_written(), records.len() as u64);
        sink.finish().unwrap()
    }

    #[test]
    fn pipelined_log_round_trips_across_threads_and_block_sizes() {
        let records = mixed_records(5000);
        for threads in [1, 2, 4] {
            for block_records in [1, 3, 256, DEFAULT_BLOCK_RECORDS] {
                let bytes = pipelined_bytes(
                    &records,
                    EncodeOpts::with_threads(threads).block_records(block_records),
                );
                let log = read_log_auto(&bytes[..]).unwrap();
                assert_eq!(
                    log.records(),
                    &records[..],
                    "threads {threads} block_records {block_records}"
                );
            }
        }
    }

    #[test]
    fn pipelined_log_is_sealed_and_readable_by_every_reader() {
        let records = mixed_records(3000);
        let bytes = pipelined_bytes(&records, EncodeOpts::with_threads(4).block_records(64));
        // Strict pooled reader.
        let stream = RecordStream::spawn_with(
            std::io::Cursor::new(bytes.clone()),
            DecodeOpts::with_threads(4),
        )
        .unwrap();
        let pooled: Vec<Record> = stream.flat_map(|b| b.unwrap()).collect();
        assert_eq!(pooled, records);
        // Salvage reader: a clean log salvages losslessly and is Sealed.
        let (salvaged, report) = read_log_salvage(&bytes[..]);
        assert_eq!(salvaged.records(), &records[..]);
        assert_eq!(report.seal, SealState::Sealed);
        assert_eq!(report.blocks_skipped, 0);
        assert!(!report.sync_tainted);
    }

    #[test]
    fn decoded_log_matches_the_inline_writer_record_for_record() {
        let records = mixed_records(4000);
        let mut inline = crate::v2::LogWriterV2::new(Vec::new());
        for r in &records {
            inline.write_record(r).unwrap();
        }
        let inline_log = read_log_auto(&inline.finish().unwrap()[..]).unwrap();
        for threads in [1, 2, 4] {
            let bytes = pipelined_bytes(&records, EncodeOpts::with_threads(threads));
            let pipelined_log = read_log_auto(&bytes[..]).unwrap();
            assert_eq!(pipelined_log, inline_log, "threads {threads}");
        }
    }

    #[test]
    fn empty_pipelined_log_is_a_valid_sealed_v2_log() {
        let bytes = pipelined_bytes(&[], EncodeOpts::default());
        assert_eq!(bytes.len(), V2_MAGIC.len() + 1 + FRAME_BYTES);
        let log = read_log_auto(&bytes[..]).unwrap();
        assert!(log.is_empty());
    }

    /// A shared Vec sink so the written bytes survive the sink's drop.
    #[derive(Debug, Clone, Default)]
    struct SharedVec(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedVec {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn dropped_sink_flushes_blocks_but_never_seals() {
        let shared = SharedVec::default();
        let records = mixed_records(1000);
        {
            let mut sink =
                PipelinedSink::with_opts(shared.clone(), EncodeOpts::with_threads(2))
                    .unwrap();
            for r in &records {
                sink.push(*r);
            }
            // dropped without finish
        }
        let bytes = shared.0.lock().unwrap().clone();
        let (salvaged, report) = read_log_salvage(&bytes[..]);
        assert_eq!(salvaged.records(), &records[..], "blocks flushed on drop");
        assert_eq!(report.seal, SealState::Unsealed, "drop must not seal");
    }

    /// A writer that fails after `ok` bytes.
    #[derive(Debug)]
    struct FailingWriter {
        ok: usize,
    }
    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            let n = buf.len().min(self.ok);
            self.ok -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_errors_surface_at_finish_not_push() {
        let mut sink = PipelinedSink::with_opts(
            FailingWriter { ok: 64 },
            EncodeOpts::with_threads(2).block_records(16),
        )
        .unwrap();
        for r in mixed_records(10_000) {
            sink.push(r);
        }
        let err = sink.finish().unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
    }

    #[test]
    fn fault_injected_device_death_surfaces_cleanly() {
        let sink = crate::fault::FaultySink::new(Vec::new(), Some(200), true, 7);
        let mut pipelined = PipelinedSink::with_opts(
            sink,
            EncodeOpts::with_threads(2).block_records(32),
        )
        .unwrap();
        for r in mixed_records(5_000) {
            pipelined.push(r);
        }
        let err = pipelined.finish().unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
    }
}
