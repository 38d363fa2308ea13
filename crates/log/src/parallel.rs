//! The v2 block reader: one frame walk, one rule set, zero or more
//! decode workers.
//!
//! v2 blocks are independently decodable by design: each 24-byte frame
//! carries its own header checksum, record/sync counts and payload
//! checksum, and the per-thread delta state resets at every block start.
//! Every v2 read — strict or salvage, inline or pooled — is built from
//! the same three parts:
//!
//! * the **frame walk** ([`Scanner`]) reads the stream sequentially —
//!   frame headers are cheap fixed 24-byte reads — validates each frame,
//!   reads the raw payload, and yields either the next block ([`Job`]) or
//!   the way the stream ended ([`Terminal`]). It never decodes.
//! * **decode** verifies the payload checksum and decodes the records;
//! * the **rule set** ([`Rules`]) sees the decoded blocks in stream order
//!   and owns everything sequential: the running file checksum, the
//!   footer count and checksum check, the strict error order, and the
//!   salvage rules of [`crate::salvage`] (skip a mem-only block, mark the
//!   log sync-tainted, drop the rest of it).
//!
//! With zero workers ([`BlockReader`], what [`RecordBlocks`] and a
//! one-thread [`RecordStream`] run) the walk, the decode and the rules
//! run inline on one thread, into one reused payload buffer. With `N ≥ 2`
//! workers the same parts are spread over threads:
//!
//! ```text
//! scanner ──jobs──▶ worker pool ──done──▶ consumer ──▶ RecordStream
//!  (frame walk)     (N threads,           (Reorder by
//!                    out-of-order         sequence index,
//!                    payload decode)      then the rule set)
//! ```
//!
//! Workers echo each frame and payload back so the consumer can feed the
//! rule set exactly what the inline reader feeds it; delivery downstream
//! is therefore byte-identical for every thread count. All pool threads
//! are joined by the consumer thread, which [`RecordStream`] joins on
//! drop — no pool thread outlives the stream.
//!
//! [`RecordBlocks`]: crate::RecordBlocks

use std::collections::BTreeMap;
use std::io::Read;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use crate::checksum::Checksum;
use crate::error::{count_error, LogError, LogResult};
use crate::record::Record;
use crate::salvage::{drain_bytes, tally_skip, SalvageReport};
use crate::stream::{
    panic_message, push_output, spawn_decoder, DecodeOpts, LogFormat, RecordStream,
};
use crate::v2::{
    decode_block_with, parse_frame, read_exact_or_eof, BlockFrame, BlockState, FooterFrame, Frame,
    SealState, FRAME_BYTES,
};

/// A block payload in flight: owned bytes from a reader source, or a
/// zero-copy refcounted slice of a materialized log.
pub(crate) enum PayloadBuf {
    /// Copied out of a `Read` source.
    Owned(Vec<u8>),
    /// Shared slice of the whole-file buffer ([`BytesSource`]).
    Shared(Bytes),
}

impl std::ops::Deref for PayloadBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            PayloadBuf::Owned(v) => v,
            PayloadBuf::Shared(b) => b,
        }
    }
}

/// What the frame walk needs from a source: exact frame reads, payload
/// reads, a byte-counting drain, and a one-byte trailing probe.
pub(crate) trait ScanSource {
    /// Fills `buf` as far as the source allows; short only at EOF.
    fn read_frame(&mut self, buf: &mut [u8; FRAME_BYTES]) -> LogResult<usize>;
    /// Reads up to `len` payload bytes; the returned count is short only
    /// at EOF (a torn final block).
    fn read_payload(&mut self, len: usize) -> LogResult<(PayloadBuf, usize)>;
    /// Consumes the rest of the source, counting bytes (errors just end
    /// the count).
    fn drain(&mut self) -> u64;
    /// Reads at most one byte (the strict footer-trailing probe).
    fn probe_byte(&mut self) -> LogResult<u64>;
    /// Takes back a payload the reader is done with, so the next
    /// [`read_payload`](ScanSource::read_payload) can reuse it.
    fn recycle(&mut self, _payload: PayloadBuf) {}
}

/// [`ScanSource`] over any `Read`: payloads are copied once into owned
/// buffers. An inline reader hands each buffer back, so it reads the
/// whole stream through one allocation.
pub(crate) struct ReaderSource<R> {
    source: R,
    spare: Vec<u8>,
}

impl<R: Read> ReaderSource<R> {
    pub(crate) fn new(source: R) -> ReaderSource<R> {
        ReaderSource {
            source,
            spare: Vec::new(),
        }
    }
}

impl<R: Read> ScanSource for ReaderSource<R> {
    fn read_frame(&mut self, buf: &mut [u8; FRAME_BYTES]) -> LogResult<usize> {
        read_exact_or_eof(&mut self.source, buf)
    }

    fn read_payload(&mut self, len: usize) -> LogResult<(PayloadBuf, usize)> {
        let mut payload = std::mem::take(&mut self.spare);
        payload.clear();
        payload.resize(len, 0);
        let got = read_exact_or_eof(&mut self.source, &mut payload)?;
        payload.truncate(got);
        Ok((PayloadBuf::Owned(payload), got))
    }

    fn drain(&mut self) -> u64 {
        drain_bytes(&mut self.source)
    }

    fn probe_byte(&mut self) -> LogResult<u64> {
        let mut probe = [0u8; 1];
        Ok(read_exact_or_eof(&mut self.source, &mut probe)? as u64)
    }

    fn recycle(&mut self, payload: PayloadBuf) {
        if let PayloadBuf::Owned(buf) = payload {
            self.spare = buf;
        }
    }
}

/// [`ScanSource`] over a fully materialized log: payloads are zero-copy
/// refcounted slices — the reader never copies block bytes.
pub(crate) struct BytesSource {
    buf: Bytes,
    pos: usize,
}

impl BytesSource {
    /// A source over `buf`, which must start at the first block frame
    /// (the 5-byte file header already stripped).
    pub(crate) fn new(buf: Bytes) -> BytesSource {
        BytesSource { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

impl ScanSource for BytesSource {
    fn read_frame(&mut self, buf: &mut [u8; FRAME_BYTES]) -> LogResult<usize> {
        let n = FRAME_BYTES.min(self.remaining());
        buf[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }

    fn read_payload(&mut self, len: usize) -> LogResult<(PayloadBuf, usize)> {
        let n = len.min(self.remaining());
        let slice = self.buf.slice(self.pos..self.pos + n);
        self.pos += n;
        Ok((PayloadBuf::Shared(slice), n))
    }

    fn drain(&mut self) -> u64 {
        let n = self.remaining() as u64;
        self.pos = self.buf.len();
        n
    }

    fn probe_byte(&mut self) -> LogResult<u64> {
        let n = 1.min(self.remaining());
        self.pos += n;
        Ok(n as u64)
    }
}

/// One scanned block, tagged with its sequence index in the stream.
struct Job {
    seq: u64,
    frame: [u8; FRAME_BYTES],
    head: BlockFrame,
    payload: PayloadBuf,
}

/// How the frame walk ended.
enum Terminal {
    /// Clean EOF without a footer (an unsealed log).
    Eof,
    /// A verified footer frame; `trailing` is what followed it (strict
    /// mode probes one byte, salvage drains and counts).
    Footer {
        foot: FooterFrame,
        trailing: LogResult<u64>,
    },
    /// EOF inside a frame header: `got` of 24 bytes.
    TornHeader { got: usize },
    /// An unparseable frame: block boundaries are lost. `rest` is the
    /// byte count salvage drained after it (0 in strict mode).
    BadFrame { error: LogError, rest: u64 },
    /// EOF inside a block payload: `got` of the declared bytes.
    TornPayload { head: BlockFrame, got: usize },
    /// The source itself failed.
    Io(LogError),
    /// The rule set halted the walk (strict error delivered, downstream
    /// dropped, or a sync-tainted suffix); `drained` counts the bytes
    /// salvage consumed past that point.
    Aborted { drained: u64 },
    /// The scanner (or pool plumbing) panicked.
    Panicked { message: String },
}

impl Terminal {
    /// Raw bytes the walk consumed for this terminal event — what a
    /// sync-tainted suffix drop counts on top of the blocks before it.
    fn raw_bytes(&self) -> u64 {
        match self {
            Terminal::Eof | Terminal::Io(_) | Terminal::Panicked { .. } => 0,
            Terminal::Footer { trailing, .. } => {
                FRAME_BYTES as u64 + trailing.as_ref().copied().unwrap_or(0)
            }
            Terminal::TornHeader { got } => *got as u64,
            Terminal::BadFrame { rest, .. } => FRAME_BYTES as u64 + rest,
            Terminal::TornPayload { got, .. } => (FRAME_BYTES + got) as u64,
            Terminal::Aborted { drained } => *drained,
        }
    }
}

/// One step of the frame walk.
enum Scanned {
    /// The next block, payload read but not decoded.
    Job(Job),
    /// The walk is over.
    End(Terminal),
}

/// The frame walk over a v2 stream whose 5-byte header is consumed.
struct Scanner<S> {
    src: S,
    salvage: bool,
    seq: u64,
}

impl<S: ScanSource> Scanner<S> {
    /// Reads the next frame (and its payload). With `halt` set the walk
    /// ends instead — salvage first drains the rest of the source so the
    /// dropped bytes are counted.
    fn next(&mut self, halt: bool) -> Scanned {
        if halt {
            let drained = if self.salvage { self.src.drain() } else { 0 };
            return Scanned::End(Terminal::Aborted { drained });
        }
        let mut frame = [0u8; FRAME_BYTES];
        let got = match self.src.read_frame(&mut frame) {
            Ok(n) => n,
            Err(e) => return Scanned::End(Terminal::Io(e)),
        };
        if got == 0 {
            return Scanned::End(Terminal::Eof);
        }
        if got < FRAME_BYTES {
            return Scanned::End(Terminal::TornHeader { got });
        }
        let head = match parse_frame(&frame) {
            Err(error) => {
                let rest = if self.salvage { self.src.drain() } else { 0 };
                return Scanned::End(Terminal::BadFrame { error, rest });
            }
            Ok(Frame::Footer(foot)) => {
                let trailing = if self.salvage {
                    Ok(self.src.drain())
                } else {
                    self.src.probe_byte()
                };
                return Scanned::End(Terminal::Footer { foot, trailing });
            }
            Ok(Frame::Block(head)) => head,
        };
        let (payload, got) = match self.src.read_payload(head.payload_len as usize) {
            Ok(p) => p,
            Err(e) => return Scanned::End(Terminal::Io(e)),
        };
        if got < head.payload_len as usize {
            return Scanned::End(Terminal::TornPayload { head, got });
        }
        let seq = self.seq;
        self.seq += 1;
        Scanned::Job(Job {
            seq,
            frame,
            head,
            payload,
        })
    }
}

/// Verifies a scanned block's payload checksum and decodes its records.
/// A decode panic is contained as [`LogError::DecoderPanicked`].
fn decode_job(state: &mut BlockState, job: &Job, rev: u8) -> LogResult<Vec<Record>> {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        if crate::checksum::checksum(&job.payload) != job.head.payload_sum {
            return Err(LogError::corrupt("block payload checksum mismatch"));
        }
        decode_block_with(state, &job.payload, job.head.record_count, rev)
    }))
    .unwrap_or_else(|payload| {
        Err(LogError::DecoderPanicked {
            message: panic_message(payload.as_ref()),
        })
    })
}

/// Publishes the per-block decode counters (`log.decode.v2.*`) for a
/// block decoded in `ns`. Strict reads only; salvage never counts them.
fn count_decoded(head: &BlockFrame, ns: u64) {
    let m = literace_telemetry::metrics();
    m.log_decode_v2_blocks.add(1);
    m.log_decode_v2_bytes
        .add(u64::from(FRAME_BYTES as u32 + head.payload_len));
    m.log_decode_v2_records.add(u64::from(head.record_count));
    m.log_decode_v2_ns.add(ns);
}

/// Whether a read fails on the first damage or salvages around it.
#[derive(Clone)]
pub(crate) enum Mode {
    /// Fail with the first error, in stream order.
    Strict,
    /// Never fail; tally every skip and drop in the shared report.
    Salvage(Arc<Mutex<SalvageReport>>),
}

/// Byte accounting for a sync-tainted suffix drop in flight: everything
/// after the tainted block is counted, then tallied once at the end.
struct Taint {
    records: u64,
    block_bytes: u64,
    rest: u64,
}

/// The in-order rule set every v2 read feeds: blocks in stream order,
/// then the way the walk ended.
struct Rules {
    mode: Mode,
    file_sum: Checksum,
    records_seen: u64,
    /// Output closed: strict error delivered or downstream dropped.
    stopped: bool,
    taint: Option<Taint>,
    /// Footer verdict, shared with the [`RecordStream`] handle.
    seal: Arc<Mutex<SealState>>,
}

impl Rules {
    fn new(mode: Mode) -> Rules {
        Rules {
            mode,
            file_sum: Checksum::new(),
            records_seen: 0,
            stopped: false,
            taint: None,
            seal: Arc::new(Mutex::new(SealState::Unknown)),
        }
    }

    fn strict(&self) -> bool {
        matches!(self.mode, Mode::Strict)
    }

    /// Whether the frame walk should stop.
    fn halted(&self) -> bool {
        self.stopped || self.taint.is_some()
    }

    /// Downstream is gone: nothing more will be delivered.
    fn stop(&mut self) {
        self.stopped = true;
    }

    fn fail(&mut self, e: LogError) -> LogError {
        count_error(&e);
        self.stopped = true;
        e
    }

    fn set_seal(&self, seal: SealState) {
        *self.seal.lock().expect("seal state poisoned") = seal;
    }

    /// Applies the rules to the next block in stream order and returns
    /// what to deliver downstream, if anything.
    fn block(
        &mut self,
        job: &Job,
        result: LogResult<Vec<Record>>,
    ) -> Option<LogResult<Vec<Record>>> {
        if let Some(t) = &mut self.taint {
            // Suffix already dropped: only the byte count matters.
            t.rest += FRAME_BYTES as u64 + u64::from(job.head.payload_len);
            return None;
        }
        if self.stopped {
            return None;
        }
        let e = match result {
            Ok(block) => {
                self.file_sum.update(&job.frame);
                self.file_sum.update(&job.payload);
                self.records_seen += u64::from(job.head.record_count);
                if let Mode::Salvage(report) = &self.mode {
                    let mut r = report.lock().expect("salvage report poisoned");
                    r.blocks_decoded += 1;
                    r.records_salvaged += block.len() as u64;
                }
                return Some(Ok(block));
            }
            Err(e) => e,
        };
        let Mode::Salvage(report) = &self.mode else {
            return Some(Err(self.fail(e)));
        };
        let dropped = (FRAME_BYTES + job.payload.len()) as u64;
        let records = u64::from(job.head.record_count);
        let mut r = report.lock().expect("salvage report poisoned");
        r.blocks_skipped += 1;
        r.records_dropped_known += records;
        r.bytes_dropped += dropped;
        r.note_error(e.to_string());
        if job.head.sync_count > 0 {
            // Sync records lost: a happens-before edge between surviving
            // accesses may be gone, so nothing after this block can be
            // trusted not to race falsely — drop the suffix. The tally
            // waits until the drained byte count is known.
            r.sync_tainted = true;
            r.suffix_dropped = true;
            self.taint = Some(Taint {
                records,
                block_bytes: dropped,
                rest: 0,
            });
        } else {
            // Memory-only block: dropping it can only hide races, never
            // invent them. Resync at the next frame.
            drop(r);
            tally_skip(1, records, dropped);
        }
        None
    }

    /// Applies the rules to the way the walk ended; returns the strict
    /// error to deliver, if any.
    fn end(&mut self, term: Terminal) -> Option<LogError> {
        match self.mode.clone() {
            Mode::Strict => self.end_strict(term),
            Mode::Salvage(report) => {
                self.end_salvage(&report, term);
                None
            }
        }
    }

    fn end_strict(&mut self, term: Terminal) -> Option<LogError> {
        if self.stopped {
            return None;
        }
        let e = match term {
            Terminal::Aborted { .. } => return None,
            Terminal::Eof => {
                self.set_seal(SealState::Unsealed);
                return None;
            }
            Terminal::Footer { foot, trailing } => {
                if foot.total_records != self.records_seen {
                    LogError::corrupt(format!(
                        "footer record count mismatch: footer says {}, decoded {}",
                        foot.total_records, self.records_seen
                    ))
                } else if foot.file_sum != self.file_sum.finish() {
                    LogError::corrupt("footer stream checksum mismatch")
                } else {
                    match trailing {
                        Err(e) => e,
                        Ok(0) => {
                            self.set_seal(SealState::Sealed);
                            return None;
                        }
                        Ok(_) => LogError::corrupt("trailing bytes after footer"),
                    }
                }
            }
            Terminal::TornHeader { got } => LogError::corrupt(format!(
                "truncated block header: {got} of {FRAME_BYTES} bytes"
            )),
            Terminal::BadFrame { error, .. } => error,
            Terminal::TornPayload { head, got } => LogError::corrupt(format!(
                "truncated block: {got} of {} payload bytes",
                head.payload_len
            )),
            Terminal::Io(e) => e,
            Terminal::Panicked { message } => LogError::DecoderPanicked { message },
        };
        Some(self.fail(e))
    }

    fn end_salvage(&mut self, report: &Mutex<SalvageReport>, term: Terminal) {
        let mut r = report.lock().expect("salvage report poisoned");
        if let Some(t) = &self.taint {
            // The drained byte count is now complete: tally once. The
            // seal stays Unknown — the footer was never reached.
            let rest = t.rest + term.raw_bytes();
            r.bytes_dropped += rest;
            drop(r);
            tally_skip(1, t.records, t.block_bytes + rest);
            return;
        }
        // Bytes dropped at the end of the walk (no block, no records).
        let mut dropped = 0;
        match term {
            // An abandoned stream (downstream dropped) reaches no verdict.
            Terminal::Aborted { .. } => {}
            Terminal::Eof => {
                if r.seal == SealState::Unknown {
                    r.seal = SealState::Unsealed;
                }
            }
            Terminal::Footer { foot, trailing } => {
                // foot_sum verified by the walk: the writer did finalize
                // this log, whatever happened to its middle.
                r.seal = SealState::Sealed;
                dropped = trailing.unwrap_or(0);
                if dropped > 0 {
                    r.note_error(format!("{dropped} trailing bytes after footer"));
                }
                // A mismatch is expected when blocks were skipped; on an
                // otherwise-clean read it means damage the block checks
                // missed.
                let totals_match = foot.total_records == self.records_seen
                    && foot.file_sum == self.file_sum.finish();
                if !totals_match && r.first_error.is_none() {
                    r.note_error(format!(
                        "footer totals mismatch: footer says {} records, decoded {}",
                        foot.total_records, self.records_seen
                    ));
                }
            }
            Terminal::TornHeader { got } => {
                // Fewer than 24 bytes cannot hold a record: nothing
                // decodable (and no sync record) is lost.
                dropped = got as u64;
                r.note_error(format!(
                    "truncated block header: {got} of {FRAME_BYTES} bytes"
                ));
                r.seal = SealState::Unsealed;
            }
            Terminal::BadFrame { error, rest } => {
                // Framing lost: the block boundaries after this point
                // cannot be found, so the whole suffix goes.
                dropped = FRAME_BYTES as u64 + rest;
                r.suffix_dropped = true;
                r.sync_tainted = true;
                r.note_error(error.to_string());
            }
            Terminal::TornPayload { head, got } => {
                // Torn final block: the trusted header says how many
                // records went, and whether sync edges went with them.
                let lost = (FRAME_BYTES + got) as u64;
                r.blocks_skipped += 1;
                r.records_dropped_known += u64::from(head.record_count);
                r.bytes_dropped += lost;
                r.seal = SealState::Unsealed;
                if head.sync_count > 0 {
                    r.sync_tainted = true;
                }
                r.note_error(format!(
                    "truncated block: {got} of {} payload bytes",
                    head.payload_len
                ));
                tally_skip(1, u64::from(head.record_count), lost);
            }
            // The source failed (or the reader did): whatever follows is
            // unreachable, and it may have held sync records.
            Terminal::Io(e) => {
                r.note_error(e.to_string());
                r.suffix_dropped = true;
                r.sync_tainted = true;
            }
            Terminal::Panicked { message } => {
                r.note_error(message);
                r.suffix_dropped = true;
                r.sync_tainted = true;
            }
        }
        if dropped > 0 {
            r.bytes_dropped += dropped;
            tally_skip(0, 0, dropped);
        }
        self.set_seal(r.seal);
    }
}

/// A v2 reader: the frame walk, decode and the rule set. Iterating it
/// runs all three inline — the pool with zero workers;
/// [`spawn`](BlockReader::spawn) moves them onto threads.
pub(crate) struct BlockReader<S> {
    scanner: Scanner<S>,
    rules: Rules,
    state: BlockState,
    rev: u8,
    done: bool,
}

impl<S: ScanSource> BlockReader<S> {
    /// A reader over `src` (positioned at the first block frame) decoding
    /// payload revision `rev` under `mode`.
    pub(crate) fn new(src: S, rev: u8, mode: Mode) -> BlockReader<S> {
        BlockReader {
            scanner: Scanner {
                src,
                salvage: matches!(mode, Mode::Salvage(_)),
                seq: 0,
            },
            rules: Rules::new(mode),
            state: BlockState::default(),
            rev,
            done: false,
        }
    }

    /// The payload revision this reader decodes.
    pub(crate) fn revision(&self) -> u8 {
        self.rev
    }

    /// The footer verdict so far (see [`SealState`]).
    pub(crate) fn seal_state(&self) -> SealState {
        *self.rules.seal.lock().expect("seal state poisoned")
    }
}

impl<S: ScanSource> Iterator for BlockReader<S> {
    type Item = LogResult<Vec<Record>>;

    fn next(&mut self) -> Option<LogResult<Vec<Record>>> {
        while !self.done {
            let start = literace_telemetry::enabled().then(std::time::Instant::now);
            let job = match self.scanner.next(self.rules.halted()) {
                Scanned::Job(job) => job,
                Scanned::End(term) => {
                    self.done = true;
                    return self.rules.end(term).map(Err);
                }
            };
            let result = decode_job(&mut self.state, &job, self.rev);
            if let (Some(start), true, Ok(_)) = (start, self.rules.strict(), &result) {
                count_decoded(&job.head, start.elapsed().as_nanos() as u64);
            }
            let item = self.rules.block(&job, result);
            self.scanner.src.recycle(job.payload);
            if item.is_some() {
                return item;
            }
        }
        None
    }
}

impl<S: ScanSource + Send + 'static> BlockReader<S> {
    /// Runs this reader behind a [`RecordStream`]. With `opts.threads <=
    /// 1` one decode thread iterates it inline; otherwise the frame walk
    /// moves to a scanner thread, decode to `opts.threads` workers, and
    /// the rule set to an in-order consumer thread.
    ///
    /// # Errors
    ///
    /// Thread-spawn failure.
    pub(crate) fn spawn(self, opts: DecodeOpts) -> LogResult<RecordStream> {
        let seal = Some(self.rules.seal.clone());
        if opts.threads <= 1 {
            return spawn_decoder(self, LogFormat::V2, opts.depth, seal);
        }
        let BlockReader {
            mut scanner,
            rules,
            rev,
            ..
        } = self;
        let threads = opts.threads;
        let depth = opts.depth.max(1);
        let strict = rules.strict();

        let (out_tx, out_rx) = sync_channel(depth);
        let (job_tx, job_rx) = sync_channel::<Job>(depth);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (res_tx, res_rx) = sync_channel::<Done>(depth.max(threads));
        let (term_tx, term_rx) = std::sync::mpsc::channel::<(u64, Terminal)>();
        let abort = Arc::new(AtomicBool::new(false));
        let inflight = Arc::new(AtomicU64::new(0));
        let issued = Arc::new(AtomicU64::new(0));

        let scan_thread = {
            let abort = abort.clone();
            let inflight = inflight.clone();
            let issued = issued.clone();
            std::thread::Builder::new()
                .name("literace-decode-scan".to_owned())
                .spawn(move || {
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        scan(&mut scanner, &job_tx, &abort, &issued, &inflight)
                    }));
                    let end = outcome.unwrap_or_else(|payload| {
                        (
                            issued.load(Ordering::Acquire),
                            Terminal::Panicked {
                                message: panic_message(payload.as_ref()),
                            },
                        )
                    });
                    let _ = term_tx.send(end);
                })
                .map_err(LogError::Io)?
        };

        let workers: Vec<_> = (0..threads)
            .map(|i| {
                let job_rx = job_rx.clone();
                let res_tx = res_tx.clone();
                let abort = abort.clone();
                std::thread::Builder::new()
                    .name(format!("literace-decode-{i}"))
                    .spawn(move || worker(&job_rx, &res_tx, &abort, rev, strict))
                    .map_err(LogError::Io)
            })
            .collect::<LogResult<_>>()?;
        // The consumer's results loop must end when the workers do.
        drop(res_tx);

        let consumer = Consumer {
            out: out_tx.clone(),
            abort: abort.clone(),
            inflight,
            rules,
        };
        let handle = std::thread::Builder::new()
            .name("literace-log-decode".to_owned())
            .spawn(move || {
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(move || {
                    consumer.run(res_rx, term_rx);
                }));
                if let Err(payload) = outcome {
                    abort.store(true, Ordering::Release);
                    let e = LogError::DecoderPanicked {
                        message: panic_message(payload.as_ref()),
                    };
                    count_error(&e);
                    let _ = out_tx.send(Err(e));
                }
                let _ = scan_thread.join();
                for w in workers {
                    let _ = w.join();
                }
            })
            .map_err(LogError::Io)?;
        Ok(RecordStream::from_parts(
            out_rx,
            handle,
            LogFormat::V2,
            seal,
        ))
    }
}

/// The scanner thread: drives the frame walk and feeds the worker pool.
/// Returns how the walk ended and how many jobs were issued before it.
fn scan<S: ScanSource>(
    scanner: &mut Scanner<S>,
    jobs: &SyncSender<Job>,
    abort: &AtomicBool,
    issued: &AtomicU64,
    inflight: &AtomicU64,
) -> (u64, Terminal) {
    literace_telemetry::trace_begin("scan");
    let end = loop {
        let job = match scanner.next(abort.load(Ordering::Acquire)) {
            Scanned::Job(job) => job,
            Scanned::End(term) => break (scanner.seq, term),
        };
        let seq = job.seq;
        let in_flight = inflight.fetch_add(1, Ordering::AcqRel) + 1;
        if literace_telemetry::enabled() {
            literace_telemetry::metrics()
                .log_decode_blocks_inflight_hwm
                .record(in_flight);
        }
        literace_telemetry::trace_counter("decode.blocks_inflight", in_flight);
        if jobs.send(job).is_err() {
            // Every worker is gone (pool panic); the consumer's
            // missing-block check surfaces this.
            let message = "decode worker pool disconnected".to_owned();
            break (seq, Terminal::Panicked { message });
        }
        issued.store(seq + 1, Ordering::Release);
    };
    literace_telemetry::trace_end("scan");
    end
}

/// A worker's result: the job echoed back with its decode outcome.
struct Done {
    job: Job,
    result: LogResult<Vec<Record>>,
}

/// One decode worker: pulls scanned blocks, decodes them, echoes each
/// job back with its result.
fn worker(
    jobs: &Mutex<Receiver<Job>>,
    out: &SyncSender<Done>,
    abort: &AtomicBool,
    rev: u8,
    strict: bool,
) {
    let mut state = BlockState::default();
    loop {
        let idle_start = literace_telemetry::enabled().then(std::time::Instant::now);
        let job = {
            let guard = jobs.lock().expect("decode job queue poisoned");
            match guard.recv() {
                Ok(job) => job,
                Err(_) => return,
            }
        };
        if let Some(t0) = idle_start {
            literace_telemetry::metrics()
                .log_decode_worker_idle_ns
                .add(t0.elapsed().as_nanos() as u64);
        }
        let busy_start = literace_telemetry::enabled().then(std::time::Instant::now);
        literace_telemetry::trace_begin("decode.block");
        let result = if abort.load(Ordering::Acquire) {
            // The rule set only needs the head for byte accounting now;
            // skip the decode work.
            Ok(Vec::new())
        } else {
            decode_job(&mut state, &job, rev)
        };
        literace_telemetry::trace_end("decode.block");
        if let Some(t0) = busy_start {
            let ns = t0.elapsed().as_nanos() as u64;
            literace_telemetry::metrics()
                .log_decode_worker_busy_ns
                .add(ns);
            if strict && result.is_ok() {
                count_decoded(&job.head, ns);
            }
        }
        if out.send(Done { job, result }).is_err() {
            return;
        }
    }
}

/// Sequence-numbered reorder buffer: items tagged with their index in a
/// stream arrive in any order and leave in index order. The decode pool's
/// consumer and the pipelined encode committer both restore order with
/// it.
pub(crate) struct Reorder<T> {
    pending: BTreeMap<u64, T>,
    next: u64,
}

impl<T> Reorder<T> {
    pub(crate) fn new() -> Reorder<T> {
        Reorder {
            pending: BTreeMap::new(),
            next: 0,
        }
    }

    /// Buffers item `seq`. Returns the number of items now waiting on an
    /// earlier one (0 when `seq` is the next in order).
    pub(crate) fn insert(&mut self, seq: u64, item: T) -> usize {
        self.pending.insert(seq, item);
        if seq == self.next {
            0
        } else {
            self.pending.len()
        }
    }

    /// The next item in index order, once it has arrived.
    pub(crate) fn pop(&mut self) -> Option<T> {
        let item = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(item)
    }

    /// Items delivered in order so far.
    pub(crate) fn delivered(&self) -> u64 {
        self.next
    }

    /// Whether all of the first `issued` items were delivered, none
    /// missing and none left waiting.
    pub(crate) fn complete(&self, issued: u64) -> bool {
        self.next >= issued && self.pending.is_empty()
    }
}

/// The pool's in-order consumer: restores sequence order, then feeds the
/// rule set exactly what an inline reader would.
struct Consumer {
    out: SyncSender<LogResult<Vec<Record>>>,
    abort: Arc<AtomicBool>,
    inflight: Arc<AtomicU64>,
    rules: Rules,
}

impl Consumer {
    fn run(mut self, results: Receiver<Done>, terminal: Receiver<(u64, Terminal)>) {
        let mut reorder = Reorder::new();
        while let Ok(done) = results.recv() {
            let waiting = reorder.insert(done.job.seq, done);
            if waiting > 0 {
                if literace_telemetry::enabled() {
                    literace_telemetry::metrics()
                        .log_decode_ooo_reorder_depth
                        .record(waiting as u64);
                }
                literace_telemetry::trace_instant("consume.reorder");
            }
            while let Some(done) = reorder.pop() {
                self.inflight.fetch_sub(1, Ordering::AcqRel);
                literace_telemetry::trace_begin("consume.block");
                let item = self.rules.block(&done.job, done.result);
                self.deliver(item);
                literace_telemetry::trace_end("consume.block");
            }
        }
        // Workers have all exited, so the scanner is finished too and its
        // terminal is waiting (or it died before sending one).
        let (issued, term) = terminal.recv().unwrap_or((
            reorder.delivered(),
            Terminal::Panicked {
                message: "decode scanner exited without a terminal event".to_owned(),
            },
        ));
        let term = if reorder.complete(issued) {
            term
        } else {
            // A worker died without echoing its block back.
            Terminal::Panicked {
                message: "decode worker dropped a block".to_owned(),
            }
        };
        let item = self.rules.end(term).map(Err);
        self.deliver(item);
    }

    fn deliver(&mut self, item: Option<LogResult<Vec<Record>>>) {
        if let Some(item) = item {
            if !push_output(&self.out, item) {
                self.rules.stop();
            }
        }
        if self.rules.halted() {
            self.abort.store(true, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SamplerMask;
    use crate::salvage::read_log_salvage;
    use crate::v2::{encode_v2, encode_v2_rev, V2_REV_DELTA};
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

    fn multi_block(records: &[Record], rev: u8) -> Vec<u8> {
        let mut w =
            crate::v2::LogWriterV2::with_revision_and_block_bytes(Vec::new(), rev, 256);
        for r in records {
            w.write_record(r).unwrap();
        }
        w.finish().unwrap()
    }

    fn collect_parallel(bytes: Vec<u8>, threads: usize) -> LogResult<Vec<Record>> {
        let stream = RecordStream::spawn_with(
            std::io::Cursor::new(bytes),
            DecodeOpts::with_threads(threads),
        )?;
        let mut out = Vec::new();
        for block in stream {
            out.extend(block?);
        }
        Ok(out)
    }

    #[test]
    fn parallel_round_trips_both_revisions() {
        let records = mixed_records(5000);
        for rev in [V2_REV_DELTA, crate::v2::V2_REV_GV] {
            let bytes = multi_block(&records, rev);
            for threads in [2, 4] {
                let decoded = collect_parallel(bytes.clone(), threads).unwrap();
                assert_eq!(decoded, records, "rev {rev} threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_bytes_source_round_trips() {
        let records = mixed_records(5000);
        let bytes: Vec<u8> = multi_block(&records, crate::v2::V2_REV_GV);
        let stream =
            RecordStream::spawn_bytes(Bytes::from(bytes), DecodeOpts::with_threads(4))
                .unwrap();
        let decoded: Vec<Record> = stream.flat_map(|b| b.unwrap()).collect();
        assert_eq!(decoded, records);
    }

    /// The corruption cases both rule tables run over: `(name, bytes)`.
    fn damage_cases() -> Vec<(&'static str, Vec<u8>)> {
        let clean = multi_block(&mixed_records(3000), crate::v2::V2_REV_GV);
        // Mem-only records, so a damaged block is a skippable one.
        let mem_only: Vec<Record> = mixed_records(3000)
            .into_iter()
            .filter(|r| matches!(r, Record::Mem { .. }))
            .collect();
        let mem = multi_block(&mem_only, crate::v2::V2_REV_GV);
        let body_end = clean.len() - FRAME_BYTES;
        let mut cases = vec![("clean", clean.clone())];
        let mut torn_header = clean.clone();
        torn_header.truncate(5 + 7);
        cases.push(("torn_header", torn_header));
        let mut torn_payload = clean.clone();
        torn_payload.truncate(5 + FRAME_BYTES + 10);
        cases.push(("torn_payload", torn_payload));
        let mut torn_half = clean.clone();
        torn_half.truncate(clean.len() / 2);
        cases.push(("torn_half", torn_half));
        let mut sync_payload = clean.clone();
        sync_payload[5 + FRAME_BYTES + 3] ^= 0x40;
        cases.push(("sync_payload_flip", sync_payload));
        let mut mem_payload = mem.clone();
        mem_payload[5 + FRAME_BYTES + 3] ^= 0x40;
        cases.push(("mem_payload_flip", mem_payload));
        let mut bad_frame = clean.clone();
        bad_frame[5 + 2] ^= 0xFF;
        cases.push(("bad_frame", bad_frame));
        let mut trailing = clean.clone();
        trailing.extend_from_slice(&[1, 2, 3]);
        cases.push(("trailing", trailing));
        // A footer whose own checksum is valid but whose record count is
        // one too many.
        let footer = &clean[body_end..];
        let total = u64::from_le_bytes(footer[4..12].try_into().unwrap());
        let sum = u64::from_le_bytes(footer[12..20].try_into().unwrap());
        let mut footer_count = clean[..body_end].to_vec();
        footer_count.extend_from_slice(&crate::v2::make_footer(total + 1, sum));
        cases.push(("footer_count", footer_count));
        cases.push(("unsealed_eof", clean[..body_end].to_vec()));
        // EOF inside the payload of the second block of the mem-only log.
        let first_len = u32::from_le_bytes(mem[5..9].try_into().unwrap()) as usize;
        let second = 5 + FRAME_BYTES + first_len;
        cases.push((
            "mem_torn_payload",
            mem[..second + FRAME_BYTES + 10].to_vec(),
        ));
        cases
    }

    /// Strict decode at `threads` decode threads: the records of every
    /// `Ok` block, how many blocks that was, and the error that ended the
    /// stream, if any.
    fn strict_outcome(bytes: &[u8], threads: usize) -> (Vec<Record>, usize, Option<String>) {
        let stream = RecordStream::spawn_with(
            std::io::Cursor::new(bytes.to_vec()),
            DecodeOpts::with_threads(threads),
        )
        .unwrap();
        let (mut records, mut ok, mut err) = (Vec::new(), 0, None);
        for item in stream {
            assert!(err.is_none(), "an item after the error");
            match item {
                Ok(block) => {
                    records.extend(block);
                    ok += 1;
                }
                Err(e) => err = Some(e.to_string()),
            }
        }
        (records, ok, err)
    }

    fn salvage_parallel(bytes: Vec<u8>, threads: usize) -> (Vec<Record>, SalvageReport) {
        let (stream, handle) = RecordStream::spawn_salvage_with(
            std::io::Cursor::new(bytes),
            DecodeOpts::with_threads(threads),
        )
        .unwrap();
        let mut out = Vec::new();
        for block in stream {
            out.extend(block.expect("salvage streams never yield Err"));
        }
        (out, handle.report())
    }

    /// Every field of two reports agrees (`SalvageReport` has no
    /// `PartialEq`; its `Debug` form lists every field).
    #[track_caller]
    fn assert_reports_match(want: &SalvageReport, got: &SalvageReport, context: &str) {
        assert_eq!(format!("{want:?}"), format!("{got:?}"), "{context}");
    }

    /// Strict decode pinned by value: for every damage case, the number of
    /// `Ok` blocks and the error string that ends the stream, at 1, 2 and
    /// 4 decode threads and through the synchronous [`crate::RecordBlocks`].
    #[test]
    fn parallel_strict_errors_match_sequential() {
        const EXPECTED: [(&str, usize, Option<&str>); 11] = [
            ("clean", 150, None),
            (
                "torn_header",
                0,
                Some("corrupt log: truncated block header: 7 of 24 bytes"),
            ),
            (
                "torn_payload",
                0,
                Some("corrupt log: truncated block: 10 of 262 payload bytes"),
            ),
            (
                "torn_half",
                74,
                Some("corrupt log: truncated block: 217 of 258 payload bytes"),
            ),
            (
                "sync_payload_flip",
                0,
                Some("corrupt log: block payload checksum mismatch"),
            ),
            (
                "mem_payload_flip",
                0,
                Some("corrupt log: block payload checksum mismatch"),
            ),
            (
                "bad_frame",
                0,
                Some("corrupt log: block header checksum mismatch"),
            ),
            (
                "trailing",
                150,
                Some("corrupt log: trailing bytes after footer"),
            ),
            (
                "footer_count",
                150,
                Some("corrupt log: footer record count mismatch: footer says 3001, decoded 3000"),
            ),
            ("unsealed_eof", 150, None),
            (
                "mem_torn_payload",
                1,
                Some("corrupt log: truncated block: 10 of 260 payload bytes"),
            ),
        ];
        let cases = damage_cases();
        assert_eq!(cases.len(), EXPECTED.len());
        for ((name, bytes), (want_name, want_ok, want_err)) in cases.iter().zip(EXPECTED) {
            assert_eq!(*name, want_name);
            let want_err = want_err.map(str::to_owned);
            let mut first = None;
            for threads in [1, 2, 4] {
                let (records, ok, err) = strict_outcome(bytes, threads);
                assert_eq!((ok, &err), (want_ok, &want_err), "{name} threads {threads}");
                assert_eq!(
                    records,
                    *first.get_or_insert_with(|| records.clone()),
                    "{name}"
                );
            }
            let blocks: Vec<_> = crate::RecordBlocks::open(&bytes[..]).unwrap().collect();
            let ok = blocks.iter().take_while(|b| b.is_ok()).count();
            let err = blocks
                .iter()
                .find_map(|b| b.as_ref().err().map(|e| e.to_string()));
            assert_eq!((ok, err), (want_ok, want_err), "{name} RecordBlocks");
        }
    }

    /// Salvage pinned by value: every [`SalvageReport`] field for every
    /// damage case, at 1, 2 and 4 decode threads and through
    /// [`read_log_salvage`].
    #[test]
    fn parallel_salvage_matches_sequential() {
        /// `(name, [blocks_decoded, blocks_skipped, records_salvaged,
        /// records_dropped_known, bytes_dropped], suffix_dropped,
        /// sync_tainted, seal, first_error)`.
        type Row = (
            &'static str,
            [u64; 5],
            bool,
            bool,
            SealState,
            Option<&'static str>,
        );
        const CHECKSUM: &str = "corrupt log: block payload checksum mismatch";
        const EXPECTED: [Row; 11] = [
            (
                "clean",
                [150, 0, 3000, 0, 0],
                false,
                false,
                SealState::Sealed,
                None,
            ),
            (
                "torn_header",
                [0, 0, 0, 0, 7],
                false,
                false,
                SealState::Unsealed,
                Some("truncated block header: 7 of 24 bytes"),
            ),
            (
                "torn_payload",
                [0, 1, 0, 20, 34],
                false,
                true,
                SealState::Unsealed,
                Some("truncated block: 10 of 262 payload bytes"),
            ),
            (
                "torn_half",
                [74, 1, 1486, 19, 241],
                false,
                true,
                SealState::Unsealed,
                Some("truncated block: 217 of 258 payload bytes"),
            ),
            (
                "sync_payload_flip",
                [0, 1, 0, 20, 42850],
                true,
                true,
                SealState::Unknown,
                Some(CHECKSUM),
            ),
            (
                "mem_payload_flip",
                [128, 1, 2552, 19, 282],
                false,
                false,
                SealState::Sealed,
                Some(CHECKSUM),
            ),
            (
                "bad_frame",
                [0, 0, 0, 0, 42850],
                true,
                true,
                SealState::Unknown,
                Some("corrupt log: block header checksum mismatch"),
            ),
            (
                "trailing",
                [150, 0, 3000, 0, 3],
                false,
                false,
                SealState::Sealed,
                Some("3 trailing bytes after footer"),
            ),
            (
                "footer_count",
                [150, 0, 3000, 0, 0],
                false,
                false,
                SealState::Sealed,
                Some("footer totals mismatch: footer says 3001 records, decoded 3000"),
            ),
            (
                "unsealed_eof",
                [150, 0, 3000, 0, 0],
                false,
                false,
                SealState::Unsealed,
                None,
            ),
            (
                "mem_torn_payload",
                [1, 1, 19, 20, 34],
                false,
                false,
                SealState::Unsealed,
                Some("truncated block: 10 of 260 payload bytes"),
            ),
        ];
        let cases = damage_cases();
        assert_eq!(cases.len(), EXPECTED.len());
        for ((name, bytes), row) in cases.into_iter().zip(EXPECTED) {
            let (
                want_name,
                [decoded, skipped, salvaged, dropped_known, bytes_dropped],
                suffix,
                tainted,
                seal,
                error,
            ) = row;
            assert_eq!(name, want_name);
            let want = SalvageReport {
                format: Some(LogFormat::V2),
                blocks_decoded: decoded,
                blocks_skipped: skipped,
                records_salvaged: salvaged,
                records_dropped_known: dropped_known,
                bytes_dropped,
                suffix_dropped: suffix,
                sync_tainted: tainted,
                seal,
                first_error: error.map(str::to_owned),
            };
            let (seq_log, seq_report) = read_log_salvage(&bytes[..]);
            assert_reports_match(&want, &seq_report, name);
            assert_eq!(seq_log.len() as u64, salvaged, "{name}");
            for threads in [1, 2, 4] {
                let (records, report) = salvage_parallel(bytes.clone(), threads);
                let context = format!("{name} threads {threads}");
                assert_eq!(seq_log.records(), &records[..], "{context}");
                assert_reports_match(&want, &report, &context);
            }
        }
    }

    #[test]
    fn parallel_salvage_dead_header_matches_sequential() {
        let mut bytes = encode_v2(&mixed_records(10)).to_vec();
        bytes[4] = 9; // unsupported revision
        let (_, seq_report) = read_log_salvage(&bytes[..]);
        let (par, par_report) = salvage_parallel(bytes, 4);
        assert!(par.is_empty());
        assert_reports_match(&seq_report, &par_report, "dead header");
    }

    #[test]
    fn dropping_parallel_stream_midway_does_not_hang() {
        let records = mixed_records(50_000);
        let bytes = multi_block(&records, crate::v2::V2_REV_GV);
        let mut stream = RecordStream::spawn_with(
            std::io::Cursor::new(bytes),
            DecodeOpts::with_threads(4).depth(1),
        )
        .unwrap();
        let first = stream.next().unwrap().unwrap();
        assert!(!first.is_empty());
        drop(stream); // must stop the scanner, workers and consumer
    }

    #[test]
    fn seal_state_tracks_the_footer() {
        let records = mixed_records(2000);
        let sealed = multi_block(&records, crate::v2::V2_REV_GV);
        let mut torn = sealed.clone();
        torn.truncate(sealed.len() - FRAME_BYTES - 3); // cut footer + tail
        let unsealed = sealed[..sealed.len() - FRAME_BYTES].to_vec();
        for (bytes, expect_err, expect_seal) in [
            (sealed, false, SealState::Sealed),
            (unsealed, false, SealState::Unsealed),
            (torn, true, SealState::Unknown), // strict error: no verdict
        ] {
            for threads in [1, 4] {
                let mut stream = RecordStream::spawn_with(
                    std::io::Cursor::new(bytes.clone()),
                    DecodeOpts::with_threads(threads).depth(1),
                )
                .unwrap();
                assert_eq!(stream.seal_state(), SealState::Unknown);
                let saw_err = stream.by_ref().any(|b| b.is_err());
                assert_eq!(saw_err, expect_err);
                assert!(stream.next().is_none());
                assert_eq!(stream.seal_state(), expect_seal, "threads {threads}");
            }
        }
    }

    #[test]
    fn old_revision_decodes_through_the_pool() {
        let records = mixed_records(2000);
        let bytes = encode_v2_rev(&records, V2_REV_DELTA).to_vec();
        let decoded = collect_parallel(bytes, 4).unwrap();
        assert_eq!(decoded, records);
    }
}
