//! The detection loop: decoded record blocks in, one race report out.
//!
//! Every happens-before detection runs through one sequential loop that
//! feeds each block's records, in order, to a single [`HbDetector`] —
//! the paper's one offline pass over the log. Three entry points share
//! it:
//!
//! * [`detect`](crate::detect) — an in-memory [`EventLog`](literace_log::EventLog)
//!   as a single block (the reference of every equivalence suite);
//! * [`detect_stream`] — blocks from any source, most usefully a
//!   [`RecordStream`](literace_log::RecordStream) whose decoder is still
//!   running, so decoding overlaps detection and the log is never
//!   materialized;
//! * [`detect_stream_checkpointed`] — the same, optionally starting from a
//!   [`Checkpoint`] and sealing one every N blocks and at end of stream.
//!
//! A log that names a thread index above
//! [`MAX_THREAD_INDEX`](crate::MAX_THREAD_INDEX) is rejected with
//! [`LogError::Corrupt`](literace_log::LogError::Corrupt) when that thread
//! is first registered; the check sits on the detector's
//! thread-registration path, not on every record.

use literace_log::{LogResult, Record};

use crate::checkpoint::Checkpoint;
use crate::hb::{HbConfig, HbDetector};
use crate::report::RaceReport;

/// Where [`detect_stream_checkpointed`] hands each sealed [`Checkpoint`].
pub type CheckpointSink<'a> = dyn FnMut(&Checkpoint) -> std::io::Result<()> + 'a;

/// Detects races from a stream of record blocks, without materializing an
/// event log. The report is byte-identical to [`detect`](crate::detect)
/// over the concatenated blocks, however they are split.
///
/// # Errors
///
/// The first decode/I-O error the stream yields, or
/// [`LogError::Corrupt`](literace_log::LogError::Corrupt) for a record
/// whose thread index exceeds [`MAX_THREAD_INDEX`](crate::MAX_THREAD_INDEX).
///
/// # Examples
///
/// ```
/// use literace_detector::{detect, detect_stream, HbConfig};
/// use literace_log::{encode_v2, DecodeOpts, EventLog, RecordStream};
///
/// let log = EventLog::new();
/// let bytes = encode_v2(log.records()).to_vec();
/// let opts = DecodeOpts::sequential().depth(8);
/// let stream = RecordStream::spawn_with(std::io::Cursor::new(bytes), opts)?;
/// let report = detect_stream(stream, 0, &HbConfig::default())?;
/// assert_eq!(report, detect(&log, 0));
/// # Ok::<(), literace_log::LogError>(())
/// ```
pub fn detect_stream<I, B>(
    blocks: I,
    non_stack_accesses: u64,
    cfg: &HbConfig,
) -> LogResult<RaceReport>
where
    I: IntoIterator<Item = LogResult<B>>,
    B: AsRef<[Record]>,
{
    detect_stream_checkpointed(blocks, non_stack_accesses, cfg, None, 0, None)
}

/// [`detect_stream`] with resume and periodic checkpointing.
///
/// With `resume`, detection continues from that checkpoint's state —
/// `blocks` must carry the records *after* the checkpointed position, and
/// the happens-before tuning comes from the checkpoint rather than `cfg`.
/// The report is byte-identical to one-shot detection over the whole
/// stream.
///
/// With `on_checkpoint`, the detector's full state is sealed into a
/// [`Checkpoint`] and handed to it (typically to write it with
/// [`Checkpoint::write_to`]) every `checkpoint_every_blocks` input blocks,
/// and once more when the stream drains (unless a periodic save already
/// landed exactly at the end), so the caller always holds a checkpoint
/// covering everything processed. `checkpoint_every_blocks == 0` seals at
/// end of stream only.
///
/// # Errors
///
/// As [`detect_stream`], plus any error returned by `on_checkpoint`.
pub fn detect_stream_checkpointed<I, B>(
    blocks: I,
    non_stack_accesses: u64,
    cfg: &HbConfig,
    resume: Option<&Checkpoint>,
    checkpoint_every_blocks: u64,
    mut on_checkpoint: Option<&mut CheckpointSink<'_>>,
) -> LogResult<RaceReport>
where
    I: IntoIterator<Item = LogResult<B>>,
    B: AsRef<[Record]>,
{
    let mut detector = match resume {
        Some(cp) => HbDetector::resume(cp),
        None => HbDetector::with_config(*cfg),
    };
    let mut blocks_seen = 0u64;
    let mut sealed_at = None;
    for block in blocks {
        for record in block?.as_ref() {
            detector.process_checked(record)?;
        }
        blocks_seen += 1;
        if let Some(save) = on_checkpoint.as_mut() {
            if checkpoint_every_blocks > 0 && blocks_seen.is_multiple_of(checkpoint_every_blocks) {
                save(&detector.save_checkpoint(non_stack_accesses))?;
                sealed_at = Some(blocks_seen);
            }
        }
    }
    if let Some(save) = on_checkpoint {
        if sealed_at != Some(blocks_seen) {
            save(&detector.save_checkpoint(non_stack_accesses))?;
        }
    }
    Ok(detector.finish(non_stack_accesses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect;
    use literace_log::{
        encode_v2, DecodeOpts, EventLog, LogError, RecordBlocks, RecordStream, SamplerMask,
    };
    use literace_sim::{Addr, FuncId, Pc, SyncOpKind, SyncVar, ThreadId};

    fn t(i: usize) -> ThreadId {
        ThreadId::from_index(i)
    }
    fn pc(i: usize) -> Pc {
        Pc::new(FuncId::from_index(0), i)
    }

    fn mem(tid: ThreadId, pcv: usize, addr: u64, w: bool) -> Record {
        Record::Mem {
            tid,
            pc: pc(pcv),
            addr: Addr::global(addr),
            is_write: w,
            mask: SamplerMask::FULL,
        }
    }

    fn sync(tid: ThreadId, kind: SyncOpKind, var: u64, ts: u64) -> Record {
        Record::Sync {
            tid,
            pc: pc(99),
            kind,
            var: SyncVar(var),
            timestamp: ts,
        }
    }

    /// Races on many addresses plus lock edges and a thread retirement,
    /// so HB edges and compaction both get exercised.
    fn mixed_log() -> EventLog {
        let mut records = Vec::new();
        records.push(Record::ThreadBegin { tid: t(2) });
        for round in 0..50u64 {
            for addr in 0..16u64 {
                records.push(mem(t(0), 1 + addr as usize, addr, true));
                records.push(mem(t(1), 100 + addr as usize, addr, round % 3 == 0));
                records.push(mem(t(2), 200 + addr as usize, addr + 100, true));
            }
            records.push(sync(t(0), SyncOpKind::LockRelease, 7, 2 * round + 1));
            records.push(sync(t(1), SyncOpKind::LockAcquire, 7, 2 * round + 2));
        }
        records.push(Record::ThreadEnd { tid: t(2) });
        for addr in 0..16u64 {
            records.push(mem(t(0), 300 + addr as usize, addr + 100, true));
        }
        records.into_iter().collect()
    }

    fn blocks_of(records: &[Record], block: usize) -> Vec<LogResult<Vec<Record>>> {
        records
            .chunks(block.max(1))
            .map(|c| Ok(c.to_vec()))
            .collect()
    }

    /// A log whose second record names a thread above the ceiling: it
    /// encodes and decodes cleanly (thread ids are 32-bit on the wire).
    fn over_ceiling_log() -> EventLog {
        let over = t(crate::MAX_THREAD_INDEX + 1);
        [mem(t(0), 1, 0, true), mem(over, 2, 0, true)]
            .into_iter()
            .collect()
    }

    #[test]
    fn empty_stream_matches_sequential() {
        let report = detect_stream(Vec::<LogResult<Vec<Record>>>::new(), 5, &HbConfig::default())
            .unwrap();
        assert_eq!(report, detect(&EventLog::new(), 5));
    }

    #[test]
    fn streamed_blocks_are_byte_identical_across_block_sizes() {
        let log = mixed_log();
        let seq = detect(&log, 1000);
        assert!(seq.static_count() > 0, "log should race");
        for block in [1, 7, 64, 4096] {
            let report =
                detect_stream(blocks_of(log.records(), block), 1000, &HbConfig::default())
                    .unwrap();
            assert_eq!(report, seq, "block={block}");
        }
    }

    #[test]
    fn caps_apply_identically_to_the_one_shot_detector() {
        let log = mixed_log();
        for cap in [0, 3] {
            let hb = HbConfig {
                max_dynamic_per_pair: cap,
                ..HbConfig::default()
            };
            let mut one_shot = HbDetector::with_config(hb);
            one_shot.process_log(&log);
            let streamed = detect_stream(blocks_of(log.records(), 512), 9, &hb).unwrap();
            assert_eq!(streamed, one_shot.finish(9), "cap={cap}");
        }
    }

    #[test]
    fn consumes_a_record_stream_end_to_end() {
        let log = mixed_log();
        let bytes = encode_v2(log.records()).to_vec();
        let opts = DecodeOpts::sequential().depth(8);
        let stream = RecordStream::spawn_with(std::io::Cursor::new(bytes), opts).unwrap();
        let report = detect_stream(stream, 77, &HbConfig::default()).unwrap();
        assert_eq!(report, detect(&log, 77));
    }

    #[test]
    fn decode_error_propagates_and_joins_workers() {
        let log = mixed_log();
        let mut bytes = encode_v2(log.records()).to_vec();
        bytes.truncate(bytes.len() / 2); // mid-block truncation
        let opts = DecodeOpts::sequential().depth(8);
        let stream = RecordStream::spawn_with(std::io::Cursor::new(bytes), opts).unwrap();
        let err = detect_stream(stream, 0, &HbConfig::default()).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
    }

    #[test]
    fn thread_index_above_the_ceiling_is_a_typed_error() {
        let bytes = encode_v2(over_ceiling_log().records()).to_vec();
        let blocks = RecordBlocks::open(&bytes[..]).expect("the log decodes cleanly");
        let err = detect_stream(blocks, 0, &HbConfig::default()).unwrap_err();
        assert!(matches!(err, LogError::Corrupt { .. }), "{err:?}");
        assert!(err.to_string().contains("record 1"), "{err}");
        assert!(err.to_string().contains("ceiling"), "{err}");
        // The checkpointing driver fails the same way, before sealing.
        let mut saves = 0;
        let blocks = RecordBlocks::open(&bytes[..]).unwrap();
        let err = detect_stream_checkpointed(
            blocks,
            0,
            &HbConfig::default(),
            None,
            1,
            Some(&mut |_: &Checkpoint| {
                saves += 1;
                Ok(())
            }),
        )
        .unwrap_err();
        assert!(matches!(err, LogError::Corrupt { .. }), "{err:?}");
        assert_eq!(saves, 0);
    }

    #[test]
    fn resumed_stream_matches_one_shot_at_any_split() {
        let log = mixed_log();
        let seq = detect(&log, 1000);
        let records = log.records();
        for split in [0, 1, records.len() / 2, records.len()] {
            let mut first = HbDetector::new();
            for r in &records[..split] {
                first.process(r);
            }
            let cp = first.save_checkpoint(1000);
            let report = detect_stream_checkpointed(
                blocks_of(&records[split..], 64),
                1000,
                &HbConfig::default(),
                Some(&cp),
                0,
                None,
            )
            .unwrap();
            assert_eq!(report, seq, "split={split}");
        }
    }

    #[test]
    fn checkpointed_driver_emits_resumable_checkpoints() {
        let log = mixed_log();
        let seq = detect(&log, 1000);
        let mut saved: Vec<Checkpoint> = Vec::new();
        let report = detect_stream_checkpointed(
            blocks_of(log.records(), 100),
            1000,
            &HbConfig::default(),
            None,
            2,
            Some(&mut |cp: &Checkpoint| {
                saved.push(cp.clone());
                Ok(())
            }),
        )
        .unwrap();
        assert_eq!(report, seq, "checkpointing must not perturb detection");
        assert!(saved.len() >= 2, "every-2-blocks must have fired");
        // Every emitted checkpoint resumes to the one-shot report, also
        // after a round-trip through bytes (the CLI path).
        for cp in &saved {
            let rest = &log.records()[cp.records_processed() as usize..];
            let back = Checkpoint::from_bytes(&cp.to_bytes()).unwrap();
            for cp in [cp, &back] {
                let resumed = detect_stream_checkpointed(
                    blocks_of(rest, 64),
                    1000,
                    &HbConfig::default(),
                    Some(cp),
                    0,
                    None,
                )
                .unwrap();
                assert_eq!(resumed, seq);
            }
        }
    }

    #[test]
    fn checkpoint_callback_errors_propagate() {
        let log = mixed_log();
        let err = detect_stream_checkpointed(
            blocks_of(log.records(), 10),
            0,
            &HbConfig::default(),
            None,
            1,
            Some(&mut |_: &Checkpoint| Err(std::io::Error::other("disk full"))),
        )
        .unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
    }
}
