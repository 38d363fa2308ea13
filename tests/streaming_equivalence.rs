//! Streaming-ingest equivalence: `detect_stream` must be *byte-identical*
//! to the in-memory detector — same static races in the same order, same
//! dynamic counts, same overflow accounting — whichever way the blocks
//! arrive: in-memory chunks, the synchronous block reader over either
//! encoding, or the decoder-thread `RecordStream`.
//!
//! This is the contract that lets `literace detect` always stream: the
//! detector consumes records in log order, so block boundaries can never
//! change what it sees.

use literace::detector::{detect, detect_stream, HbConfig, RaceReport};
use literace::instrument::{InstrumentConfig, Instrumenter};
use literace::log::{
    encode_v2, log_to_bytes, DecodeOpts, EventLog, RecordBlocks, RecordStream,
    DEFAULT_STREAM_DEPTH,
};
use literace::prelude::*;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig, Program};
use literace::workloads::synthetic::{race_free, racy, SyntheticConfig};
use proptest::prelude::*;

/// Runs `program` once under full logging and returns the event log plus
/// the non-stack access count the detector needs for rarity splits.
fn full_log(program: &Program, seed: u64) -> (EventLog, u64) {
    let compiled = lower(program);
    let mut inst = Instrumenter::new(
        SamplerKind::Always.build(seed),
        InstrumentConfig::default(),
    );
    let summary = Machine::new(&compiled, MachineConfig::default())
        .run(&mut ChunkedRandomScheduler::seeded(seed, 48), &mut inst)
        .expect("program runs");
    (inst.finish().log, summary.non_stack_accesses)
}

/// Asserts streaming detection agrees exactly with the in-memory
/// detector, feeding the stream three ways.
fn assert_stream_identical(log: &EventLog, non_stack: u64, context: &str) {
    let sequential = detect(log, non_stack);
    let cfg = HbConfig::default();
    let v1 = log_to_bytes(log);
    let v2 = encode_v2(log);
    // In-memory chunks, no codec involved.
    let chunked: RaceReport = detect_stream(
        log.records().chunks(100).map(|c| Ok(c.to_vec())),
        non_stack,
        &cfg,
    )
    .expect("in-memory blocks decode");
    assert_eq!(
        sequential, chunked,
        "{context}: stream(chunks) diverged from sequential"
    );
    // Synchronous block reader over both encodings.
    for (name, bytes) in [("v1", &v1), ("v2", &v2)] {
        let blocks = RecordBlocks::open(&bytes[..]).expect("encoded log opens");
        let report = detect_stream(blocks, non_stack, &cfg).expect("encoded log decodes");
        assert_eq!(sequential, report, "{context}: stream({name} blocks) diverged");
    }
    // Decoder thread feeding the detector.
    let stream = RecordStream::spawn_with(
        std::io::Cursor::new(v2.to_vec()),
        DecodeOpts::sequential().depth(DEFAULT_STREAM_DEPTH),
    )
        .expect("stream opens");
    let report = detect_stream(stream, non_stack, &cfg).expect("stream decodes");
    assert_eq!(sequential, report, "{context}: stream(RecordStream) diverged");
    assert_eq!(
        format!("{sequential:?}"),
        format!("{report:?}"),
        "{context}: stream renders differently"
    );
}

fn arb_config() -> impl Strategy<Value = SyntheticConfig> {
    (2u32..6, 2u32..6, 5u32..20, 3u32..8, any::<u64>()).prop_map(
        |(threads, globals, iterations, actions, seed)| SyntheticConfig {
            threads,
            globals,
            iterations,
            actions_per_iteration: actions,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random racy programs: streaming == in-memory over every ingest
    /// path.
    #[test]
    fn streaming_matches_sequential_on_racy_programs(cfg in arb_config()) {
        let (program, _) = racy(cfg);
        let (log, non_stack) = full_log(&program, cfg.seed);
        assert_stream_identical(&log, non_stack, &format!("racy {cfg:?}"));
    }

    /// Random race-free programs: all variants agree the log is clean.
    #[test]
    fn streaming_matches_sequential_on_race_free_programs(cfg in arb_config()) {
        let program = race_free(cfg);
        let (log, non_stack) = full_log(&program, cfg.seed);
        let sequential = detect(&log, non_stack);
        prop_assert_eq!(sequential.static_count(), 0, "race_free must be clean");
        assert_stream_identical(&log, non_stack, &format!("race_free {cfg:?}"));
    }
}

/// Every benchmark workload (Table 2), smoke scale: the acceptance
/// criterion for the streaming pipeline.
#[test]
fn streaming_is_byte_identical_on_every_workload() {
    for id in WorkloadId::all() {
        let w = build(id, Scale::Smoke);
        let (log, non_stack) = full_log(&w.program, 1);
        assert_stream_identical(&log, non_stack, &format!("workload {id}"));
    }
}

/// A decode error mid-stream surfaces as `Err`; no partial report and no
/// hang.
#[test]
fn stream_decode_errors_propagate() {
    let w = build(WorkloadId::LfList, Scale::Smoke);
    let (log, non_stack) = full_log(&w.program, 1);
    let mut bytes = encode_v2(&log).to_vec();
    bytes.pop(); // the final block's payload now falls short of its header
    let blocks = RecordBlocks::open(&bytes[..]).expect("header is intact");
    let err = detect_stream(blocks, non_stack, &HbConfig::default());
    assert!(err.is_err(), "corrupted tail block must fail detection");
}
