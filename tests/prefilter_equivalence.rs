//! Soundness of the static ordering prefilter, pinned as byte-identity.
//!
//! The prefilter's contract: an access site it skips is *provably ordered*
//! — stack-private, consistently lock-protected, or confined to the
//! single-threaded startup/shutdown phases — so dropping its records can
//! neither create a race (the skipped access conflicts with nothing
//! concurrent) nor hide one (lock-dominated locations are removed whole,
//! and stack/phase accesses are happens-before-covered at every use).
//! Under `Always` sampling that contract has a sharp observable form: the
//! [`RaceReport`] with the prefilter installed must equal the report
//! without it, field for field, for the in-memory log and for the same
//! records streamed in blocks, for every bundled workload and for random
//! racy programs.
//!
//! Any analysis bug that wrongly classifies a racy site shows up here as
//! a missing static race; any bookkeeping skew (timestamps, compaction
//! points) shows up as a count difference.

use literace::detector::{detect, detect_stream, HbConfig};
use literace::instrument::{InstrumentConfig, Instrumenter};
use literace::log::EventLog;
use literace::prelude::*;
use literace::sim::{
    lower, ChunkedRandomScheduler, Machine, MachineConfig, PrefilterTable, Program,
};
use literace::workloads::synthetic::{racy, SyntheticConfig};
use proptest::prelude::*;

/// Runs `program` once under full logging, with or without the prefilter
/// skip table installed, returning the log and the non-stack access count.
fn full_log(program: &Program, seed: u64, prefilter: bool) -> (EventLog, u64) {
    let compiled = lower(program);
    let cfg = InstrumentConfig {
        prefilter: prefilter.then(|| PrefilterTable::build(&compiled)),
        ..InstrumentConfig::default()
    };
    let mut inst = Instrumenter::new(SamplerKind::Always.build(seed), cfg);
    let summary = Machine::new(&compiled, MachineConfig::default())
        .run(&mut ChunkedRandomScheduler::seeded(seed, 48), &mut inst)
        .expect("program runs");
    (inst.finish().log, summary.non_stack_accesses)
}

/// Asserts the race report is identical with the prefilter on and off,
/// in memory and streamed.
fn assert_prefilter_preserves_reports(program: &Program, seed: u64, context: &str) {
    let (plain_log, non_stack) = full_log(program, seed, false);
    let (pref_log, pref_non_stack) = full_log(program, seed, true);
    // Observation never perturbs execution, so the denominators agree.
    assert_eq!(non_stack, pref_non_stack, "{context}: execution diverged");
    let expected = detect(&plain_log, non_stack);
    let sequential = detect(&pref_log, non_stack);
    assert_eq!(expected, sequential, "{context}: sequential diverged");
    let blocks = pref_log.records().chunks(4096).map(|c| Ok(c.to_vec()));
    let streamed = detect_stream(blocks, non_stack, &HbConfig::default())
        .expect("in-memory blocks decode");
    assert_eq!(expected, streamed, "{context}: streaming diverged");
}

#[test]
fn every_bundled_workload_reports_identically_with_the_prefilter() {
    let mut skipped_somewhere = false;
    for id in WorkloadId::all() {
        let w = build(id, Scale::Smoke);
        let table = PrefilterTable::build(&lower(&w.program));
        skipped_somewhere |= table.stats().skipped_sites > 0;
        assert_prefilter_preserves_reports(&w.program, 7, id.name());
    }
    // The suite is vacuous if the analysis never proves anything: at least
    // one bundled workload must have statically ordered sites.
    assert!(skipped_somewhere, "prefilter proved nothing on any workload");
}

#[test]
fn prefiltered_logs_are_strictly_smaller_where_sites_are_skipped() {
    // Not part of the soundness contract, but the point of the exercise:
    // on the lock-heavy apache workloads the skip table must actually
    // divert records, and only memory records.
    for id in [WorkloadId::Apache1, WorkloadId::Apache2] {
        let w = build(id, Scale::Smoke);
        let (plain_log, _) = full_log(&w.program, 7, false);
        let (pref_log, _) = full_log(&w.program, 7, true);
        assert!(
            pref_log.mem_count() < plain_log.mem_count(),
            "{id}: no records diverted"
        );
        assert_eq!(
            pref_log.sync_count(),
            plain_log.sync_count(),
            "{id}: sync records must never be skipped"
        );
    }
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random racy programs: installing the prefilter never changes the
    /// race report, on any detection path.
    #[test]
    fn random_racy_programs_report_identically_with_the_prefilter(cfg in arb_config()) {
        let (program, _) = racy(cfg);
        assert_prefilter_preserves_reports(&program, cfg.seed, &format!("{cfg:?}"));
    }
}
