//! Byte-identity of the adaptive epoch frontier against the seed
//! vector-clock detector.
//!
//! The production frontier stores most locations as two inline epochs and
//! escalates to a full access antichain only under genuine concurrency
//! (see `crates/detector/src/frontier.rs`). That representation is an
//! optimization, not a semantic change: this suite pins it against a
//! self-contained replica of the *seed* algorithm — per-location
//! `Vec<Access>` antichains, no epochs, no memo — and requires the whole
//! [`RaceReport`] to match, field for field, for the in-memory log and for
//! the same records streamed in blocks, over random racy programs and
//! every bundled workload.

use literace::detector::{detect, detect_stream, HbConfig};
use literace::instrument::{InstrumentConfig, Instrumenter};
use literace::log::EventLog;
use literace::prelude::*;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig, Program};
use literace::workloads::synthetic::{racy, SyntheticConfig};
use proptest::prelude::*;

/// A verbatim replica of the pre-epoch detector: the exact algorithm the
/// production `HbCore`/`HbDetector` ran before the adaptive epoch
/// representation landed. Deliberately simple (std collections, cloned
/// clocks) — its only job is to be obviously the old semantics.
mod seed_reference {
    use std::collections::{HashMap, HashSet};

    use literace::detector::{RaceReport, StaticRace, VectorClock};
    use literace::log::{EventLog, Record};
    use literace::sim::{Addr, Pc, SyncOpKind, SyncVar, ThreadId};

    #[derive(Debug, Clone, Copy)]
    struct Access {
        tid: ThreadId,
        epoch: u64,
        pc: Pc,
    }

    #[derive(Debug, Default)]
    struct LocState {
        reads: Vec<Access>,
        writes: Vec<Access>,
    }

    fn cap(v: &mut Vec<Access>, max: usize) {
        if v.len() > max {
            let excess = v.len() - max;
            v.drain(0..excess);
        }
    }

    #[derive(Debug)]
    struct PairAgg {
        stored: u64,
        overflow: u64,
        example_addr: Addr,
        addrs: HashSet<Addr>,
    }

    /// Records between automatic compactions — must equal the production
    /// detector's `COMPACT_INTERVAL` for identical compaction points.
    const COMPACT_INTERVAL: u64 = 1 << 18;
    const MAX_HISTORY: usize = 128;
    const MAX_DYNAMIC_PER_PAIR: u64 = 1 << 20;

    #[derive(Debug, Default)]
    pub struct SeedDetector {
        threads: Vec<VectorClock>,
        retired: Vec<bool>,
        syncvars: HashMap<SyncVar, VectorClock>,
        locations: HashMap<u64, LocState>,
        pairs: HashMap<(Pc, Pc), PairAgg>,
        records_since_compact: u64,
    }

    impl SeedDetector {
        fn ensure_thread(&mut self, tid: ThreadId) -> usize {
            let i = tid.index();
            if i >= self.threads.len() {
                for j in self.threads.len()..=i {
                    let mut c = VectorClock::new();
                    c.set(ThreadId::from_index(j), 1);
                    self.threads.push(c);
                }
            }
            i
        }

        fn sync(&mut self, tid: ThreadId, kind: SyncOpKind, var: SyncVar) {
            if kind == SyncOpKind::Fork {
                let child = ThreadId::from_index(var.0 as usize);
                self.ensure_thread(child);
            }
            let i = self.ensure_thread(tid);
            if kind.is_acquire() {
                if let Some(l) = self.syncvars.get(&var) {
                    let l = l.clone();
                    self.threads[i].join(&l);
                }
            }
            if kind.is_release() {
                let c = self.threads[i].clone();
                self.syncvars.entry(var).or_default().join(&c);
                self.threads[i].increment(tid);
            }
        }

        fn access(&mut self, tid: ThreadId, pc: Pc, addr: Addr, is_write: bool) {
            let i = self.ensure_thread(tid);
            let clock = self.threads[i].clone();
            let current = Access {
                tid,
                epoch: clock.get(tid),
                pc,
            };
            let mut conflicts: Vec<Access> = Vec::new();
            let loc = self.locations.entry(addr.raw()).or_default();
            if is_write {
                loc.writes.retain(|w| {
                    let keep = clock.get(w.tid) < w.epoch;
                    if keep && w.tid != tid {
                        conflicts.push(*w);
                    }
                    keep
                });
                loc.reads.retain(|r| {
                    let keep = clock.get(r.tid) < r.epoch;
                    if keep && r.tid != tid {
                        conflicts.push(*r);
                    }
                    keep
                });
                loc.writes.push(current);
                cap(&mut loc.writes, MAX_HISTORY);
            } else {
                // A read never evicts writes; it only scans for conflicts.
                for w in &loc.writes {
                    if w.tid != tid && clock.get(w.tid) < w.epoch {
                        conflicts.push(*w);
                    }
                }
                loc.reads.retain(|r| clock.get(r.tid) < r.epoch);
                loc.reads.push(current);
                cap(&mut loc.reads, MAX_HISTORY);
            }
            for prior in conflicts {
                let key = if prior.pc <= pc {
                    (prior.pc, pc)
                } else {
                    (pc, prior.pc)
                };
                let agg = self.pairs.entry(key).or_insert_with(|| PairAgg {
                    stored: 0,
                    overflow: 0,
                    example_addr: addr,
                    addrs: HashSet::new(),
                });
                if agg.stored < MAX_DYNAMIC_PER_PAIR {
                    agg.stored += 1;
                    agg.addrs.insert(addr);
                } else {
                    agg.overflow += 1;
                }
            }
        }

        fn compact(&mut self) {
            let live: Vec<&VectorClock> = self
                .threads
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.retired.get(*i).copied().unwrap_or(false))
                .map(|(_, c)| c)
                .collect();
            let covered =
                |a: &Access| -> bool { live.iter().all(|c| c.get(a.tid) >= a.epoch) };
            self.locations.retain(|_, loc| {
                loc.reads.retain(|r| !covered(r));
                loc.writes.retain(|w| !covered(w));
                !(loc.reads.is_empty() && loc.writes.is_empty())
            });
        }

        pub fn process(&mut self, record: &Record) {
            match *record {
                Record::Sync { tid, kind, var, .. } => self.sync(tid, kind, var),
                Record::Mem {
                    tid,
                    pc,
                    addr,
                    is_write,
                    ..
                } => self.access(tid, pc, addr, is_write),
                Record::ThreadBegin { .. } => {}
                Record::ThreadEnd { tid } => {
                    let i = tid.index();
                    if i >= self.retired.len() {
                        self.retired.resize(i + 1, false);
                    }
                    self.retired[i] = true;
                    self.records_since_compact = 0;
                    self.compact();
                }
            }
            self.records_since_compact += 1;
            if self.records_since_compact >= COMPACT_INTERVAL {
                self.records_since_compact = 0;
                self.compact();
            }
        }

        pub fn finish(self, non_stack_accesses: u64) -> RaceReport {
            let mut dynamic_races = 0;
            let mut static_races: Vec<StaticRace> = self
                .pairs
                .into_iter()
                .filter(|(_, agg)| agg.stored > 0)
                .map(|(pcs, agg)| {
                    let count = agg.stored + agg.overflow;
                    dynamic_races += count;
                    StaticRace {
                        pcs,
                        count,
                        example_addr: agg.example_addr,
                        distinct_addrs: agg.addrs.len() as u64,
                    }
                })
                .collect();
            static_races.sort_by(|a, b| b.count.cmp(&a.count).then(a.pcs.cmp(&b.pcs)));
            RaceReport {
                static_races,
                dynamic_races,
                non_stack_accesses,
            }
        }
    }

    /// One-shot reference detection.
    pub fn detect_seed(log: &EventLog, non_stack_accesses: u64) -> RaceReport {
        let mut d = SeedDetector::default();
        for r in log {
            d.process(r);
        }
        d.finish(non_stack_accesses)
    }
}

/// Runs `program` once under full logging, returning the log and the
/// non-stack access count.
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

/// Asserts every production detection path reproduces the seed reference
/// byte for byte.
fn assert_all_paths_match_seed(log: &EventLog, non_stack: u64, context: &str) {
    let expected = seed_reference::detect_seed(log, non_stack);
    let sequential = detect(log, non_stack);
    assert_eq!(expected, sequential, "{context}: sequential diverged");
    let blocks = log.records().chunks(4096).map(|c| Ok(c.to_vec()));
    let streamed = detect_stream(blocks, non_stack, &HbConfig::default())
        .expect("in-memory blocks decode");
    assert_eq!(expected, streamed, "{context}: streaming diverged");
}

#[test]
fn every_bundled_workload_matches_the_seed_detector_on_every_path() {
    for id in WorkloadId::all() {
        let w = build(id, Scale::Smoke);
        let (log, non_stack) = full_log(&w.program, 7);
        assert_all_paths_match_seed(&log, non_stack, id.name());
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

    /// Random racy programs: the epoch engine (on every path) reproduces
    /// the seed vector-clock detector's report exactly.
    #[test]
    fn random_racy_programs_match_the_seed_detector(cfg in arb_config()) {
        let (program, _) = racy(cfg);
        let (log, non_stack) = full_log(&program, cfg.seed);
        assert_all_paths_match_seed(&log, non_stack, &format!("{cfg:?}"));
    }
}
