//! Pins the interleaving every scheduler produces on every bundled
//! workload, with literal values.
//!
//! Each case runs one workload at smoke scale, seed 1, under one of the
//! four schedulers and checks the step count and a 64-bit FNV-1a digest of
//! the observer event stream against constants. A change to the
//! interpreter's step loop or to a scheduler that alters which thread runs
//! at any step — or what it emits — changes a digest, so optimisations of
//! the runnable-set bookkeeping are checked to be bit-for-bit neutral.

use literace::prelude::*;
use literace::sim::{
    lower, ChunkedRandomScheduler, Event, Machine, MachineConfig, Observer, PctScheduler,
    RandomScheduler, RoundRobinScheduler, Scheduler,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a fixed little-endian encoding of each event: a tag word
/// followed by the event's fields as words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn words(&mut self, ws: &[u64]) {
        for &w in ws {
            self.word(w);
        }
    }
}

impl Observer for Digest {
    fn on_event(&mut self, e: &Event) {
        let t = e.tid().index() as u64;
        match *e {
            Event::ThreadStart { parent, func, .. } => self.words(&[
                0,
                t,
                parent.map_or(u64::MAX, |p| p.index() as u64),
                func.index() as u64,
            ]),
            Event::ThreadExit { .. } => self.words(&[1, t]),
            Event::FunctionEntry { func, .. } => self.words(&[2, t, func.index() as u64]),
            Event::FunctionExit { func, .. } => self.words(&[3, t, func.index() as u64]),
            Event::LoopIter { func, head, .. } => {
                self.words(&[4, t, func.index() as u64, head.0])
            }
            Event::MemRead { pc, addr, .. } => self.words(&[5, t, pc.0, addr.raw()]),
            Event::MemWrite { pc, addr, .. } => self.words(&[6, t, pc.0, addr.raw()]),
            Event::Sync { pc, kind, var, .. } => self.words(&[7, t, pc.0, kind as u64, var.0]),
            Event::Alloc { pc, base, words, .. } => self.words(&[8, t, pc.0, base.raw(), words]),
            Event::Free { pc, base, words, .. } => self.words(&[9, t, pc.0, base.raw(), words]),
        }
    }
}

/// Runs `id` at smoke scale under `sched`; returns `(steps, digest)`.
fn pin<S: Scheduler>(id: WorkloadId, mut sched: S) -> (u64, u64) {
    let w = build(id, Scale::Smoke);
    let compiled = lower(&w.program);
    let mut digest = Digest(FNV_OFFSET);
    let summary = Machine::new(&compiled, MachineConfig::default())
        .run(&mut sched, &mut digest)
        .unwrap_or_else(|e| panic!("{id}: {e}"));
    (summary.steps, digest.0)
}

/// Checks every workload against its `(steps, digest)` row, reporting all
/// mismatches at once so a deliberate re-pin can copy them in one go.
fn check<S: Scheduler>(name: &str, make: impl Fn() -> S, expected: &[(WorkloadId, u64, u64)]) {
    assert_eq!(expected.len(), WorkloadId::all().len(), "{name}: one row per workload");
    let mut mismatches = Vec::new();
    for (&(id, steps, digest), want) in expected.iter().zip(WorkloadId::all()) {
        assert_eq!(id, want, "{name}: rows follow WorkloadId::all()");
        let got = pin(id, make());
        if got != (steps, digest) {
            mismatches.push(format!(
                "(WorkloadId::{id:?}, {}, {:#018x}),",
                got.0, got.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{name}: interleaving changed; actual rows:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn random_scheduler_interleavings_are_pinned() {
    check(
        "RandomScheduler",
        || RandomScheduler::seeded(1),
        &[
            (WorkloadId::DryadStdlib, 152312, 0x076654f04a7693da),
            (WorkloadId::Dryad, 87385, 0x41c53f6f9e8141f7),
            (WorkloadId::ConcrtMessaging, 56937, 0xa7737101945fc6b1),
            (WorkloadId::ConcrtScheduling, 170847, 0xd6aae64677a7ef74),
            (WorkloadId::Apache1, 76684, 0x8a1640c22025e778),
            (WorkloadId::Apache2, 98032, 0x12218cd9241d98d9),
            (WorkloadId::FirefoxStart, 123416, 0x283598fad45ea824),
            (WorkloadId::FirefoxRender, 117737, 0xfa7dcf72c7e5ab42),
            (WorkloadId::LkrHash, 41219, 0xcb53af3ce05f1ad9),
            (WorkloadId::LfList, 53654, 0xfbf9398bf38896fd),
        ],
    );
}

#[test]
fn round_robin_scheduler_interleavings_are_pinned() {
    check(
        "RoundRobinScheduler",
        || RoundRobinScheduler::new(64),
        &[
            (WorkloadId::DryadStdlib, 152084, 0x44901be0b8f08b5e),
            (WorkloadId::Dryad, 86619, 0xf4245f15297129af),
            (WorkloadId::ConcrtMessaging, 56882, 0x445efce4e028eaf1),
            (WorkloadId::ConcrtScheduling, 157923, 0xb34d9c3f603dc7d4),
            (WorkloadId::Apache1, 76287, 0x70f936dae4011ed4),
            (WorkloadId::Apache2, 97305, 0xbc86fa505d16d4a9),
            (WorkloadId::FirefoxStart, 123319, 0xd65e28dc09f72ec4),
            (WorkloadId::FirefoxRender, 117679, 0x7b4081688f5c4e4e),
            (WorkloadId::LkrHash, 41218, 0xde0bbe3d2ca50e99),
            (WorkloadId::LfList, 53654, 0xefbda515eec1dbad),
        ],
    );
}

#[test]
fn chunked_random_scheduler_interleavings_are_pinned() {
    check(
        "ChunkedRandomScheduler",
        || ChunkedRandomScheduler::seeded(1, 64),
        &[
            (WorkloadId::DryadStdlib, 152069, 0x7ecf59d1d6965f06),
            (WorkloadId::Dryad, 86710, 0xac610077dbe8a453),
            (WorkloadId::ConcrtMessaging, 56830, 0x1fced23d57d75f1d),
            (WorkloadId::ConcrtScheduling, 151508, 0xe29e6005c32df8e4),
            (WorkloadId::Apache1, 76385, 0xedeff641af4d5f08),
            (WorkloadId::Apache2, 97497, 0x0e34ec3004a48979),
            (WorkloadId::FirefoxStart, 123298, 0x03058c0407fcb70c),
            (WorkloadId::FirefoxRender, 117667, 0xfaab49f1337767e6),
            (WorkloadId::LkrHash, 41273, 0xa9b32a41428d4099),
            (WorkloadId::LfList, 53654, 0x7e2c458f86660a3d),
        ],
    );
}

#[test]
fn pct_scheduler_interleavings_are_pinned() {
    check(
        "PctScheduler",
        || PctScheduler::seeded(1, 3, 10_000),
        &[
            (WorkloadId::DryadStdlib, 151786, 0x8dda602f29dd4652),
            (WorkloadId::Dryad, 86340, 0x6c2d29ba1b03a0a3),
            (WorkloadId::ConcrtMessaging, 55928, 0xce971532fc619c21),
            (WorkloadId::ConcrtScheduling, 146786, 0x9a952a5e0206c9dc),
            (WorkloadId::Apache1, 76212, 0x5ce70a87d0925968),
            (WorkloadId::Apache2, 97151, 0x78e6dfd1b7d29751),
            (WorkloadId::FirefoxStart, 123286, 0xc1f5bcd2623a0078),
            (WorkloadId::FirefoxRender, 117656, 0x5a325590f4beee26),
            (WorkloadId::LkrHash, 41234, 0xec623ae413e2be05),
            (WorkloadId::LfList, 53655, 0x9948c51c3dff71fd),
        ],
    );
}
