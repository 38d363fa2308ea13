//! The traced iteration: the same five steps as
//! [`run_untraced`](crate::pipeline::run_untraced), timed from outside the
//! program by benchmark-owned adapters around the library's public seams.
//!
//! Each step is a span with a start and an end. Calls into the layers
//! below a step happen millions of times, so each adapter sums its calls'
//! durations instead of keeping one span per call:
//!
//! ```text
//! pipeline
//! ├── log.create        AtomicFile::create
//! ├── sim.run           Machine::run
//! │   └── instrument.on_event         (TimedObserver)
//! │       ├── samplers.dispatch       (TimedSampler)
//! │       └── log.push                (TimedSink)
//! │           └── log.write           (TimedWrite)
//! ├── instrument.finish Instrumenter::finish
//! │   └── log.push ── log.write
//! ├── log.seal          V2Sink::finish
//! │   └── log.write
//! ├── log.commit        AtomicFile::commit (flush, fsync, rename)
//! ├── log.open          RecordStream spawn over the file
//! ├── detector.detect   detect_stream
//! │   └── log.next                    (TimedBlocks)
//! └── core.render       render_report
//! ```
//!
//! A layer's self time is its spans minus the child spans of other layers
//! inside them; whatever no span covers is `unattributed`.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use literace::detector::detect_stream;
use literace::instrument::{Instrumenter, RecordSink, V2Sink};
use literace::log::{AtomicFile, LogResult, Record};
use literace::render::render_report;
use literace::samplers::{Dispatch, Sampler};
use literace::sim::{
    ChunkedRandomScheduler, Event, FuncId, Machine, NullObserver, Observer, ThreadId,
};

use crate::cpu::process_cpu;
use crate::pipeline::{decode_opts, log_size, ms, open_stream, Iteration, Setup};

/// Call totals shared by the adapters of one traced iteration.
#[derive(Debug, Default)]
struct Clock {
    on_event_ns: Cell<u64>,
    events: Cell<u64>,
    dispatch_ns: Cell<u64>,
    dispatch_calls: Cell<u64>,
    sampled: Cell<u64>,
    push_ns: Cell<u64>,
    write_ns: Cell<u64>,
    next_ns: Cell<u64>,
}

fn add_since(cell: &Cell<u64>, start: Instant) {
    cell.set(cell.get() + start.elapsed().as_nanos() as u64);
}

struct TimedObserver<O> {
    inner: O,
    clock: Rc<Clock>,
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn on_event(&mut self, event: &Event) {
        let start = Instant::now();
        self.inner.on_event(event);
        add_since(&self.clock.on_event_ns, start);
        self.clock.events.set(self.clock.events.get() + 1);
    }
}

struct TimedSampler {
    inner: Box<dyn Sampler>,
    clock: Rc<Clock>,
}

impl Sampler for TimedSampler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn dispatch(&mut self, tid: ThreadId, func: FuncId) -> Dispatch {
        let start = Instant::now();
        let d = self.inner.dispatch(tid, func);
        add_since(&self.clock.dispatch_ns, start);
        self.clock
            .dispatch_calls
            .set(self.clock.dispatch_calls.get() + 1);
        if d.is_sampled() {
            self.clock.sampled.set(self.clock.sampled.get() + 1);
        }
        d
    }
}

struct TimedSink<L> {
    inner: L,
    clock: Rc<Clock>,
}

impl<L: RecordSink> RecordSink for TimedSink<L> {
    fn push(&mut self, record: Record) {
        let start = Instant::now();
        self.inner.push(record);
        add_since(&self.clock.push_ns, start);
    }
}

struct TimedWrite<W> {
    inner: W,
    clock: Rc<Clock>,
}

impl<W: Write> Write for TimedWrite<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let start = Instant::now();
        let n = self.inner.write(buf);
        add_since(&self.clock.write_ns, start);
        n
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        let r = self.inner.flush();
        add_since(&self.clock.write_ns, start);
        r
    }
}

struct TimedBlocks<I> {
    inner: I,
    clock: Rc<Clock>,
}

impl<I: Iterator<Item = LogResult<Vec<Record>>>> Iterator for TimedBlocks<I> {
    type Item = LogResult<Vec<Record>>;

    fn next(&mut self) -> Option<Self::Item> {
        let start = Instant::now();
        let item = self.inner.next();
        add_since(&self.clock.next_ns, start);
        item
    }
}

/// One step span of a traced iteration, in nanoseconds from the run's
/// start.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Step name (see the module docs).
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

/// Self time per layer of one traced iteration, in milliseconds, plus the
/// counts its adapters saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// Pipeline wall time, steps 1-5.
    pub wall: f64,
    /// `Machine::run` minus time inside `on_event`.
    pub sim: f64,
    /// Sampler dispatch.
    pub samplers: f64,
    /// `on_event` and `finish` minus sampler and sink time.
    pub instrument: f64,
    /// Sink pushes and sealing minus the writes under them.
    pub encode: f64,
    /// Creating, writing and committing the file.
    pub write: f64,
    /// Opening the stream plus time the detector blocked on the next block.
    pub decode_wait: f64,
    /// `detect_stream` minus decode wait.
    pub detector: f64,
    /// `render_report`.
    pub render: f64,
    /// Pipeline wall time outside every step span.
    pub unattributed: f64,
    /// Observer events.
    pub events: u64,
    /// Sampler dispatch calls.
    pub dispatch_calls: u64,
    /// Dispatches that chose the instrumented copy.
    pub sampled: u64,
}

impl Layers {
    /// Self times by metric name, in the order of the layer table.
    pub fn self_times(&self) -> [(&'static str, f64); 8] {
        [
            ("sim.self_ms", self.sim),
            ("samplers.dispatch_ms", self.samplers),
            ("instrument.self_ms", self.instrument),
            ("log.encode_ms", self.encode),
            ("log.write_ms", self.write),
            ("log.decode_wait_ms", self.decode_wait),
            ("detector.self_ms", self.detector),
            ("core.render_ms", self.render),
        ]
    }

    /// Checks that the attribution closes: every self time and the
    /// unattributed remainder are non-negative (a negative one means a
    /// child span was subtracted from the wrong parent) and together they
    /// sum to the wall time.
    pub fn check(&self) -> Result<(), String> {
        // Spans are whole nanoseconds; allow for float rounding only.
        const EPS_MS: f64 = 1e-4;
        let times = self.self_times();
        for (name, t) in times
            .iter()
            .chain([("unattributed_ms", self.unattributed)].iter())
        {
            if *t < -EPS_MS {
                return Err(format!("{name} is negative ({t} ms)"));
            }
        }
        let sum: f64 = times.iter().map(|(_, t)| t).sum::<f64>() + self.unattributed;
        if (sum - self.wall).abs() > EPS_MS {
            return Err(format!(
                "layers and unattributed sum to {sum} ms, wall is {} ms",
                self.wall
            ));
        }
        Ok(())
    }
}

/// Telemetry counters read around a traced iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Parallel-decode worker time spent decoding.
    pub decode_busy_ns: u64,
    /// Parallel-decode worker time spent waiting.
    pub decode_idle_ns: u64,
    /// Times the decoder found its channel to the detector full.
    pub stream_stalls: u64,
    /// Locations promoted to a full access history.
    pub epoch_escalations: u64,
    /// Accesses short-circuited by the same-epoch memo.
    pub memo_hits: u64,
}

impl Counters {
    fn read() -> Counters {
        let m = literace::telemetry::metrics();
        Counters {
            decode_busy_ns: m.log_decode_worker_busy_ns.get(),
            decode_idle_ns: m.log_decode_worker_idle_ns.get(),
            stream_stalls: m.log_stream_stalls.get(),
            epoch_escalations: m.detector_epoch_escalations.get(),
            memo_hits: m.detector_epoch_memo_hits.get(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            decode_busy_ns: self.decode_busy_ns - before.decode_busy_ns,
            decode_idle_ns: self.decode_idle_ns - before.decode_idle_ns,
            stream_stalls: self.stream_stalls - before.stream_stalls,
            epoch_escalations: self.epoch_escalations - before.epoch_escalations,
            memo_hits: self.memo_hits - before.memo_hits,
        }
    }
}

/// Everything one traced iteration produced.
#[derive(Debug)]
pub struct Traced {
    /// Results and step times, as the untraced iteration reports them.
    pub iteration: Iteration,
    /// Layer self times.
    pub layers: Layers,
    /// Telemetry counter deltas.
    pub counters: Counters,
    /// Step spans, kept in memory until the run ends.
    pub spans: Vec<Span>,
}

/// Step boundaries of one traced iteration.
struct Marks {
    start: Instant,
    created: Instant,
    run_start: Instant,
    run_end: Instant,
    finished: Instant,
    seal_start: Instant,
    sealed: Instant,
    committed: Instant,
    opened: Instant,
    detected: Instant,
    rendered: Instant,
}

/// Runs the five pipeline steps once with every seam timed, and with the
/// telemetry registry on so its counters move. Span times are measured
/// from `epoch`, the run's start.
pub fn run_traced(setup: &Setup, path: &Path, epoch: Instant) -> Result<Traced, String> {
    let clock = Rc::new(Clock::default());
    literace::telemetry::set_enabled(true);
    let before = Counters::read();
    let result = traced_steps(setup, path, &clock);
    let counters = Counters::read().since(before);
    literace::telemetry::set_enabled(false);
    let (iteration, m) = result?;
    let span = |name, a: Instant, b: Instant| Span {
        name,
        start_ns: (a - epoch).as_nanos() as u64,
        end_ns: (b - epoch).as_nanos() as u64,
    };
    let spans = vec![
        span("pipeline", m.start, m.rendered),
        span("log.create", m.start, m.created),
        span("sim.run", m.run_start, m.run_end),
        span("instrument.finish", m.run_end, m.finished),
        span("log.seal", m.seal_start, m.sealed),
        span("log.commit", m.sealed, m.committed),
        span("log.open", m.committed, m.opened),
        span("detector.detect", m.opened, m.detected),
        span("core.render", m.detected, m.rendered),
    ];
    let covered: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
    let pipeline = spans[0].end_ns - spans[0].start_ns;
    let total = |cell: &Cell<u64>| cell.get() as f64 / 1e6;
    let on_event = total(&clock.on_event_ns);
    let dispatch = total(&clock.dispatch_ns);
    let push = total(&clock.push_ns);
    let write = total(&clock.write_ns);
    let next = total(&clock.next_ns);
    // Pushes happen inside on_event and inside finish; writes happen inside
    // pushes and inside sealing.
    let layers = Layers {
        wall: ms(m.rendered - m.start),
        sim: ms(m.run_end - m.run_start) - on_event,
        samplers: dispatch,
        instrument: on_event + ms(m.finished - m.run_end) - dispatch - push,
        encode: push + ms(m.sealed - m.seal_start) - write,
        write: ms(m.created - m.start) + write + ms(m.committed - m.sealed),
        decode_wait: ms(m.opened - m.committed) + next,
        detector: ms(m.detected - m.opened) - next,
        render: ms(m.rendered - m.detected),
        unattributed: (pipeline as f64 - covered as f64) / 1e6,
        events: clock.events.get(),
        dispatch_calls: clock.dispatch_calls.get(),
        sampled: clock.sampled.get(),
    };
    Ok(Traced {
        iteration,
        layers,
        counters,
        spans,
    })
}

fn traced_steps(
    setup: &Setup,
    path: &Path,
    clock: &Rc<Clock>,
) -> Result<(Iteration, Marks), String> {
    let icfg = setup.icfg.clone();
    let base = crate::alloc::reset_peak();
    let cpu_start = process_cpu();
    let start = Instant::now();
    let file = AtomicFile::create(path).map_err(|e| format!("create log: {e}"))?;
    let created = Instant::now();
    let sampler = TimedSampler {
        inner: setup.sampler.build(setup.cfg.seed),
        clock: Rc::clone(clock),
    };
    let sink = TimedSink {
        inner: V2Sink::new(TimedWrite {
            inner: file,
            clock: Rc::clone(clock),
        }),
        clock: Rc::clone(clock),
    };
    let mut observer = TimedObserver {
        inner: Instrumenter::with_sink(sampler, icfg, sink),
        clock: Rc::clone(clock),
    };
    let mut sched = ChunkedRandomScheduler::seeded(setup.cfg.seed, setup.cfg.sched_quantum);
    let run_start = Instant::now();
    let summary = Machine::new(&setup.compiled, setup.cfg.machine)
        .run(&mut sched, &mut observer)
        .map_err(|e| format!("execute: {e}"))?;
    let run_end = Instant::now();
    let out = observer.inner.finish();
    let finished = Instant::now();
    let records = out.log.inner.records_written();
    let seal_start = Instant::now();
    let file = out
        .log
        .inner
        .finish()
        .map_err(|e| format!("seal log: {e}"))?;
    let sealed = Instant::now();
    file.inner
        .commit()
        .map_err(|e| format!("commit log: {e}"))?;
    let committed = Instant::now();
    let cpu_committed = process_cpu();
    let stream = open_stream(path, decode_opts())?;
    let opened = Instant::now();
    let blocks = TimedBlocks {
        inner: stream,
        clock: Rc::clone(clock),
    };
    let report = detect_stream(
        blocks,
        summary.non_stack_accesses,
        &setup.cfg.detect_config(),
    )
    .map_err(|e| format!("detect: {e}"))?;
    let detected = Instant::now();
    let text = render_report(&report, &setup.workload.program);
    let rendered = Instant::now();
    let cpu_rendered = process_cpu();
    let peak_heap_bytes = crate::alloc::peak().saturating_sub(base);
    let iteration = Iteration {
        pipeline_ms: ms(rendered - start),
        pipeline_cpu_ms: ms(cpu_rendered - cpu_start),
        offline_detect_cpu_ms: ms(cpu_rendered - cpu_committed),
        execute_ms: ms(run_end - run_start),
        peak_heap_bytes,
        log_bytes: log_size(path)?,
        records,
        modeled_slowdown: out.overhead.slowdown(summary.baseline_cost),
        stats: out.stats,
        non_stack: summary.non_stack_accesses,
        report,
        text,
    };
    let marks = Marks {
        start,
        created,
        run_start,
        run_end,
        finished,
        seal_start,
        sealed,
        committed,
        opened,
        detected,
        rendered,
    };
    Ok((iteration, marks))
}

/// Times one uninstrumented execution (`NullObserver`), the denominator of
/// the measured slowdown.
pub fn run_baseline(setup: &Setup) -> Result<f64, String> {
    let mut sched = ChunkedRandomScheduler::seeded(setup.cfg.seed, setup.cfg.sched_quantum);
    let start = Instant::now();
    Machine::new(&setup.compiled, setup.cfg.machine)
        .run(&mut sched, &mut NullObserver)
        .map_err(|e| format!("baseline execute: {e}"))?;
    Ok(ms(start.elapsed()))
}
