//! The measured path: `literace run --streaming --log PATH` followed by
//! `literace detect --log PATH`, with the command-line defaults (hb
//! detector, `--threads 1`, decode `auto`), driven through the library's
//! public functions from one thread.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

use literace::detector::{detect_stream, RaceReport};
use literace::instrument::{InstrStats, InstrumentConfig, Instrumenter, V2Sink};
use literace::log::{auto_stream_depth, map_or_read, AtomicFile, DecodeOpts, RecordStream};
use literace::pipeline::{run_literace, RunConfig};
use literace::render::render_report;
use literace::samplers::SamplerKind;
use literace::sim::{lower, ChunkedRandomScheduler, CompiledProgram, Machine, Pc, PrefilterTable};
use literace::workloads::{build, Scale, Workload, WorkloadId};

use crate::cpu::process_cpu;

/// One benchmark workload: a paper program and the sampler it runs under.
#[derive(Debug)]
pub struct BenchWorkload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// The generated program.
    pub id: WorkloadId,
    /// The sampler, as `literace run --sampler` would select it.
    pub sampler: SamplerKind,
}

/// The workloads, each chosen to load a different layer (see README.md).
pub const WORKLOADS: [BenchWorkload; 3] = [
    // The deployment case: ~4% ESR, so sim, samplers and instrument do
    // almost all the work and log + detector stay near 3% of the pipeline.
    BenchWorkload {
        name: "apache-tlad",
        id: WorkloadId::Apache1,
        sampler: SamplerKind::TlAdaptive,
    },
    // The §5.3 full-logging reference run: 1.27M records, 99% memory
    // accesses, so log encode/decode and the access-history path dominate.
    BenchWorkload {
        name: "firefox-full",
        id: WorkloadId::FirefoxRender,
        sampler: SamplerKind::Always,
    },
    // 94% sync records: timestamping, sync logging and vector-clock joins
    // load the same layers as firefox-full through the other record kind.
    BenchWorkload {
        name: "lkrhash-tlad",
        id: WorkloadId::LkrHash,
        sampler: SamplerKind::TlAdaptive,
    },
];

/// Looks a workload up by its `--workload` name.
pub fn find(name: &str) -> Option<&'static BenchWorkload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything built before timing starts.
#[derive(Debug)]
pub struct Setup {
    /// The generated workload (program and planted races).
    pub workload: Workload,
    /// The lowered program the machine executes.
    pub compiled: CompiledProgram,
    /// Instrumentation config, with a prefilter table when the sampler
    /// needs one.
    pub icfg: InstrumentConfig,
    /// The sampler.
    pub sampler: SamplerKind,
    /// Scheduler seed and command-line default run settings.
    pub cfg: RunConfig,
}

/// Wall times of one set-up, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// `workloads::build`.
    pub build_ms: f64,
    /// `sim::lower`.
    pub lower_ms: f64,
    /// CPU time of everything, prefilter table included.
    pub cpu_ms: f64,
}

/// Builds and lowers the workload (and its prefilter table, when the
/// sampler needs one), timing each step.
pub fn set_up(w: &BenchWorkload, scale: Scale, seed: u64) -> (Setup, SetupTimes) {
    let c0 = process_cpu();
    let t0 = Instant::now();
    let workload = build(w.id, scale);
    let t1 = Instant::now();
    let compiled = lower(&workload.program);
    let t2 = Instant::now();
    let cfg = RunConfig::seeded(seed);
    let mut icfg = cfg.instrument.clone();
    if w.sampler.needs_prefilter() && icfg.sync_logging {
        icfg.prefilter = Some(PrefilterTable::build(&compiled));
    }
    let times = SetupTimes {
        build_ms: ms(t1 - t0),
        lower_ms: ms(t2 - t1),
        cpu_ms: ms(process_cpu() - c0),
    };
    let setup = Setup {
        workload,
        compiled,
        icfg,
        sampler: w.sampler,
        cfg,
    };
    (setup, times)
}

/// What every iteration's report is checked against, computed once per
/// seed before timing starts.
#[derive(Debug)]
pub struct Reference {
    planted: u32,
    full_races: BTreeSet<(Pc, Pc)>,
    expected: RaceReport,
    expected_text: String,
}

impl Reference {
    /// Runs the full-logging reference and the in-memory pipeline for the
    /// setup's sampler on the same seed.
    pub fn compute(setup: &Setup) -> Result<Reference, String> {
        let program = &setup.workload.program;
        let full = run_literace(program, SamplerKind::Always, &setup.cfg)
            .map_err(|e| format!("full-logging reference: {e}"))?
            .report;
        let expected = if setup.sampler == SamplerKind::Always {
            full.clone()
        } else {
            run_literace(program, setup.sampler, &setup.cfg)
                .map_err(|e| format!("in-memory pipeline: {e}"))?
                .report
        };
        Ok(Reference {
            planted: setup.workload.planted.total(),
            full_races: full.static_races.iter().map(|r| r.pcs).collect(),
            expected_text: render_report(&expected, program),
            expected,
        })
    }

    /// Planted static races of the workload.
    pub fn planted(&self) -> u32 {
        self.planted
    }

    /// Checks one iteration's report: the full-logging reference found
    /// exactly the planted races, the sampled races are a subset of the
    /// reference's, and the file-streamed report (and its rendering)
    /// equals the in-memory pipeline's.
    pub fn check(&self, report: &RaceReport, text: &str) -> Result<(), String> {
        if self.full_races.len() != self.planted as usize {
            return Err(format!(
                "full-logging reference found {} static races, {} planted",
                self.full_races.len(),
                self.planted
            ));
        }
        if let Some(extra) = report
            .static_races
            .iter()
            .find(|r| !self.full_races.contains(&r.pcs))
        {
            return Err(format!(
                "race {:?} is not in the full-logging reference",
                extra.pcs
            ));
        }
        if *report != self.expected {
            return Err("streamed report differs from the in-memory pipeline's".into());
        }
        if text != self.expected_text {
            return Err("rendered report differs from the in-memory pipeline's".into());
        }
        Ok(())
    }
}

/// What one pipeline iteration produced and how long it took.
#[derive(Debug)]
pub struct Iteration {
    /// Steps 1-5: run, seal, reopen, detect, render.
    pub pipeline_ms: f64,
    /// CPU time of steps 1-5, every thread of the process included.
    pub pipeline_cpu_ms: f64,
    /// CPU time of steps 3-5.
    pub offline_detect_cpu_ms: f64,
    /// `Machine::run` with the instrumenter attached.
    pub execute_ms: f64,
    /// Heap high-water mark above the live size at the iteration's start.
    pub peak_heap_bytes: usize,
    /// Size of the sealed v2 log.
    pub log_bytes: u64,
    /// Records written to the log.
    pub records: u64,
    /// Table 5 modeled slowdown, as `literace run` prints it.
    pub modeled_slowdown: f64,
    /// Instrumentation counters.
    pub stats: InstrStats,
    /// Non-stack accesses executed (the rarity denominator).
    pub non_stack: u64,
    /// The race report read back from the file.
    pub report: RaceReport,
    /// The report as rendered for the user.
    pub text: String,
}

/// Decode options of `literace detect` without flags: one worker per
/// available core, channel depth sized for one detection thread.
pub fn decode_opts() -> DecodeOpts {
    let opts = DecodeOpts::auto();
    opts.depth(auto_stream_depth(opts.threads, 1))
}

/// Opens the sealed log the way `literace detect --log` does: read whole
/// (or mapped) for the parallel decode pool, streamed from the file
/// otherwise.
pub fn open_stream(path: &Path, opts: DecodeOpts) -> Result<RecordStream, String> {
    let stream = if opts.threads > 1 {
        let bytes = map_or_read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        RecordStream::spawn_bytes(bytes, opts)
    } else {
        let file =
            std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        RecordStream::spawn_with(file, opts)
    };
    stream.map_err(|e| format!("read {}: {e}", path.display()))
}

/// Runs the five pipeline steps once, untraced, writing the log to `path`.
pub fn run_untraced(setup: &Setup, path: &Path) -> Result<Iteration, String> {
    let icfg = setup.icfg.clone();
    let base = crate::alloc::reset_peak();
    let c0 = process_cpu();
    let t0 = Instant::now();
    // 1. Execute with the instrumenter streaming v2 blocks to the file.
    let file = AtomicFile::create(path).map_err(|e| format!("create log: {e}"))?;
    let t_exec = Instant::now();
    let mut inst =
        Instrumenter::with_sink(setup.sampler.build(setup.cfg.seed), icfg, V2Sink::new(file));
    let mut sched = ChunkedRandomScheduler::seeded(setup.cfg.seed, setup.cfg.sched_quantum);
    let summary = Machine::new(&setup.compiled, setup.cfg.machine)
        .run(&mut sched, &mut inst)
        .map_err(|e| format!("execute: {e}"))?;
    let t1 = Instant::now();
    // 2. Flush the instrumenter, seal the log, fsync and rename it.
    let out = inst.finish();
    let records = out.log.records_written();
    let file = out.log.finish().map_err(|e| format!("seal log: {e}"))?;
    file.commit().map_err(|e| format!("commit log: {e}"))?;
    let c2 = process_cpu();
    // 3-5. Reopen the file, stream-detect it and render the report.
    let (report, text) = detect_file(setup, path, summary.non_stack_accesses)?;
    let t3 = Instant::now();
    let c3 = process_cpu();
    let peak_heap_bytes = crate::alloc::peak().saturating_sub(base);
    Ok(Iteration {
        pipeline_ms: ms(t3 - t0),
        pipeline_cpu_ms: ms(c3 - c0),
        offline_detect_cpu_ms: ms(c3 - c2),
        execute_ms: ms(t1 - t_exec),
        peak_heap_bytes,
        log_bytes: log_size(path)?,
        records,
        modeled_slowdown: out.overhead.slowdown(summary.baseline_cost),
        stats: out.stats,
        non_stack: summary.non_stack_accesses,
        report,
        text,
    })
}

/// Steps 3-5, what `literace detect --log PATH --non-stack N` does: reopen
/// the sealed log, stream-detect it and render the report.
pub fn detect_file(
    setup: &Setup,
    path: &Path,
    non_stack: u64,
) -> Result<(RaceReport, String), String> {
    let stream = open_stream(path, decode_opts())?;
    let report = detect_stream(stream, non_stack, &setup.cfg.detect_config())
        .map_err(|e| format!("detect: {e}"))?;
    let text = render_report(&report, &setup.workload.program);
    Ok((report, text))
}

/// Size of the sealed log at `path`.
pub fn log_size(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
