//! One benchmark run: set-up, the per-seed reference, then measured
//! iterations for the requested time, reduced to the named metrics.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use literace::workloads::Scale;

use crate::calib::{Calibration, REFERENCE_MS};
use crate::cpu::process_cpu;
use crate::pipeline::{
    detect_file, ms, run_untraced, set_up, BenchWorkload, Iteration, Reference, SetupTimes,
};
use crate::traced::{run_baseline, run_traced, Layers, Traced};

/// Steps 3-5 time per untraced iteration, in ms, below which the sealed
/// log is detected again (see `run`).
const REDETECT_MS: f64 = 30.0;

/// Distinct failure messages kept for the summary.
const MAX_ERRORS: usize = 8;

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Options {
    /// Scheduler seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Measured rounds at least, however long they take.
    pub min_rounds: usize,
    /// Workload scale (the benchmark uses paper scale; self-tests smoke).
    pub scale: Scale,
    /// Traced run (per-layer metrics) instead of the untraced one
    /// (end-to-end metrics).
    pub trace: bool,
    /// Directory for the log file and the span dump.
    pub out_dir: PathBuf,
}

/// One named result.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every iteration passed its checks (and, traced, its attribution
    /// check).
    pub correct: bool,
    /// Operations attempted: pipeline iterations and redetects.
    pub attempted: u64,
    /// Operations that errored or failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The first distinct failure messages.
    pub errors: Vec<String>,
    /// The span dump of a traced run.
    pub spans_file: Option<PathBuf>,
    /// Table 5 modeled slowdown (deterministic for a seed).
    pub modeled_slowdown: f64,
    /// Medians of an untraced run's times before normalization, for the
    /// summary.
    pub raw: Option<RawTimes>,
}

/// Medians of a run's times as the clocks read them.
#[derive(Debug, Clone, Copy)]
pub struct RawTimes {
    /// Wall time of steps 1-5.
    pub pipeline_wall_ms: f64,
    /// CPU time of steps 1-5.
    pub pipeline_cpu_ms: f64,
    /// CPU time of steps 3-5, redetects included.
    pub offline_cpu_ms: f64,
    /// The calibration kernel's CPU time.
    pub calib_ms: f64,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Counts one operation and applies `check` to its result; keeps the
    /// result if both succeeded.
    fn record<T>(
        &mut self,
        result: Result<T, String>,
        check: impl Fn(&T) -> Result<(), String>,
    ) -> Option<T> {
        self.attempted += 1;
        let checked = result.and_then(|t| check(&t).map(|()| t));
        match checked {
            Ok(t) => Some(t),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS && !self.errors.contains(&e) {
            self.errors.push(e);
        }
    }
}

/// Runs the benchmark for one workload.
///
/// # Errors
///
/// Set-up failures: the reference run fails to execute or the output
/// directory cannot be created. Failures inside measured iterations are
/// counted, not returned.
pub fn run(w: &BenchWorkload, opts: &Options) -> Result<Outcome, String> {
    let (setup, _) = set_up(w, opts.scale, opts.seed);
    let reference = Reference::compute(&setup)?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let path = opts
        .out_dir
        .join(format!("{}-{}.v2", w.name, std::process::id()));

    // Warm caches and the file system before timing; not counted.
    run_untraced(&setup, &path)?;

    let mut tally = Tally::default();
    let mut calib = Calibration::new();
    // The kernel's time before each round, and once after the last.
    let mut host = vec![calib.time()];
    // Raw CPU times, each with the round it was measured in.
    let mut setup_times: Vec<(SetupTimes, usize)> = Vec::new();
    let mut pipeline: Vec<(f64, usize)> = Vec::new();
    // Steps 3-5: each iteration's own, then its redetects.
    let mut offline: Vec<(f64, usize)> = Vec::new();
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    // (instrumented execute, uninstrumented execute) measured back to back.
    let mut paired: Vec<(f64, f64)> = Vec::new();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(opts.seconds);
    let mut round = 0usize;
    while round < opts.min_rounds || Instant::now() < deadline {
        // One set-up per round, timed and dropped: set-ups spread over the
        // run sample the same host conditions as the iterations instead of
        // one moment at start-up.
        setup_times.push((set_up(w, opts.scale, opts.seed).1, round));
        if !opts.trace {
            let it = run_untraced(&setup, &path);
            if let Some(it) = tally.record(it, |it| reference.check(&it.report, &it.text)) {
                pipeline.push((it.pipeline_cpu_ms, round));
                offline.push((it.offline_detect_cpu_ms, round));
                // Detect the same file again, as `literace detect --log`
                // would, until this iteration has spent REDETECT_MS in
                // steps 3-5: a short offline path needs many samples to
                // pin its p90.
                let mut spent = it.offline_detect_cpu_ms;
                while spent < REDETECT_MS {
                    let start = process_cpu();
                    let r = detect_file(&setup, &path, it.non_stack);
                    let took = ms(process_cpu() - start);
                    spent += took;
                    let check = |(report, text): &(_, String)| reference.check(report, text);
                    if tally.record(r, check).is_some() {
                        offline.push((took, round));
                    }
                }
                untraced.push(it);
            }
        } else {
            // Alternate which of the traced and untraced pipelines runs
            // first, so drift over the run hits both alike.
            let baseline = run_baseline(&setup);
            let traced_run =
                || run_traced(&setup, &path, epoch).and_then(|t| t.layers.check().map(|()| t));
            let (plain, t) = if round.is_multiple_of(2) {
                let plain = run_untraced(&setup, &path);
                (plain, traced_run())
            } else {
                let t = traced_run();
                (run_untraced(&setup, &path), t)
            };
            traced.extend(tally.record(t, |t| {
                reference.check(&t.iteration.report, &t.iteration.text)
            }));
            let plain = baseline.and_then(|b| plain.map(|it| (it, b)));
            if let Some((it, b)) =
                tally.record(plain, |(it, _)| reference.check(&it.report, &it.text))
            {
                paired.push((it.execute_ms, b));
                untraced.push(it);
            }
        }
        host.push(calib.time());
        round += 1;
    }
    let _ = std::fs::remove_file(&path);

    // A raw CPU time in ms of reference speed, by the kernel's times on
    // either side of its round.
    let normalize = |samples: &[(f64, usize)]| -> Vec<f64> {
        samples
            .iter()
            .map(|&(raw, r)| raw * REFERENCE_MS * 2.0 / (host[r] + host[r + 1]))
            .collect()
    };
    let planted = f64::from(reference.planted());
    let (metrics, spans_file, raw) = if opts.trace {
        let file = opts
            .out_dir
            .join(format!("spans-{}-seed{}.json", w.name, opts.seed));
        write_spans(&file, w.name, opts.seed, &traced)?;
        let setup_times: Vec<SetupTimes> = setup_times.iter().map(|(t, _)| *t).collect();
        let mut metrics = per_layer(&setup_times, &untraced, &traced, &paired, &tally);
        metrics.push(metric("host.calib_ms", "ms", median(&host)));
        (metrics, Some(file), None)
    } else {
        let setup_cpu: Vec<(f64, usize)> =
            setup_times.iter().map(|(t, r)| (t.cpu_ms, *r)).collect();
        let times = Normalized {
            setup: normalize(&setup_cpu),
            pipeline: normalize(&pipeline),
            offline: normalize(&offline),
        };
        let first = |samples: &[(f64, usize)]| samples.iter().map(|s| s.0).collect::<Vec<_>>();
        let raw = RawTimes {
            pipeline_wall_ms: median(&untraced.iter().map(|it| it.pipeline_ms).collect::<Vec<_>>()),
            pipeline_cpu_ms: median(&first(&pipeline)),
            offline_cpu_ms: median(&first(&offline)),
            calib_ms: median(&host),
        };
        (end_to_end(&times, &untraced, planted), None, Some(raw))
    };
    Ok(Outcome {
        correct: tally.failed == 0 && tally.attempted > 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        errors: tally.errors,
        spans_file,
        modeled_slowdown: median(
            &untraced
                .iter()
                .map(|it| it.modeled_slowdown)
                .collect::<Vec<_>>(),
        ),
        raw,
    })
}

/// The bounded timings of an untraced run, in ms of reference speed.
struct Normalized {
    setup: Vec<f64>,
    pipeline: Vec<f64>,
    offline: Vec<f64>,
}

fn end_to_end(times: &Normalized, its: &[Iteration], planted: f64) -> Vec<Metric> {
    let of = |f: fn(&Iteration) -> f64| its.iter().map(f).collect::<Vec<f64>>();
    vec![
        metric("pipeline_ms_p50", "ms", percentile(&times.pipeline, 50.0)),
        metric("pipeline_ms_p90", "ms", percentile(&times.pipeline, 90.0)),
        metric(
            "offline_detect_ms_p50",
            "ms",
            percentile(&times.offline, 50.0),
        ),
        metric(
            "offline_detect_ms_p90",
            "ms",
            percentile(&times.offline, 90.0),
        ),
        metric(
            "modeled_slowdown_x",
            "x",
            median(&of(|it| it.modeled_slowdown)),
        ),
        metric("log_mb", "MB", median(&of(|it| it.log_bytes as f64)) / 1e6),
        // Each iteration's high-water mark is a floor plus the blocks the
        // decode pool happens to run ahead of the detector; the largest over
        // a run follows the host's scheduling, the median does not.
        metric(
            "peak_heap_mb",
            "MB",
            median(&of(|it| it.peak_heap_bytes as f64)) / 1e6,
        ),
        metric(
            "detection_rate",
            "ratio",
            median(&of(|it| it.report.static_count() as f64)) / planted,
        ),
        metric("setup_s", "s", median(&times.setup) / 1e3),
    ]
}

fn per_layer(
    setup: &[SetupTimes],
    untraced: &[Iteration],
    traced: &[Traced],
    paired: &[(f64, f64)],
    tally: &Tally,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let overhead: Vec<f64> = paired.iter().map(|(i, b)| i - b).collect();
    let slowdown: Vec<f64> = paired.iter().map(|(i, b)| i / b).collect();
    let measured = median(&slowdown);
    let modeled = med(&|t| t.iteration.modeled_slowdown);
    let untraced_p50 = median(&untraced.iter().map(|it| it.pipeline_ms).collect::<Vec<_>>());
    let traced_p50 = med(&|t| t.layers.wall);
    let mut m = vec![
        metric(
            "workloads.build_ms",
            "ms",
            median(&setup.iter().map(|t| t.build_ms).collect::<Vec<_>>()),
        ),
        metric(
            "sim.lower_ms",
            "ms",
            median(&setup.iter().map(|t| t.lower_ms).collect::<Vec<_>>()),
        ),
        metric(
            "sim.execute_ms",
            "ms",
            median(&paired.iter().map(|(_, b)| *b).collect::<Vec<_>>()),
        ),
        metric("sim.events", "count", med(&|t| t.layers.events as f64)),
        metric(
            "samplers.dispatch_calls",
            "count",
            med(&|t| t.layers.dispatch_calls as f64),
        ),
        metric(
            "samplers.sampled_share",
            "ratio",
            med(&|t| t.layers.sampled as f64 / t.layers.dispatch_calls.max(1) as f64),
        ),
        metric("instrument.overhead_ms", "ms", median(&overhead)),
        metric("instrument.measured_slowdown_x", "x", measured),
        metric("instrument.model_error", "ratio", modeled / measured - 1.0),
        metric(
            "instrument.sync_records",
            "count",
            med(&|t| t.iteration.stats.sync_records as f64),
        ),
        metric(
            "instrument.mem_logged",
            "count",
            med(&|t| t.iteration.stats.logged_mem as f64),
        ),
        metric("instrument.esr", "ratio", med(&|t| t.iteration.stats.esr())),
        metric(
            "log.bytes_per_record",
            "B",
            med(&|t| t.iteration.log_bytes as f64 / t.iteration.records.max(1) as f64),
        ),
        metric(
            "log.decode_worker_busy_ms",
            "ms",
            med(&|t| t.counters.decode_busy_ns as f64 / 1e6),
        ),
        metric(
            "log.decode_worker_idle_ms",
            "ms",
            med(&|t| t.counters.decode_idle_ns as f64 / 1e6),
        ),
        metric(
            "log.stream_stalls",
            "count",
            med(&|t| t.counters.stream_stalls as f64),
        ),
        metric(
            "detector.records_per_s",
            "1/s",
            med(&|t| t.iteration.records as f64 / (t.layers.detector / 1e3)),
        ),
        metric(
            "detector.races_dynamic",
            "count",
            med(&|t| t.iteration.report.dynamic_races as f64),
        ),
        metric(
            "detector.epoch_escalations",
            "count",
            med(&|t| t.counters.epoch_escalations as f64),
        ),
        metric(
            "detector.memo_hits",
            "count",
            med(&|t| t.counters.memo_hits as f64),
        ),
        metric("unattributed_ms", "ms", med(&|t| t.layers.unattributed)),
        metric(
            "unattributed_share",
            "ratio",
            med(&|t| t.layers.unattributed / t.layers.wall),
        ),
        metric(
            "trace.overhead_pct",
            "%",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
        ),
        metric(
            "error_rate",
            "ratio",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        ),
    ];
    let names = Layers::default().self_times().map(|(name, _)| name);
    for (i, name) in names.into_iter().enumerate() {
        m.push(metric(name, "ms", med(&|t| t.layers.self_times()[i].1)));
    }
    m
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Writes the traced iterations' spans and self times, once, at the end of
/// the run.
fn write_spans(path: &Path, workload: &str, seed: u64, traced: &[Traced]) -> Result<(), String> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"iterations\":["
    );
    for (i, t) in traced.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"iteration\":{i},\"spans\":[");
        for (j, s) in t.spans.iter().enumerate() {
            let parent = if j == 0 { "null" } else { "\"pipeline\"" };
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                if j > 0 { "," } else { "" },
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("],\"self_ms\":{");
        for (name, v) in t.layers.self_times() {
            let _ = write!(out, "\"{name}\":{v},");
        }
        let _ = write!(out, "\"unattributed_ms\":{}}}}}", t.layers.unattributed);
    }
    out.push_str("]}\n");
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Median (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Percentile by linear interpolation between closest ranks (0 for no
/// samples).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{find, WORKLOADS};

    fn smoke(trace: bool, dir: &str) -> Options {
        Options {
            seed: 3,
            seconds: 0.0,
            min_rounds: 3,
            scale: Scale::Smoke,
            trace,
            out_dir: PathBuf::from(".perfbench").join(dir),
        }
    }

    /// `(name, unit)` of every metric listed under `key` in BENCHMARK.json.
    fn declared(key: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let section = &json[start..];
        let section = &section[..section.find(']').expect("section closes")];
        let field = |obj: &str, name: &str| {
            let at = obj.find(&format!("\"{name}\": \"")).expect("field present") + name.len() + 5;
            obj[at..at + obj[at..].find('"').expect("string closes")].to_owned()
        };
        section
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_workload_emits_every_declared_metric_without_errors() {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let want = declared(key);
            assert!(!want.is_empty(), "{key} lists metrics");
            for w in &WORKLOADS {
                let opts = smoke(trace, &format!("selftest-{}-{trace}", w.name));
                let out = run(w, &opts).expect("smoke run sets up");
                let _ = std::fs::remove_dir_all(&opts.out_dir);
                assert!(out.correct, "{} trace={trace}: {:?}", w.name, out.errors);
                assert!(out.attempted >= 3);
                assert_eq!(out.failed, 0, "error_rate must be 0 on {}", w.name);
                let got: Vec<(String, String)> = out
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                    .collect();
                let mut sorted_got = got.clone();
                sorted_got.sort();
                let mut sorted_want = want.clone();
                sorted_want.sort();
                assert_eq!(sorted_got, sorted_want, "{} trace={trace}", w.name);
                for m in &out.metrics {
                    assert!(valid_name(m.name), "metric name {:?}", m.name);
                    assert!(!m.unit.is_empty(), "{} has a unit", m.name);
                    assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
                }
                if trace {
                    let error_rate = out.metrics.iter().find(|m| m.name == "error_rate");
                    assert_eq!(error_rate.map(|m| m.value), Some(0.0));
                }
            }
        }
    }

    #[test]
    fn a_tampered_report_is_counted_as_an_error() {
        let w = find("apache-tlad").expect("workload exists");
        let (setup, _) = set_up(w, Scale::Smoke, 3);
        let reference = Reference::compute(&setup).expect("reference runs");
        let dir = PathBuf::from(".perfbench/selftest-tamper");
        std::fs::create_dir_all(&dir).expect("create dir");
        let path = dir.join("log.v2");
        let fresh = || run_untraced(&setup, &path).expect("iteration runs");

        let mut tally = Tally::default();
        let check = |it: &Iteration| reference.check(&it.report, &it.text);
        assert!(tally.record(Ok(fresh()), check).is_some());

        // A race the full-logging reference never saw.
        let mut extra = fresh();
        let mut race = extra.report.static_races[0].clone();
        race.pcs.1 = race.pcs.0;
        extra.report.static_races.push(race);
        // Same races, different dynamic count.
        let mut recount = fresh();
        recount.report.dynamic_races += 1;
        // Same report, different rendering.
        let mut rendered = fresh();
        rendered.text.push('\n');
        for it in [extra, recount, rendered] {
            assert!(tally.record(Ok(it), check).is_none());
        }
        assert!(tally.record(Err("boom".into()), check).is_none());
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!((tally.attempted, tally.failed), (5, 4));
    }

    #[test]
    fn attribution_check_rejects_double_counting() {
        let ok = Layers {
            wall: 10.0,
            sim: 6.0,
            instrument: 3.0,
            unattributed: 1.0,
            ..Layers::default()
        };
        assert!(ok.check().is_ok());
        let negative = Layers {
            sim: -1.0,
            instrument: 10.0,
            ..ok
        };
        assert!(negative.check().is_err());
        let short = Layers {
            unattributed: 0.5,
            ..ok
        };
        assert!(short.check().is_err());
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 90.0) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }
}
