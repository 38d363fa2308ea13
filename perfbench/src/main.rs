//! End-to-end, layer-attributed benchmark of the LiteRace pipeline: the
//! path a user takes with `literace run --streaming --log PATH` followed by
//! `literace detect --log PATH`, timed per iteration from one thread.
//!
//! Usage: `literace-perfbench --workload NAME [--seed N] [--seconds S]
//! [--trace 0|1]`
//!
//! `--trace 0` measures the end-to-end metrics with no adapters in the
//! path; `--trace 1` interleaves traced iterations (per-layer metrics),
//! untraced ones (for the tracing overhead) and uninstrumented executions
//! (for the measured slowdown). A human-readable summary goes to standard
//! error; the last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. See README.md.

mod alloc;
mod bench;
mod calib;
mod cpu;
mod pipeline;
mod traced;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use literace::workloads::Scale;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where the log file and the span dump go, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench";

const USAGE: &str =
    "usage: literace-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: &'static pipeline::BenchWorkload,
    opts: bench::Options,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = bench::Options {
        seed: 1,
        seconds: 10.0,
        min_rounds: 1,
        scale: Scale::Paper,
        trace: false,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(pipeline::find(value).ok_or_else(|| {
                    let names: Vec<&str> = pipeline::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` ({})", names.join(", "))
                })?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, opts })
}

/// The result line: one JSON object.
fn result_json(out: &bench::Outcome) -> String {
    let mut correct = out.correct;
    let mut s = String::from("{");
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        // A non-finite value has no JSON form; it can only come from a
        // broken measurement, so the run is not correct.
        let value = if m.value.is_finite() {
            m.value
        } else {
            correct = false;
            0.0
        };
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.unit
        );
    }
    let _ = write!(
        s,
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted, out.failed
    );
    s
}

fn summary(args: &Args, out: &bench::Outcome) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    let mut s = format!(
        "perfbench {} ({:?} under {}), seed {}, {} s, trace {}, host CPUs {cpus}\n",
        w.name,
        w.id,
        w.sampler.short_name(),
        args.opts.seed,
        args.opts.seconds,
        u8::from(args.opts.trace),
    );
    let _ = writeln!(
        s,
        "  operations attempted {}, failed {}",
        out.attempted, out.failed
    );
    for e in &out.errors {
        let _ = writeln!(s, "  error: {e}");
    }
    for m in &out.metrics {
        let _ = writeln!(s, "  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let get = |name| out.metrics.iter().find(|m| m.name == name).map(|m| m.value);
    if let (Some(measured), Some(error)) = (
        get("instrument.measured_slowdown_x"),
        get("instrument.model_error"),
    ) {
        let _ = writeln!(
            s,
            "  calibration: modeled_slowdown_x {:.4} vs instrument.measured_slowdown_x {measured:.4} \
             (instrument.model_error {error:+.4})",
            out.modeled_slowdown
        );
    }
    if let Some(raw) = out.raw {
        let _ = writeln!(
            s,
            "  before normalization: pipeline p50 {:.4} ms wall, {:.4} ms CPU; offline detect p50 \
             {:.4} ms CPU; calibration kernel {:.4} ms (reference {} ms)",
            raw.pipeline_wall_ms,
            raw.pipeline_cpu_ms,
            raw.offline_cpu_ms,
            raw.calib_ms,
            calib::REFERENCE_MS,
        );
    }
    if let Some(file) = &out.spans_file {
        let _ = writeln!(s, "  spans: {}", file.display());
    }
    s
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench::run(args.workload, &args.opts) {
        Ok(out) => {
            eprint!("{}", summary(&args, &out));
            println!("{}", result_json(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
