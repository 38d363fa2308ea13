//! Measures the cost of the telemetry layer and writes
//! `BENCH_telemetry.json`: registry op micro-costs, snapshot/export cost,
//! and — the headline — end-to-end overhead of metrics-on vs metrics-off
//! detection and pipeline runs.
//!
//! The binary doubles as the overhead guard: if enabling telemetry — or
//! event tracing, measured as its own row — slows detection by more than
//! `--budget-pct` (default 2%) on any measured workload it exits nonzero,
//! so CI catches a recording site that leaked onto the hot path. "Off"
//! means the runtime flag is off with the `telemetry` feature compiled
//! in — the configuration a user who simply didn't pass `--metrics-out`
//! runs; compile-time off is cheaper still. "Traced" additionally turns
//! event tracing on, the `--trace-out` configuration.
//!
//! Byte-identical reports on vs off are asserted as a side effect of every
//! timed pair.
//!
//! Usage: `bench_telemetry [--scale smoke|paper] [--repeats N]
//! [--budget-pct P] [--out PATH]`

use std::hint::black_box;
use std::time::Instant;

use literace::detector::detect;
use literace::instrument::{InstrumentConfig, Instrumenter};
use literace::log::EventLog;
use literace::prelude::*;
use literace::sim::{lower, ChunkedRandomScheduler, Machine, MachineConfig};
use literace::telemetry::{self, LocalHistogram};

fn workload_log(id: WorkloadId, scale: Scale, seed: u64) -> (EventLog, u64) {
    let w = build(id, scale);
    let compiled = lower(&w.program);
    let mut inst =
        Instrumenter::new(SamplerKind::Always.build(seed), InstrumentConfig::default());
    let summary = Machine::new(&compiled, MachineConfig::default())
        .run(&mut ChunkedRandomScheduler::seeded(seed, 64), &mut inst)
        .expect("workload runs");
    (inst.finish().log, summary.non_stack_accesses)
}

/// Best-of-`repeats` wall-clock seconds for `f` with telemetry off and on,
/// interleaved: each loop iteration times one off round then one on round,
/// so clock drift and thermal throttling hit both configurations equally
/// instead of biasing whichever ran second.
fn time_pair<F: FnMut()>(repeats: usize, mut f: F) -> (f64, f64) {
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        telemetry::set_enabled(false);
        let t = Instant::now();
        f();
        best_off = best_off.min(t.elapsed().as_secs_f64());
        telemetry::set_enabled(true);
        let t = Instant::now();
        f();
        best_on = best_on.min(t.elapsed().as_secs_f64());
    }
    telemetry::set_enabled(false);
    (best_off, best_on)
}

/// Like [`time_pair`] but with a third interleaved round per iteration:
/// metrics *and* event tracing on (the `--trace-out` configuration).
/// Trace buffers are reset between rounds outside the timed region so
/// every traced round records into empty buffers rather than hitting the
/// capacity bound and measuring drop handling instead of recording.
fn time_triple<F: FnMut()>(repeats: usize, mut f: F) -> (f64, f64, f64) {
    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    let mut best_traced = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        telemetry::set_enabled(false);
        let t = Instant::now();
        f();
        best_off = best_off.min(t.elapsed().as_secs_f64());
        telemetry::set_enabled(true);
        let t = Instant::now();
        f();
        best_on = best_on.min(t.elapsed().as_secs_f64());
        telemetry::set_trace_enabled(true);
        let t = Instant::now();
        f();
        best_traced = best_traced.min(t.elapsed().as_secs_f64());
        telemetry::set_trace_enabled(false);
        telemetry::reset_trace();
    }
    telemetry::set_enabled(false);
    (best_off, best_on, best_traced)
}

/// Nanoseconds per op over `iters` calls of `f`, best of 3 rounds.
fn ns_per_op<F: FnMut(u64)>(iters: u64, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    best * 1e9 / iters as f64
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "null".to_owned()
    }
}

fn overhead_pct(on_secs: f64, off_secs: f64) -> f64 {
    if off_secs <= 0.0 {
        0.0
    } else {
        (on_secs / off_secs - 1.0) * 100.0
    }
}

struct Row {
    name: &'static str,
    records: usize,
    seq_off: f64,
    seq_on: f64,
    seq_traced: f64,
    pipeline_off: f64,
    pipeline_on: f64,
}

fn main() {
    let mut out_path = "BENCH_telemetry.json".to_owned();
    let mut repeats = 20usize;
    let mut scale = Scale::Smoke;
    let mut budget_pct = 2.0f64;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out expects a path").clone();
            }
            "--repeats" => {
                i += 1;
                repeats = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--repeats expects a number");
            }
            "--budget-pct" => {
                i += 1;
                budget_pct = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--budget-pct expects a number");
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    Some("paper") => Scale::Paper,
                    other => panic!("--scale expects smoke|paper, got {other:?}"),
                };
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }

    // ── registry micro-costs (telemetry on) ────────────────────────────
    telemetry::set_enabled(true);
    let m = telemetry::metrics();
    const ITERS: u64 = 4_000_000;
    let counter_ns = ns_per_op(ITERS, |i| m.log_encode_v2_deltas.add(black_box(i & 1)));
    let slot_ns = ns_per_op(ITERS, |i| {
        m.log_records_by_thread.add((i & 7) as usize, black_box(1));
    });
    let hist_ns = ns_per_op(ITERS, |i| m.detector_frontier_scan.record(black_box(i & 63)));
    let mut local = LocalHistogram::new();
    let local_hist_ns = ns_per_op(ITERS, |i| local.record(black_box(i & 63)));
    local.flush_into(&m.detector_frontier_scan);
    let mut sampler = telemetry::ScanSampler::new();
    let sampler_ns = ns_per_op(ITERS, |i| sampler.record(black_box(i & 63)));
    sampler.flush_into(&m.detector_frontier_scan);
    let enabled_check_ns = ns_per_op(ITERS, |_| {
        black_box(telemetry::enabled());
    });
    let snapshot_ns = ns_per_op(2_000, |_| {
        black_box(m.snapshot());
    });
    let to_json_ns = {
        let snap = m.snapshot();
        ns_per_op(2_000, |_| {
            black_box(snap.to_json());
        })
    };
    m.reset();
    telemetry::set_enabled(false);
    println!("registry micro-costs (ns/op):");
    println!("  enabled() check    : {enabled_check_ns:.2}");
    println!("  counter add        : {counter_ns:.2}");
    println!("  slot counter add   : {slot_ns:.2}");
    println!("  histogram record   : {hist_ns:.2}");
    println!("  local hist record  : {local_hist_ns:.2}");
    println!("  scan sampler record: {sampler_ns:.2}");
    println!("  full snapshot      : {snapshot_ns:.0}");
    println!("  snapshot to_json   : {to_json_ns:.0}");

    // ── end-to-end overhead: metrics on vs off ─────────────────────────
    let workload_ids = [
        ("apache-1", WorkloadId::Apache1),
        ("dryad", WorkloadId::Dryad),
    ];
    let mut rows = Vec::new();
    let mut worst: (f64, &'static str, &'static str) = (f64::NEG_INFINITY, "", "");
    for (name, id) in workload_ids {
        let (log, non_stack) = workload_log(id, scale, 1);
        let w = build(id, scale);
        let run_cfg = RunConfig::seeded(1);

        // Equal reports off vs on vs traced, asserted once outside the
        // timed loops.
        telemetry::set_enabled(false);
        let report_off = detect(&log, non_stack);
        telemetry::set_enabled(true);
        let report_on = detect(&log, non_stack);
        assert_eq!(report_off, report_on, "{name}: telemetry changed the report");
        telemetry::set_trace_enabled(true);
        let report_traced = detect(&log, non_stack);
        telemetry::set_trace_enabled(false);
        telemetry::reset_trace();
        assert_eq!(report_off, report_traced, "{name}: tracing changed the report");

        let (seq_off, seq_on, seq_traced) = time_triple(repeats, || {
            black_box(detect(&log, non_stack));
        });
        let (pipeline_off, pipeline_on) = time_pair(repeats.min(5), || {
            black_box(
                run_literace(&w.program, SamplerKind::TlAdaptive, &run_cfg)
                    .expect("pipeline runs"),
            );
        });

        for (kind, on, off) in [
            ("detect", seq_on, seq_off),
            ("traced detect", seq_traced, seq_off),
        ] {
            let pct = overhead_pct(on, off);
            if pct > worst.0 {
                worst = (pct, name, kind);
            }
        }
        println!();
        println!("{name} ({} records):", log.len());
        println!(
            "  detect             : off {:.3} ms, on {:.3} ms ({:+.2}%)",
            seq_off * 1e3,
            seq_on * 1e3,
            overhead_pct(seq_on, seq_off)
        );
        println!(
            "  traced detect      : off {:.3} ms, traced {:.3} ms ({:+.2}%)",
            seq_off * 1e3,
            seq_traced * 1e3,
            overhead_pct(seq_traced, seq_off)
        );
        println!(
            "  full pipeline      : off {:.3} ms, on {:.3} ms ({:+.2}%)",
            pipeline_off * 1e3,
            pipeline_on * 1e3,
            overhead_pct(pipeline_on, pipeline_off)
        );
        rows.push(Row {
            name,
            records: log.len(),
            seq_off,
            seq_on,
            seq_traced,
            pipeline_off,
            pipeline_on,
        });
    }

    // ── emit JSON ──────────────────────────────────────────────────────
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"telemetry\",\n");
    json.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str(&format!("  \"budget_pct\": {budget_pct},\n"));
    json.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    json.push_str("  \"notes\": \"'off' is the runtime flag off with the telemetry feature compiled in; 'traced' additionally enables event tracing (the --trace-out configuration) with buffers reset between rounds. Off/on/traced rounds are interleaved within one loop and overhead pct is best-of-N vs best-of-N off, guarded against budget_pct on the detect rows including traced.\",\n");
    json.push_str("  \"registry_ns_per_op\": {\n");
    json.push_str(&format!(
        "    \"enabled_check\": {},\n",
        json_f64(enabled_check_ns)
    ));
    json.push_str(&format!("    \"counter_add\": {},\n", json_f64(counter_ns)));
    json.push_str(&format!("    \"slot_counter_add\": {},\n", json_f64(slot_ns)));
    json.push_str(&format!("    \"histogram_record\": {},\n", json_f64(hist_ns)));
    json.push_str(&format!(
        "    \"local_histogram_record\": {},\n",
        json_f64(local_hist_ns)
    ));
    json.push_str(&format!(
        "    \"scan_sampler_record\": {},\n",
        json_f64(sampler_ns)
    ));
    json.push_str(&format!("    \"snapshot_capture\": {},\n", json_f64(snapshot_ns)));
    json.push_str(&format!("    \"snapshot_to_json\": {}\n", json_f64(to_json_ns)));
    json.push_str("  },\n");
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"workload\": \"{}\",\n", r.name));
        json.push_str(&format!("      \"records\": {},\n", r.records));
        json.push_str(&format!(
            "      \"sequential_detect_overhead_pct\": {},\n",
            json_f64(overhead_pct(r.seq_on, r.seq_off))
        ));
        json.push_str(&format!(
            "      \"sequential_traced_overhead_pct\": {},\n",
            json_f64(overhead_pct(r.seq_traced, r.seq_off))
        ));
        json.push_str(&format!(
            "      \"pipeline_overhead_pct\": {},\n",
            json_f64(overhead_pct(r.pipeline_on, r.pipeline_off))
        ));
        json.push_str(&format!(
            "      \"sequential_detect_off_ms\": {}\n",
            json_f64(r.seq_off * 1e3)
        ));
        json.push_str(if i + 1 == rows.len() { "    }\n" } else { "    },\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json).expect("write bench output");
    println!();
    println!("wrote {out_path}");

    // ── overhead guard ─────────────────────────────────────────────────
    let (pct, wl, kind) = worst;
    if pct > budget_pct {
        eprintln!(
            "FAIL: telemetry overhead {pct:.2}% on {wl} {kind} exceeds the \
             {budget_pct}% budget"
        );
        std::process::exit(1);
    }
    println!("overhead guard: worst {pct:+.2}% ({wl} {kind}) within {budget_pct}% budget");
}
