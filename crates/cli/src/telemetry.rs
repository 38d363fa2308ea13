//! CLI-side telemetry plumbing: `--metrics-out`, `--trace-out`, the
//! `--progress` heartbeat, and snapshot export.
//!
//! `--metrics-out` and `--progress` switch the runtime registry on
//! ([`literace::telemetry::set_enabled`]); `--trace-out` additionally
//! switches event tracing on and drains the per-thread trace buffers into
//! a Chrome trace-event JSON file at [`Telemetry::finish`]. Recording
//! stays compiled in but dormant otherwise. The heartbeat is a detached
//! thread sampling the global registry a few times a second and writing
//! one status line per tick to stderr — stdout stays clean for reports and
//! exported metrics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use literace::telemetry::{
    chrome_trace_json, drain_tracks, metrics, set_enabled, set_trace_enabled, Snapshot,
};

use crate::args::Flags;
use crate::error::CliError;

/// Telemetry options shared by the pipeline commands.
pub struct Telemetry {
    metrics_out: Option<String>,
    trace_out: Option<String>,
    progress: Option<Heartbeat>,
}

impl Telemetry {
    /// Reads `--metrics-out`, `--trace-out` and `--progress`, enabling the
    /// registry (and event tracing) and starting the heartbeat as
    /// requested.
    pub fn from_flags(flags: &Flags) -> Telemetry {
        let metrics_out = flags.get("metrics-out").map(str::to_owned);
        let trace_out = flags.get("trace-out").map(str::to_owned);
        let progress = flags.is_set("progress");
        if metrics_out.is_some() || progress || trace_out.is_some() {
            set_enabled(true);
        }
        if trace_out.is_some() {
            set_trace_enabled(true);
        }
        Telemetry {
            metrics_out,
            trace_out,
            progress: if progress { Heartbeat::spawn() } else { None },
        }
    }

    /// Stops the heartbeat and writes the JSON snapshot and the trace file
    /// if requested.
    ///
    /// Call once the pipeline work (including suppression) is done, so the
    /// snapshot carries the final counts and the trace every span.
    pub fn finish(self) -> Result<(), CliError> {
        if let Some(hb) = self.progress {
            hb.stop();
        }
        if let Some(path) = self.metrics_out {
            let json = metrics().snapshot().to_json();
            std::fs::write(&path, json).map_err(CliError::io("cannot write", &path))?;
            eprintln!("metrics written to {path}");
        }
        if let Some(path) = self.trace_out {
            set_trace_enabled(false);
            let tracks = drain_tracks();
            let json = chrome_trace_json(&tracks);
            std::fs::write(&path, json).map_err(CliError::io("cannot write", &path))?;
            eprintln!(
                "trace written to {path} ({} tracks) — load it in Perfetto \
                 (ui.perfetto.dev) or chrome://tracing",
                tracks.len()
            );
        }
        Ok(())
    }
}

/// The `--progress` status thread.
struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// Interval between status lines.
const TICK: Duration = Duration::from_millis(400);

impl Heartbeat {
    /// Starts the status thread; `None` if the OS refuses a thread (the
    /// run proceeds without progress output rather than failing).
    fn spawn() -> Option<Heartbeat> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("literace-progress".into())
            .spawn(move || heartbeat_loop(&flag))
            .ok()
            .map(|handle| Heartbeat { stop, handle })
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

fn heartbeat_loop(stop: &AtomicBool) {
    let start = Instant::now();
    let mut last_decoded = 0u64;
    loop {
        std::thread::sleep(TICK);
        if stop.load(Ordering::Relaxed) {
            return; // no tick after the command's final output
        }
        let snap = metrics().snapshot();
        let decoded = decoded_records(&snap);
        let rate = (decoded.saturating_sub(last_decoded)) as f64 / TICK.as_secs_f64();
        last_decoded = decoded;
        eprintln!("{}", format_heartbeat(start.elapsed().as_secs_f64(), &snap, rate));
    }
}

/// Renders one `--progress` status line from a registry snapshot.
///
/// Pure so the format is unit-testable: elapsed seconds and the
/// inter-tick decode rate are the only inputs the snapshot cannot carry.
/// When the input log's footer declared a record total
/// (`log.decode.total_records`, set before decoding starts), the line ends
/// with percent-complete; otherwise that segment is omitted.
fn format_heartbeat(elapsed_s: f64, snap: &Snapshot, rate: f64) -> String {
    let logged =
        counter(snap, "instrument.mem.logged") + counter(snap, "instrument.sync.logged");
    let decoded = decoded_records(snap);
    let total = snap
        .gauges
        .get("log.decode.total_records")
        .copied()
        .unwrap_or(0);
    let percent = if total > 0 {
        format!(
            " | {:.1}% of {total}",
            100.0 * decoded.min(total) as f64 / total as f64
        )
    } else {
        String::new()
    };
    format!(
        "[literace {elapsed_s:6.1}s] logged {logged} | decoded {decoded} ({rate:.0}/s) | \
         stream stalls {}{percent}",
        counter(snap, "log.stream.stalls"),
    )
}

/// Records decoded so far, from either log format.
fn decoded_records(snap: &Snapshot) -> u64 {
    counter(snap, "log.decode.v1.records") + counter(snap, "log.decode.v2.records")
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads are fast enough that a real run can finish before the
    /// first tick, so drive the loop directly: let it emit at least one
    /// status line (to this test's stderr), then stop and join cleanly.
    #[test]
    fn heartbeat_ticks_and_stops() {
        let hb = Heartbeat::spawn().expect("spawn status thread");
        std::thread::sleep(TICK + TICK / 2);
        hb.stop();
    }

    #[test]
    fn finish_writes_snapshot_to_the_requested_path() {
        let path = std::env::temp_dir().join("literace-telemetry-finish-test.json");
        let path_str = path.to_str().expect("utf-8 temp path").to_owned();
        let t = Telemetry {
            metrics_out: Some(path_str),
            trace_out: None,
            progress: None,
        };
        t.finish().expect("snapshot written");
        let json = std::fs::read_to_string(&path).expect("snapshot file exists");
        Snapshot::from_json(&json).expect("snapshot parses");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn heartbeat_line_includes_rate_and_percent_when_total_known() {
        let mut snap = Snapshot::default();
        snap.counters.insert("instrument.mem.logged".into(), 900);
        snap.counters.insert("instrument.sync.logged".into(), 100);
        snap.counters.insert("log.decode.v2.records".into(), 250);
        snap.counters.insert("log.stream.stalls".into(), 2);
        snap.gauges.insert("log.decode.total_records".into(), 1000);
        let line = format_heartbeat(1.5, &snap, 625.0);
        assert_eq!(
            line,
            "[literace    1.5s] logged 1000 | decoded 250 (625/s) | \
             stream stalls 2 | 25.0% of 1000"
        );
    }

    #[test]
    fn heartbeat_line_omits_percent_without_a_total() {
        let snap = Snapshot::default();
        let line = format_heartbeat(0.4, &snap, 0.0);
        assert!(line.ends_with("stream stalls 0"), "{line}");
        assert!(!line.contains('%'), "{line}");
    }
}
