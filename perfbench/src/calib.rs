//! Host-speed calibration: a fixed piece of work owned by the benchmark,
//! timed between pipeline iterations.
//!
//! A shared host's speed moves by tens of percent over seconds and minutes
//! as other tenants load the cores the virtual CPUs sit on; CPU time
//! absorbs waiting, not that. The kernel below runs at whatever speed the
//! host gives at that moment, so a time divided by the kernel's time
//! measured next to it reads the same whatever the host's load, and a
//! change to the program still moves it in full: the kernel is not the
//! program's code.

use std::hint::black_box;

use crate::cpu::thread_cpu;
use crate::pipeline::ms;

/// What the kernel takes, in ms of CPU time, on the host the unit is
/// defined by (a 2-vCPU Xeon VM at its median speed). A normalized time
/// is what the step would take there.
pub const REFERENCE_MS: f64 = 2.0;

/// Table the kernel reads and writes: 256 KiB, larger than L1, within L2.
const TABLE: usize = 1 << 16;

/// Steps per kernel run.
const STEPS: u32 = 800_000;

/// The kernel's table, allocated once so that timing it takes no page
/// faults.
pub struct Calibration {
    table: Vec<u32>,
}

impl Calibration {
    /// Allocates and touches the table.
    pub fn new() -> Calibration {
        let mut c = Calibration {
            table: vec![1; TABLE],
        };
        c.time();
        c
    }

    /// Runs the kernel once and returns the calling thread's CPU time for
    /// it, in ms. One untimed pass over the table first brings it back
    /// into the caches whatever ran before.
    pub fn time(&mut self) -> f64 {
        black_box(self.table.iter().fold(0u32, |a, &v| a ^ v));
        let start = thread_cpu();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc: u32 = 0;
        for step in 0..STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 48) as usize & (TABLE - 1);
            let v = self.table[i];
            // A data-dependent branch, as an interpreter's dispatch has.
            acc = if v & 1 == 0 {
                acc.wrapping_add(v ^ step)
            } else {
                acc.rotate_left(5) ^ v
            };
            self.table[i] = v.wrapping_add(acc | 1);
        }
        black_box(acc);
        ms(thread_cpu() - start)
    }
}
