//! How fast the benchmark's own CPU runs while a run measures.
//!
//! On a shared host the same code runs up to 1.5x slower for seconds to
//! minutes at a time, on one vCPU and not the other, and no run is long
//! enough to average that out. So a fixed piece of work is timed on the
//! benchmark's CPU between requests, off the clock, and every timing metric
//! is reported at a reference speed: multiplied by `REF_US` over the run's
//! median probe time. See `README.md`, "Steadiness".
//!
//! The probe is random dependent reads of a 128 KiB table: larger than the
//! L1 data cache, well inside L2, which is where the slowdown shows. The
//! table is read through once before the timed passes, so what the program
//! left in the caches costs only that untimed pass, and the timed figure
//! does not depend on the program under test. Each probe times two passes
//! and keeps the faster, so a preemption inside one pass does not count.

use std::time::{Duration, Instant};

use crate::stats::Samples;
use crate::workload::mix;

/// The probe's time, in microseconds, at the reference speed: about its
/// median on a 2-vCPU Xeon guest in a calm period. It only scales the
/// reported figures back to milliseconds; any constant would do.
pub const REF_US: f64 = 45.0;
/// At most one probe per this much wall time (about 1% of a run).
const EVERY: Duration = Duration::from_millis(10);
/// Table words: 128 KiB of `u64`.
const WORDS: usize = 1 << 14;
/// Dependent reads per timed pass.
const READS: usize = 8_000;

pub struct CpuSpeed {
    table: Vec<u64>,
    us: Samples,
    last: Instant,
    at: u64,
}

impl CpuSpeed {
    pub fn new() -> CpuSpeed {
        CpuSpeed {
            table: (0..WORDS as u64).map(|i| mix(0x5EED, i)).collect(),
            us: Samples::default(),
            last: Instant::now(),
            at: 0,
        }
    }

    /// Times one probe if the last one is at least `EVERY` old.
    pub fn tick(&mut self) {
        if self.last.elapsed() < EVERY {
            return;
        }
        let mut h = self.at;
        for i in (0..WORDS).step_by(8) {
            h = h.wrapping_add(self.table[i]);
        }
        let mut best = f64::MAX;
        for _ in 0..2 {
            let start = Instant::now();
            for _ in 0..READS {
                h = h
                    .wrapping_add(self.table[h as usize & (WORDS - 1)])
                    .rotate_left(7);
            }
            best = best.min(start.elapsed().as_secs_f64() * 1e6);
        }
        self.at = std::hint::black_box(h);
        self.us.push(best);
        self.last = Instant::now();
    }

    pub fn len(&self) -> usize {
        self.us.len()
    }

    /// Quantile `q` of the probe times, in microseconds.
    pub fn pct_us(&mut self, q: f64) -> f64 {
        self.us.pct(q)
    }

    /// How much slower than the reference the run's CPU was: a time
    /// divided by this, or a rate multiplied by it, is at the reference
    /// speed.
    pub fn slowdown(&mut self) -> f64 {
        self.us.median() / REF_US
    }
}
