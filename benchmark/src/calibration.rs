//! The reference clock.
//!
//! The sandbox's CPU runs at (at least) two speeds about 1.7× apart and
//! moves between them every few minutes — turbo granted or withdrawn, or
//! a co-tenant on the sibling hardware thread; no steal time is reported
//! either way. Ten 15-second runs of one workload therefore read, say,
//! 82, 81, 74, 73, 72, 71, 70 and 46 operations per second, and which
//! side of that gap a run lands on has nothing to do with the code.
//!
//! A timer that counted cycles would not care. The guest cannot read a
//! cycle counter, so the harness keeps one by proxy: a fixed, cache-
//! resident integer kernel ([`sample_ms`]), sampled
//! around the operations of every pass. A latency is reported as
//!
//! ```text
//! reference ms = wall ms × REFERENCE_MS ÷ (kernel ms during that pass)
//! ```
//!
//! i.e. what the wall clock would have read had the kernel taken exactly
//! [`REFERENCE_MS`] — about what it takes at the fast speed. On the eight
//! runs above, operations per *reference* second read 81.0 to 87.5. Raw
//! latencies and every kernel sample stay in the result file, and
//! `bench.calibration_ms` is a per-layer metric, so nothing is hidden.

use crate::clock;
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time at which reference milliseconds equal wall milliseconds.
pub const REFERENCE_MS: f64 = 1.0;

/// The kernel: linear-congruential fill of a 32 KB buffer, then an
/// and-popcount sweep over it — no allocation, no memory traffic beyond
/// L1, nothing the operating system takes part in.
fn kernel(salt: u64) -> u64 {
    const ROUNDS: u32 = 96;
    let mut buf = [0u64; 4096];
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ salt;
    let mut acc = 0u64;
    for round in 0..ROUNDS {
        for slot in &mut buf {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *slot = x;
        }
        acc += buf
            .windows(2)
            .map(|w| u64::from((w[0] & w[1].rotate_left(round)).count_ones()))
            .sum::<u64>();
    }
    acc
}

/// Milliseconds the kernel takes right now, on the calling thread.
///
/// (Run on two threads at once it read double about one time in four —
/// whenever the scheduler started both on one virtual CPU — which says
/// something about short dispatches but nothing about the clock.)
pub fn sample_ms() -> f64 {
    let (out, secs) = clock::timed(|| kernel(0));
    black_box(out);
    secs * 1e3
}

/// Kernel samples over a stretch of work: one when it starts, one
/// whenever [`Sampler::tick`] is called and the latest is older than
/// 25 ms, one when it ends — so a pass is sampled about every 25 ms
/// however long its operations are.
#[derive(Debug)]
pub struct Sampler {
    samples: Vec<f64>,
    latest: Instant,
}

impl Sampler {
    /// Takes the first sample.
    pub fn start() -> Self {
        Self {
            samples: vec![sample_ms()],
            latest: clock::now(),
        }
    }

    /// Call between operations.
    pub fn tick(&mut self) {
        if clock::now().duration_since(self.latest).as_secs_f64() >= 0.025 {
            self.samples.push(sample_ms());
            self.latest = clock::now();
        }
    }

    /// Adds samples another thread took over the same stretch.
    pub fn absorb(&mut self, samples: Vec<f64>) {
        self.samples.extend(samples);
    }

    /// Takes the last sample and returns them all.
    pub fn finish(mut self) -> Vec<f64> {
        self.samples.push(sample_ms());
        self.samples
    }
}

/// Runs `f` and returns its duration in reference seconds, from three
/// kernel samples taken just before and three just after.
pub fn timed_at_reference<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let mut kernel_ms: Vec<f64> = (0..3).map(|_| sample_ms()).collect();
    let (out, secs) = clock::timed(f);
    kernel_ms.extend((0..3).map(|_| sample_ms()));
    (out, secs * REFERENCE_MS / median(&kernel_ms))
}
