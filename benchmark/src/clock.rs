//! The harness's one clock.
//!
//! Every timing in the benchmark goes through [`now`], so the wall-clock
//! lint (`polygamy-lint`, rule `wall-clock`) has exactly one reasoned
//! suppression to audit in this package.

use std::time::Instant;

/// The current instant.
pub fn now() -> Instant {
    // lint: allow(wall-clock, reason = "the benchmark harness exists to measure wall time; readings are reported, never fed back into the program under test")
    Instant::now()
}

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    now().duration_since(t0).as_secs_f64()
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now();
    let out = f();
    (out, secs_since(t0))
}
