//! Host-speed probe: a fixed `f32` kernel timed next to each measured
//! operation of host `f32` work, so its wall times can be reported at one
//! reference host speed.
//!
//! On a shared host, other tenants slow such work by up to 1.9× in phases
//! that last from seconds to many minutes, longer than a run. A run's raw
//! median then says more about the phase it fell in than about the
//! program. The probe is the benchmark's own code and never changes with
//! the program, so the ratio of an operation's wall time to the probe's
//! time next to it moves only when the program does.

use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::quartiles;

/// Rows, inner and output width of the probe's `f32` product: the shape
/// of a slice of the host encode GEMM (617 isolet features), about twenty
/// million multiply-adds, a few milliseconds.
const M: usize = 64;
const K: usize = 617;
const N: usize = 512;
/// Products per probe; the probe reports the fastest, so a single
/// interrupt does not count as a slow host.
const REPEATS: usize = 3;

/// The probe's time on the reference host: the fastest probe seen on an
/// uncontended 2-core Xeon VM. A wall time `t` measured next to a probe
/// time `p` is reported as `t · REFERENCE_S / p`, the time the operation
/// takes when the probe runs at this speed.
pub const REFERENCE_S: f64 = 0.0027;

fn inputs() -> &'static (Vec<f32>, Vec<f32>) {
    static INPUTS: OnceLock<(Vec<f32>, Vec<f32>)> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let a = (0..M * K).map(|i| (i % 97) as f32 * 0.01).collect();
        let b = (0..K * N).map(|i| (i % 89) as f32 * 0.01).collect();
        (a, b)
    })
}

/// Seconds the probe takes now (fastest of [`REPEATS`]).
pub fn measure() -> f64 {
    let (a, b) = inputs();
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let mut c = vec![0f32; M * N];
        for (a_row, c_row) in a.chunks_exact(K).zip(c.chunks_exact_mut(N)) {
            for (&av, b_row) in a_row.iter().zip(b.chunks_exact(N)) {
                for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                    *cj += av * bj;
                }
            }
        }
        std::hint::black_box(&c);
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The factor that takes wall seconds measured between probes `before`
/// and `after` to the reference host speed.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_S * 2.0 / (before + after)
}

/// Probes taken between consecutive operations: each operation is
/// bracketed by the probe before it and the probe after it.
#[derive(Debug)]
pub struct Probes {
    /// Every probe time so far, in order.
    pub times: Vec<f64>,
}

impl Probes {
    /// Takes the probe before the first operation.
    pub fn start() -> Self {
        Self {
            times: vec![measure()],
        }
    }

    /// Takes the probe after an operation and returns that operation's
    /// [`scale`].
    pub fn after_op(&mut self) -> f64 {
        let before = *self.times.last().expect("start() took a probe");
        let after = measure();
        self.times.push(after);
        scale(before, after)
    }
}

/// The human-readable summary of a run's probes: how fast the host ran
/// during the run, relative to the reference.
pub fn probe_line(times: &[f64]) -> String {
    let [q1, med, q3] = quartiles(times);
    format!(
        "host probe: {} probes, q1/median/q3 {:.3}/{:.3}/{:.3} ms (reference {:.3} ms); wall times above the metrics are raw, metrics are at reference speed",
        times.len(),
        q1 * 1e3,
        med * 1e3,
        q3 * 1e3,
        REFERENCE_S * 1e3
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_leaves_times_unchanged() {
        assert_eq!(scale(REFERENCE_S, REFERENCE_S), 1.0);
    }

    #[test]
    fn a_host_twice_as_slow_halves_the_reported_time() {
        let slow = 2.0 * REFERENCE_S;
        assert_eq!(scale(slow, slow), 0.5);
        assert_eq!(scale(REFERENCE_S, 3.0 * REFERENCE_S), 0.5);
    }

    #[test]
    fn probe_takes_time() {
        assert!(measure() > 0.0);
    }
}
