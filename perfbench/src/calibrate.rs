//! Host-speed calibration for the end-to-end timings.
//!
//! A shared virtual machine can run in performance phases far apart: on
//! the 2-vCPU 2.1 GHz Xeon VM this benchmark was defined on, identical
//! passes took 1.5x longer in slow phases lasting from seconds to many
//! minutes, so whole sets of runs shifted by more than any bound the
//! benchmark can hold. Before every pass the benchmark therefore times
//! [`kernel`], a fixed one-sided Jacobi SVD sweep (the classifier's core
//! operation) that no change to the program can touch, and scales the
//! pass's timings by [`REFERENCE_S`] over the kernel's time. Timings are
//! then in milliseconds at the reference host speed: a program change
//! moves them as it moves host wall time, a host phase much less. The
//! kernel slows somewhat more than the program in slow phases, so the
//! correction overshoots a little; the raw figures are printed beside
//! the scaled ones.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference host speed: its fast-phase time on
/// the VM described in the module docs.
pub const REFERENCE_S: f64 = 0.05;

/// Runs the calibration kernel once and returns its wall time in
/// seconds.
pub fn kernel_s() -> f64 {
    let t0 = Instant::now();
    black_box(kernel());
    t0.elapsed().as_secs_f64()
}

/// Eight one-sided Jacobi sweeps over a fixed 80x24 matrix, 120 times.
fn kernel() -> f64 {
    const M: usize = 80;
    const N: usize = 24;
    let mut checksum = 0.0;
    for rep in 0..120u64 {
        let mut a: Vec<f64> = (0..M * N)
            .map(|i| ((i as u64 * 2_654_435_761 + rep) % 1000) as f64 * 1e-3 - 0.5)
            .collect();
        for _sweep in 0..8 {
            for p in 0..N {
                for q in p + 1..N {
                    let (mut alpha, mut beta, mut gamma) = (0.0, 0.0, 0.0);
                    for row in a.chunks_exact(N) {
                        alpha += row[p] * row[p];
                        beta += row[q] * row[q];
                        gamma += row[p] * row[q];
                    }
                    if gamma.abs() < 1e-15 {
                        continue;
                    }
                    let zeta = (beta - alpha) / (2.0 * gamma);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for row in a.chunks_exact_mut(N) {
                        let (x, y) = (row[p], row[q]);
                        row[p] = c * x - s * y;
                        row[q] = s * x + c * y;
                    }
                }
            }
        }
        checksum += black_box(&a)[0];
    }
    checksum
}
