//! # oocq-bench
//!
//! Benchmark harness for the `oocq` workspace: a dependency-free
//! measurement core (this module), one bench target per experiment family
//! A1/B1–B6 of EXPERIMENTS.md, the `experiments` binary that regenerates
//! every paper-example verdict (E1–E8), and the `bench_*` binaries that
//! emit the machine-readable `BENCH_*.json` files tracked in the repository
//! root.
//!
//! ## Measurement model
//!
//! Each benchmark point is measured as the **median of `samples` batches**,
//! where a batch runs the closure enough times (`iters`, auto-calibrated)
//! that one batch takes at least `min_sample` wall-clock time. The median
//! over batches is robust against scheduler noise without needing an
//! external statistics crate. Knobs (environment variables):
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `OOCQ_BENCH_SAMPLES` | 11 | batches per point |
//! | `OOCQ_BENCH_MIN_SAMPLE_MS` | 5 | minimum batch wall-clock time |
//! | `OOCQ_BENCH_QUICK` | unset | set to `1` for a fast smoke run (3 × 1 ms) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

/// One measured benchmark point.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Median nanoseconds per iteration across batches.
    pub median_ns: f64,
    /// Fastest batch, nanoseconds per iteration.
    pub min_ns: f64,
    /// Slowest batch, nanoseconds per iteration.
    pub max_ns: f64,
    /// Iterations per batch (auto-calibrated).
    pub iters: u64,
    /// Number of batches measured.
    pub samples: usize,
}

impl Stats {
    /// Render a duration in adaptive units (`ns`, `µs`, `ms`, `s`).
    pub fn human(ns: f64) -> String {
        if ns < 1_000.0 {
            format!("{ns:.1} ns")
        } else if ns < 1_000_000.0 {
            format!("{:.2} µs", ns / 1_000.0)
        } else if ns < 1_000_000_000.0 {
            format!("{:.2} ms", ns / 1_000_000.0)
        } else {
            format!("{:.3} s", ns / 1_000_000_000.0)
        }
    }
}

/// Measurement configuration, usually read from the environment once per
/// bench binary.
#[derive(Debug, Clone, Copy)]
pub struct Harness {
    /// Batches per benchmark point.
    pub samples: usize,
    /// Minimum wall-clock nanoseconds per batch.
    pub min_sample_ns: u128,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::from_env()
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

impl Harness {
    /// Read the measurement knobs from the environment (see module docs).
    pub fn from_env() -> Harness {
        if std::env::var("OOCQ_BENCH_QUICK").is_ok_and(|v| v.trim() == "1") {
            return Harness {
                samples: 3,
                min_sample_ns: 1_000_000,
            };
        }
        Harness {
            samples: env_usize("OOCQ_BENCH_SAMPLES").unwrap_or(11).max(1),
            min_sample_ns: env_usize("OOCQ_BENCH_MIN_SAMPLE_MS").unwrap_or(5).max(1) as u128
                * 1_000_000,
        }
    }

    /// Measure `f`, printing one `group/id` line, and return the stats.
    ///
    /// The closure's return value is passed through [`std::hint::black_box`]
    /// so the work cannot be optimized away.
    pub fn run<R>(&self, group: &str, id: &str, mut f: impl FnMut() -> R) -> Stats {
        // Calibrate: grow the batch size until one batch meets the floor.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed().as_nanos();
            if elapsed >= self.min_sample_ns || iters >= 1 << 30 {
                break;
            }
            // Aim straight for the floor with 20% headroom, at least 2×.
            let target = (self.min_sample_ns as f64 * 1.2 / (elapsed.max(1) as f64 / iters as f64))
                .ceil() as u64;
            iters = target.max(iters * 2);
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let stats = Stats {
            median_ns: per_iter[per_iter.len() / 2],
            min_ns: per_iter[0],
            max_ns: per_iter[per_iter.len() - 1],
            iters,
            samples: per_iter.len(),
        };
        println!(
            "{group}/{id}: median {} (min {}, max {}; {} × {} iters)",
            Stats::human(stats.median_ns),
            Stats::human(stats.min_ns),
            Stats::human(stats.max_ns),
            stats.samples,
            stats.iters,
        );
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_meets_sample_floor() {
        let h = Harness {
            samples: 3,
            min_sample_ns: 100_000,
        };
        let mut n: u64 = 0;
        let stats = h.run("test", "spin", || {
            n = n.wrapping_add(1);
            n
        });
        assert!(stats.iters >= 1);
        assert!(stats.median_ns > 0.0);
        assert!(stats.min_ns <= stats.median_ns && stats.median_ns <= stats.max_ns);
    }

    #[test]
    fn human_units_scale() {
        assert!(Stats::human(12.0).ends_with("ns"));
        assert!(Stats::human(12_000.0).ends_with("µs"));
        assert!(Stats::human(12_000_000.0).ends_with("ms"));
        assert!(Stats::human(12_000_000_000.0).ends_with(" s"));
    }
}
