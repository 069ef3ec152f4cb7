//! Shared harness for the `repro`, `bench_run` and `bench_kernels`
//! binaries and the `ablations` bench: the command-line parser ([`cli`])
//! and a small std-only timing loop ([`time_fn`]; no external benchmark
//! framework, so the workspace builds fully offline). Per-pass timings
//! come from `bench_run`'s run report, which times every analysis pass.

use std::time::Instant;

pub mod cli;

/// Times `f` over `samples` iterations (after one warm-up call) and prints
/// a one-line min/mean/max summary. Returns the mean in seconds.
pub fn time_fn<R>(name: &str, samples: u32, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f()); // warm-up
    let mut times = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    let mean = times.iter().sum::<f64>() / f64::from(samples);
    println!(
        "bench {name:40} min {:>9} mean {:>9} max {:>9}",
        fmt_s(min),
        fmt_s(mean),
        fmt_s(max)
    );
    mean
}

fn fmt_s(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.1}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{secs:.3}s")
    }
}
