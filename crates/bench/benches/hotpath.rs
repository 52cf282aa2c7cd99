//! Hot-path benchmark: batched GP posterior vs scalar prediction, the
//! register-blocked triangular kernels vs their textbook loops, and the
//! parallel multi-start / parallel training fan-out vs the sequential
//! legacy path.
//!
//! Prints a table and writes `BENCH_hotpath.json` at the repository root
//! with the measured times, speedups, the host thread count, and a
//! bit-identity verdict for every comparison. Repetition count
//! comes from `EASYBO_REPS` (default 5); each cell reports the best
//! (minimum) wall-clock across repetitions.

use std::time::Instant;

use easybo_bench::{bench_report, host_threads, write_bench_report, BenchRecord};
use easybo_gp::{ArdKernel, Gp, GpConfig, KernelFamily, TrainConfig};
use easybo_linalg::{Cholesky, Matrix, Vector};
use easybo_opt::{sampling, Bounds, MultiStartMaximizer, Parallelism};
use rand::SeedableRng;

/// Deterministic training data on the unit cube: `n` points, `d` dims.
fn training_data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let bounds = Bounds::unit_cube(d).expect("unit cube");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let xs = sampling::latin_hypercube(&bounds, n, &mut rng);
    let ys: Vec<f64> = xs
        .iter()
        .map(|p| {
            p.iter()
                .enumerate()
                .map(|(i, v)| (v * (i + 1) as f64).sin())
                .sum()
        })
        .collect();
    (xs, ys)
}

fn fitted_gp(n: usize, d: usize) -> Gp {
    let (xs, ys) = training_data(n, d, 7);
    Gp::fit_with_params(
        xs,
        ys,
        KernelFamily::SquaredExponential,
        vec![0.0; d + 1],
        (1e-4f64).ln(),
    )
    .expect("fits")
}

/// Best-of-`reps` wall-clock of `f`, in seconds.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(v);
    }
    (best, out.expect("reps >= 1"))
}

/// predict_batch on `m` probes vs `m` scalar `predict` calls.
fn bench_predict_batch(rows: &mut Vec<BenchRecord>, reps: usize, label: &str, n: usize, d: usize) {
    let gp = fitted_gp(n, d);
    let bounds = Bounds::unit_cube(d).expect("unit cube");
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let probes = sampling::uniform(&bounds, 256, &mut rng);

    let (scalar_s, scalar) = time_best(reps, || {
        probes.iter().map(|p| gp.predict(p)).collect::<Vec<_>>()
    });
    let (batch_s, batch) = time_best(reps, || gp.predict_batch(&probes));
    let identical = scalar
        .iter()
        .zip(&batch)
        .all(|(a, b)| a.mean.to_bits() == b.mean.to_bits());
    rows.push(BenchRecord::from_seconds(
        format!("predict_batch_vs_scalar_{label}_n{n}_d{d}_m256"),
        scalar_s,
        batch_s,
        identical,
    ));
}

/// Cholesky factor of a 10-d SE-ARD training covariance with `n` points.
fn training_factor(n: usize) -> (Cholesky, ArdKernel, Vec<Vec<f64>>) {
    let (xs, _) = training_data(n, 10, 7);
    let kernel = ArdKernel::new(KernelFamily::SquaredExponential, 10);
    let mut k = kernel.covariance(&kernel.default_theta(), &xs);
    k.add_diagonal(1e-4);
    (Cholesky::new(&k).expect("SPD"), kernel, xs)
}

/// Textbook forward substitution: one serial dependency chain per row.
fn solve_lower_textbook(l: &Matrix, b: &Vector) -> Vector {
    let n = l.rows();
    let mut y = Vector::zeros(n);
    for i in 0..n {
        let mut v = b[i];
        let row = l.row(i);
        for k in 0..i {
            v -= row[k] * y[k];
        }
        y[i] = v / row[i];
    }
    y
}

/// Textbook multi-RHS forward substitution: one k-term per pass over row i.
fn solve_lower_multi_textbook(l: &Matrix, b: &Matrix) -> Matrix {
    let (n, m) = (l.rows(), b.cols());
    let mut y = b.clone();
    let data = y.as_mut_slice();
    for i in 0..n {
        let li = l.row(i);
        let (done, rest) = data.split_at_mut(i * m);
        let yi = &mut rest[..m];
        for (k, &lik) in li[..i].iter().enumerate() {
            for (a, &v) in yi.iter_mut().zip(&done[k * m..(k + 1) * m]) {
                *a -= lik * v;
            }
        }
        for a in yi.iter_mut() {
            *a /= li[i];
        }
    }
    y
}

/// Best-of-`reps` per-call seconds of `iters` back-to-back calls of `f`.
fn time_per_call<T>(reps: usize, iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (s, v) = time_best(reps, || {
        for _ in 1..iters {
            std::hint::black_box(f());
        }
        f()
    });
    (s / iters as f64, v)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The blocked triangular kernels of `easybo-linalg` against bench-local
/// copies of the textbook loops they replaced, at op-amp cell sizes.
fn bench_triangular_kernels(rows: &mut Vec<BenchRecord>, reps: usize) {
    let (chol, kernel, xs) = training_factor(164);
    let theta = kernel.default_theta();
    let bounds = Bounds::unit_cube(10).expect("unit cube");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let probes = sampling::uniform(&bounds, 440, &mut rng);

    let b = kernel.column(&theta, &xs, &probes[0]);
    let (text_s, text) = time_per_call(reps, 2000, || {
        solve_lower_textbook(chol.factor(), std::hint::black_box(&b))
    });
    let (block_s, block) = time_per_call(reps, 2000, || chol.solve_lower(std::hint::black_box(&b)));
    rows.push(BenchRecord::from_seconds(
        "solve_lower_blocked_vs_textbook_n164",
        text_s,
        block_s,
        same_bits(text.as_slice(), block.as_slice()),
    ));

    let kstar = kernel.cross_covariance(&theta, &xs, &probes);
    let (text_s, text) = time_per_call(reps, 10, || {
        solve_lower_multi_textbook(chol.factor(), &kstar)
    });
    let (block_s, block) = time_per_call(reps, 10, || chol.solve_lower_multi(&kstar));
    rows.push(BenchRecord::from_seconds(
        "solve_lower_multi_blocked_vs_textbook_n164_m440",
        text_s,
        block_s,
        same_bits(text.as_slice(), block.as_slice()),
    ));

    // Baseline: the full two-sweep inverse, `solve_mat(&identity)` over the
    // textbook forward loop. Only the lower triangles are compared — the
    // lower-only inverse mirrors its upper triangle instead of computing it.
    let (chol, _, _) = training_factor(111);
    let n = chol.dim();
    let (full_s, full) = time_per_call(reps, 50, || {
        let y = solve_lower_multi_textbook(chol.factor(), &Matrix::identity(n));
        chol.solve_lower_transpose_multi(&y)
    });
    let (lower_s, lower) = time_per_call(reps, 50, || chol.inverse());
    rows.push(BenchRecord::from_seconds(
        "inverse_lower_vs_full_n111",
        full_s,
        lower_s,
        (0..n).all(|i| same_bits(&full.row(i)[..=i], &lower.row(i)[..=i])),
    ));
}

/// Multi-start acquisition maximization at k=8 vs the sequential path.
fn bench_parallel_multistart(rows: &mut Vec<BenchRecord>, reps: usize, d: usize) {
    let gp = fitted_gp(200, d);
    let bounds = Bounds::unit_cube(d).expect("unit cube");
    let ms = MultiStartMaximizer::new(64.max(44 * d), 8, 100.max(14 * d));
    let acq = |p: &[f64]| {
        let pr = gp.predict(p);
        0.65 * pr.mean + 0.35 * pr.variance.max(0.0).sqrt()
    };
    let run = |k: usize| {
        ms.maximize_batched(
            &bounds,
            &mut rand::rngs::StdRng::seed_from_u64(3),
            Parallelism::new(k),
            &acq,
        )
    };
    let (seq_s, seq) = time_best(reps, || run(1));
    let (par_s, par) = time_best(reps, || run(8));
    rows.push(BenchRecord::from_seconds(
        format!("parallel_multistart_k8_vs_k1_d{d}"),
        seq_s,
        par_s,
        seq.x == par.x && seq.value.to_bits() == par.value.to_bits(),
    ));
}

/// GP hyperparameter training with 8 restart workers vs sequential.
fn bench_parallel_train(rows: &mut Vec<BenchRecord>, reps: usize, n: usize, d: usize) {
    let (xs, ys) = training_data(n, d, 13);
    let fit = |k: usize| {
        let config = GpConfig {
            train: TrainConfig {
                restarts: 7,
                parallelism: Parallelism::new(k),
                ..TrainConfig::default()
            },
            ..GpConfig::default()
        };
        Gp::fit(xs.clone(), ys.clone(), config).expect("fits")
    };
    let (seq_s, seq) = time_best(reps, || fit(1));
    let (par_s, par) = time_best(reps, || fit(8));
    let identical =
        seq.theta() == par.theta() && seq.log_noise().to_bits() == par.log_noise().to_bits();
    rows.push(BenchRecord::from_seconds(
        format!("parallel_train_k8_vs_k1_n{n}_d{d}"),
        seq_s,
        par_s,
        identical,
    ));
}

fn main() {
    let reps: usize = std::env::var("EASYBO_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    println!(
        "Hot-path benchmark: {reps} repetitions, {} host thread(s)",
        host_threads()
    );

    let mut rows = Vec::new();
    // Table I / Table II problem sizes: 10-d op-amp, 12-d class-E PA.
    bench_predict_batch(&mut rows, reps, "opamp", 400, 10);
    bench_predict_batch(&mut rows, reps, "class_e", 400, 12);
    bench_triangular_kernels(&mut rows, reps);
    bench_parallel_multistart(&mut rows, reps, 10);
    bench_parallel_train(&mut rows, reps, 200, 10);

    println!(
        "{:<48} {:>12} {:>12} {:>9} {:>10}",
        "benchmark", "baseline_s", "candidate_s", "speedup", "identical"
    );
    for r in &rows {
        println!(
            "{:<48} {:>12.6} {:>12.6} {:>8.2}x {:>10}",
            r.name,
            r.baseline_ns / 1e9,
            r.candidate_ns / 1e9,
            r.speedup(),
            r.identical
        );
    }

    let json = bench_report(
        "hotpath",
        reps,
        "baseline = scalar/sequential/textbook path, candidate = batched/parallel/blocked \
         path; best-of-reps wall clock (per call for the triangular-kernel rows). Thread \
         speedups require host_threads > 1; on a single-core host the parallel rows measure \
         fan-out overhead only, while the predict_batch rows are algorithmic and \
         host-independent.",
        &rows,
    );
    let path = write_bench_report("BENCH_hotpath.json", &json);
    println!("wrote {path}");

    assert!(
        rows.iter().all(|r| r.identical),
        "batched/blocked/parallel results must be bit-identical to their baseline path"
    );
}
