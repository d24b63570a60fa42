//! The training workload: the `train_epoch` loop over a small MLP on
//! RNS-BFP arithmetic under a one-thread `ParallelGemm`, checked
//! against a serial BFP reference.

use crate::loadgen::{self, median};
use crate::probes;
use crate::report::{peak_rss_mb, Outcome};
use crate::timed::{GemmSpan, Recorder, Timed};
use crate::trace::{self, Span};
use mirage_core::Mirage;
use mirage_models::datasets::synthetic_images;
use mirage_models::small::small_mlp;
use mirage_nn::loss::{accuracy, softmax_cross_entropy};
use mirage_nn::optim::{Optimizer, Sgd};
use mirage_nn::train::{train_epoch, Batch};
use mirage_nn::{Engines, Sequential};
use mirage_tensor::faults::FaultCounts;
use mirage_tensor::parallel::{ParallelGemm, TileConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::sync::Arc;
use std::time::Instant;

/// The workload's frozen configuration.
pub const NAME: &str = "train-rnsbfp-mlp";
/// Images are `SIDE × SIDE`, flattened to `SIDE²` inputs.
const SIDE: usize = 16;
const HIDDEN: usize = 256;
const CLASSES: usize = 10;
const BATCH: usize = 64;
const SAMPLES_PER_CLASS: usize = 128;
const NOISE: f32 = 0.5;
const LR: f32 = 0.01;
const MOMENTUM: f32 = 0.9;
/// Worker threads of the `ParallelGemm`. One, so `ParallelGemm` takes
/// its serial path: on a 2-CPU host shared with neighbours, two threads
/// time whether the second CPU happens to be free (steps of 17 to 31 ms
/// against 28 to 30 ms for one thread, idle host against one busy
/// neighbour thread).
const THREADS: usize = 1;
/// Step-time limit of `slo_attain`.
const STEP_SLO_MS: f64 = 100.0;
/// Leading steps whose losses must equal the serial BFP reference bit
/// for bit (they also warm the run up).
const CHECKED_STEPS: usize = 4;
/// Plain steps, and as many traced steps, of the traced run.
const TRACED_STEPS: usize = 150;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 61;

/// Initial weights are part of the system, not of the input.
const MODEL_SEED: u64 = 4242;
/// Segments the timed window is cut into (see `run`).
const SEGMENTS: usize = 10;
/// Losses averaged at each end of the run for the "loss fell" check.
const LOSS_WINDOW: usize = 20;

type Res<T> = Result<T, Box<dyn Error>>;

/// The frozen configuration as JSON, for `--describe`.
pub fn describe() -> String {
    format!(
        "{{\"name\": \"{NAME}\", \"model\": \"small_mlp({}, {HIDDEN}, {CLASSES})\", \
         \"data\": \"synthetic_images({CLASSES}, {SAMPLES_PER_CLASS}, {SIDE}, {NOISE}) flattened\", \
         \"batch\": {BATCH}, \"optimizer\": \"Sgd::with_momentum({LR}, {MOMENTUM})\", \
         \"engine\": \"ParallelGemm(rns_gemm_engine, threads {THREADS})\", \
         \"step_slo_ms\": {STEP_SLO_MS}, \"checked_steps\": {CHECKED_STEPS}, \
         \"traced_steps\": {TRACED_STEPS}, \"setup_reps\": {SETUP_REPS}}}",
        SIDE * SIDE
    )
}

fn network() -> Sequential {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    small_mlp(SIDE * SIDE, HIDDEN, CLASSES, &mut rng)
}

fn optimizer() -> Sgd {
    Sgd::with_momentum(LR, MOMENTUM)
}

/// Flattened training batches drawn from the run's seed.
fn batches(seed: u64) -> Res<Vec<Batch>> {
    let dim = SIDE * SIDE;
    synthetic_images(CLASSES, SAMPLES_PER_CLASS, SIDE, NOISE, BATCH, seed)
        .into_iter()
        .filter(|b| b.labels.len() == BATCH)
        .map(|b| {
            Ok(Batch {
                inputs: b.inputs.reshape(&[BATCH, dim])?,
                labels: b.labels,
            })
        })
        .collect()
}

/// The system under test: network, optimizer state and engines.
struct System {
    net: Sequential,
    opt: Sgd,
    engines: Engines,
    parallel: ParallelGemm<mirage_tensor::engines::RnsBfpEngine>,
}

fn set_up() -> Res<System> {
    let config = TileConfig::auto().with_threads(THREADS);
    let parallel = ParallelGemm::new(Mirage::paper_default().rns_gemm_engine()?, config);
    Ok(System {
        net: network(),
        opt: optimizer(),
        engines: Engines::uniform(parallel.clone()),
        parallel,
    })
}

/// One `train_epoch` step over one batch; returns its loss.
fn step(system: &mut System, batch: &Batch) -> Res<f32> {
    let stats = train_epoch(
        &mut system.net,
        std::slice::from_ref(batch),
        &mut system.opt,
        &system.engines,
    )?;
    Ok(stats.loss)
}

/// Losses of the first `steps` steps on the serial BFP engine.
fn reference_losses(data: &[Batch], steps: usize) -> Res<Vec<f32>> {
    let mut net = network();
    let mut opt = optimizer();
    let engines = Engines::uniform(Mirage::paper_default().gemm_engine());
    (0..steps)
        .map(|i| {
            let stats = train_epoch(
                &mut net,
                std::slice::from_ref(&data[i % data.len()]),
                &mut opt,
                &engines,
            )?;
            Ok(stats.loss)
        })
        .collect()
}

fn mean(v: &[f32]) -> f64 {
    v.iter().map(|&x| f64::from(x)).sum::<f64>() / v.len().max(1) as f64
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Res<Outcome> {
    let mut out = Outcome::new();
    let reps = if trace { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::with_capacity(reps);
    let mut system = None;
    for _ in 0..reps {
        drop(system.take());
        let t = Instant::now();
        system = Some(set_up()?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut system = system.expect("at least one set-up");
    let setup_s = median(&loadgen::sorted(setup_times));

    let data = batches(seed)?;
    let want = reference_losses(&data, CHECKED_STEPS)?;
    let mut losses = Vec::new();
    for (i, want) in want.iter().enumerate() {
        let loss = step(&mut system, &data[i % data.len()])?;
        if loss.to_bits() != want.to_bits() {
            out.violation(format!(
                "step {i}: loss {loss} differs from the serial BFP reference {want}"
            ));
        }
        losses.push(loss);
    }

    if !trace {
        let mut step_ms = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let batch = &data[losses.len() % data.len()];
            let t = Instant::now();
            losses.push(step(&mut system, batch)?);
            step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        out.attempted = (CHECKED_STEPS + step_ms.len()) as u64;
        check_learning(&losses, &mut out);
        let within = step_ms.iter().filter(|&&t| t <= STEP_SLO_MS).count();
        // The median step time comes from the better half of the
        // window's segments (see `loadgen::best_half`), and the throughput
        // is a batch per median step. The fastest tenth of the steps
        // would be noisier: how many fast steps a run gets follows the
        // host.
        // `slo_attain` counts every step.
        let steps = step_ms.len();
        if steps < SEGMENTS {
            return Err("too few steps in the window".into());
        }
        let segments = step_ms
            .chunks(steps.div_ceil(SEGMENTS))
            .map(<[f64]>::to_vec)
            .collect();
        let p50_ms = median(&loadgen::best_half(segments));
        out.push("p50_ms", p50_ms, "ms");
        out.push("slo_attain", within as f64 / steps as f64, "ratio");
        out.push("saturation_rps", BATCH as f64 * 1e3 / p50_ms, "1/s");
        out.push("setup_s", setup_s, "s");
        out.push("peak_rss_mb", peak_rss_mb(), "MiB");
        return Ok(out);
    }

    // Traced run: plain steps and steps through the timed engines
    // alternate over one stretch of training, so the tracing overhead is
    // measured under the same host load. Spans mark forward, loss,
    // backward and the optimizer step; the outer decorator sees the
    // layers' GEMM calls, the inner one `ParallelGemm`'s bands.
    let epoch = Instant::now();
    let outer = Recorder::new(epoch);
    let inner = Recorder::new(epoch);
    let timed_parallel = ParallelGemm::new(
        Timed::new(system.parallel.inner().clone(), Arc::clone(&inner)),
        system.parallel.config(),
    );
    let engines = Engines::uniform(Timed::new(timed_parallel, Arc::clone(&outer)));
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut spans: Vec<Span> = Vec::new();
    let (mut fwd, mut bwd, mut opt_ms) = (vec![], vec![], vec![]);
    let (mut plain_ms, mut traced_ms) = (vec![], vec![]);
    let mut one_step: Vec<GemmSpan> = Vec::new();
    let mut gemms: Vec<GemmSpan> = Vec::new();
    for i in 0..2 * TRACED_STEPS {
        let id = losses.len() as u64;
        let batch = &data[losses.len() % data.len()];
        let t0 = Instant::now();
        if i % 2 == 0 {
            losses.push(step(&mut system, batch)?);
            plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            continue;
        }
        system.net.zero_grads();
        let logits = system.net.forward(&batch.inputs, &engines)?;
        let t1 = Instant::now();
        let (loss, d) = softmax_cross_entropy(&logits, &batch.labels)?;
        std::hint::black_box(accuracy(&logits, &batch.labels));
        let t2 = Instant::now();
        system.net.backward(&d, &engines)?;
        let t3 = Instant::now();
        system.opt.step(&mut system.net);
        let t4 = Instant::now();
        losses.push(loss);
        spans.push(Span::new("step", id, "", ns(t0), ns(t4)));
        spans.push(Span::new("forward", id, "step", ns(t0), ns(t1)));
        spans.push(Span::new("loss", id, "step", ns(t1), ns(t2)));
        spans.push(Span::new("backward", id, "step", ns(t2), ns(t3)));
        spans.push(Span::new("optim", id, "step", ns(t3), ns(t4)));
        fwd.push((t1 - t0).as_secs_f64() * 1e3);
        bwd.push((t3 - t2).as_secs_f64() * 1e3);
        opt_ms.push((t4 - t3).as_secs_f64() * 1e3);
        traced_ms.push((t4 - t0).as_secs_f64() * 1e3);
        if one_step.is_empty() {
            one_step = outer.take();
            gemms.extend_from_slice(&one_step);
        }
    }
    out.attempted = (CHECKED_STEPS + 2 * TRACED_STEPS) as u64;
    check_learning(&losses, &mut out);
    gemms.extend(outer.take());
    let bands = inner.take();
    let traced_p50 = median(&loadgen::sorted(traced_ms));
    let untraced_p50 = median(&loadgen::sorted(plain_ms));

    out.push("loadgen.lag_p99_ms", 0.0, "ms");
    for name in [
        "serve.queue_wait_p50_ms",
        "serve.queue_wait_p99_ms",
        "serve.service_p50_ms",
    ] {
        out.push(name, 0.0, "ms");
    }
    out.push("serve.batch_mean", 0.0, "count");
    out.push("serve.deadline_flush_frac", 0.0, "ratio");
    out.push("plan.gemm_frac", 0.0, "ratio");
    out.push_gemms(&gemms);
    let workers = gemms
        .iter()
        .map(|g| system.parallel.planned_workers(g.m, g.k, g.n))
        .max()
        .unwrap_or(0);
    out.push("parallel.workers", workers as f64, "count");
    let capacity_ns: f64 = gemms
        .iter()
        .map(|g| g.duration_ns() as f64 * system.parallel.planned_workers(g.m, g.k, g.n) as f64)
        .sum();
    let band_ns: u64 = bands.iter().map(GemmSpan::duration_ns).sum();
    out.push(
        "parallel.busy_frac",
        band_ns as f64 / capacity_ns.max(1.0),
        "ratio",
    );

    let mirage = Mirage::paper_default();
    let shapes = probes::shape_counts(&gemms);
    let moduli = &mirage.config().moduli;
    out.push(
        "bfp.quantize_ns_per_elem",
        probes::bfp_quantize_ns_per_elem(mirage.bfp_config(), &shapes),
        "ns",
    );
    out.push(
        "rns.forward_ns_per_elem",
        probes::rns_forward_ns_per_elem(mirage.bfp_config(), moduli, &shapes),
        "ns",
    );
    out.push(
        "rns.reverse_ns_per_value",
        probes::rns_reverse_ns_per_value(mirage.bfp_config(), moduli, &shapes),
        "ns",
    );
    out.push_faults(FaultCounts::ZERO);
    out.push("rrns.correct_us_per_call", 0.0, "us");
    out.push("train.forward_ms", median(&loadgen::sorted(fwd)), "ms");
    out.push("train.backward_ms", median(&loadgen::sorted(bwd)), "ms");
    out.push("train.optim_ms", median(&loadgen::sorted(opt_ms)), "ms");
    out.push(
        "arch.modeled_ms",
        probes::modeled_ms(
            mirage.config(),
            &one_step.iter().map(|g| (g.m, g.k, g.n)).collect::<Vec<_>>(),
        ),
        "ms",
    );
    out.push("trace.p50_ms", traced_p50, "ms");
    out.push("trace.untraced_p50_ms", untraced_p50, "ms");
    out.push(
        "trace.overhead_frac",
        traced_p50 / untraced_p50 - 1.0,
        "ratio",
    );

    let phases: Vec<Span> = spans
        .iter()
        .filter(|s| s.name == "forward" || s.name == "backward")
        .copied()
        .collect();
    spans.extend(trace::attribute("gemm", &gemms, &phases));
    let steps: Vec<Span> = spans.iter().filter(|s| s.name == "step").copied().collect();
    spans.extend(trace::attribute("band", &bands, &steps));
    let path = trace::write(NAME, &spans)?;
    eprintln!("trace: {} spans written to {}", spans.len(), path.display());
    Ok(out)
}

/// Training must make progress: the mean loss of the last steps is
/// below that of the first steps.
fn check_learning(losses: &[f32], out: &mut Outcome) {
    let w = LOSS_WINDOW.min(losses.len() / 2).max(1);
    let (first, last) = (mean(&losses[..w]), mean(&losses[losses.len() - w..]));
    if last >= first {
        out.violation(format!(
            "loss did not fall: first {w} steps {first:.4}, last {w} steps {last:.4}"
        ));
    }
}
