//! The serving workloads: one `ModelServer` over a compiled
//! Transformer feed-forward proxy, driven by seeded open-loop Poisson
//! arrivals of single-row requests, every answer checked.

use crate::loadgen::{self, drive_open_loop, median, p99, poisson_schedule, Sample};
use crate::probes;
use crate::report::{peak_rss_mb, Outcome};
use crate::timed::{GemmSpan, Recorder, Timed};
use crate::trace::{self, Span};
use mirage_core::serve::{BatchMode, ModelServer, ServeError, ServerConfig, ServerStats};
use mirage_core::Mirage;
use mirage_models::serving::transformer_ff_proxy;
use mirage_nn::{Engines, Sequential};
use mirage_rns::ModuliSet;
use mirage_tensor::faults::{FaultConfig, FaultCounts, FaultInjector};
use mirage_tensor::{GemmEngine, Tensor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The arithmetic a serving workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Datapath {
    /// Serial BFP (`Mirage::gemm_engine`, SIMD auto): no residue work.
    Bfp,
    /// RRNS-protected RNS-BFP with the [`REDUNDANT`] channels, its
    /// residue words corrupted at [`FAULT_RATE`] per word.
    ProtectedRns,
}

/// A serving workload's frozen configuration: what differs between the
/// two serving workloads. Everything they share is a constant below.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub name: &'static str,
    /// Width of `transformer_ff_proxy(hidden, BLOCKS, CLASSES)`.
    pub hidden: usize,
    pub datapath: Datapath,
    pub batch_mode: BatchMode,
    /// Offered open-loop arrival rate.
    pub rate_per_s: f64,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl ServeSpec {
    /// The frozen configuration as JSON, for `--describe`.
    pub fn describe(&self) -> String {
        let (redundant, fault_rate, fault_seed) = match self.datapath {
            Datapath::Bfp => (String::from("[]"), 0.0, 0),
            Datapath::ProtectedRns => (format!("{REDUNDANT:?}"), FAULT_RATE, FAULT_SEED),
        };
        format!(
            "{{\"name\": \"{}\", \"model\": \"transformer_ff_proxy({}, {BLOCKS}, {CLASSES})\", \
             \"datapath\": \"{:?}\", \"redundant_moduli\": {redundant}, \
             \"fault_rate\": {fault_rate}, \"fault_seed\": {fault_seed}, \
             \"batch_mode\": \"{:?}\", \"max_batch\": {MAX_BATCH}, \"max_delay_ms\": {}, \
             \"workers\": 1, \"load\": \"open-loop Poisson\", \"offered_rps\": {}, \
             \"slo_ms\": {}, \"burst\": {BURST}, \"setup_reps\": {}}}",
            self.name,
            self.hidden,
            self.datapath,
            self.batch_mode,
            MAX_DELAY.as_secs_f64() * 1e3,
            self.rate_per_s,
            SLO.as_secs_f64() * 1e3,
            self.setup_reps,
        )
    }
}

/// Feed-forward blocks and classes of the served proxy model.
const BLOCKS: usize = 2;
const CLASSES: usize = 10;
/// The server's coalescing limits: `ServerConfig`'s defaults.
const MAX_BATCH: usize = 32;
const MAX_DELAY: Duration = Duration::from_millis(2);
/// Requests of each saturation burst (all due at t = 0).
const BURST: usize = 256;
/// Latency limit of `slo_attain`, from the intended send time.
const SLO: Duration = Duration::from_millis(25);
/// The two smallest primes above the paper's special set, as the
/// redundant RRNS channels.
const REDUNDANT: [u64; 2] = [37, 41];
/// Residue-word flip rate. Low enough that the frozen fault stream never
/// puts two flips into one group result during a run, so every fault is
/// corrected and no request fails.
const FAULT_RATE: f64 = 1e-5;
/// The fault stream is part of the system under test: every run meets
/// the same fault pattern, so fault counts repeat run to run.
const FAULT_SEED: u64 = 9800;

/// Model weights are part of the system under test, not of its input:
/// one frozen seed for every run.
const MODEL_SEED: u64 = 9001;
/// Distinct request inputs per run, drawn from the run's seed.
const POOL: usize = 128;
/// Requests served before anything is measured.
const WARMUP: usize = 64;
/// Open-loop segments per run, each followed by a saturation burst.
const SEGMENTS: usize = 10;
/// Segments of the traced run's window, alternating plain and traced.
const TRACE_SEGMENTS: usize = 6;
/// Deep enough that the open loop is never refused at the offered rates.
const QUEUE_CAPACITY: usize = 16_384;
/// Every `EAGER_EVERY`-th pool input is also checked against the eager
/// forward pass.
const EAGER_EVERY: usize = 8;

type Res<T> = Result<T, Box<dyn Error>>;

/// The system under test, as set-up builds it.
struct System {
    net: Sequential,
    server: ModelServer,
    injector: Option<Arc<FaultInjector>>,
}

fn server_config(spec: &ServeSpec) -> ServerConfig {
    ServerConfig::default()
        .with_max_batch(MAX_BATCH)
        .with_max_delay(MAX_DELAY)
        .with_queue_capacity(QUEUE_CAPACITY)
        .with_workers(1)
        .with_batch_mode(spec.batch_mode)
}

/// The workload's engines, optionally under the timing decorator.
fn engines(
    spec: &ServeSpec,
    injector: Option<&Arc<FaultInjector>>,
    recorder: Option<&Arc<Recorder>>,
) -> Res<Engines> {
    fn wrap(engine: impl GemmEngine + 'static, recorder: Option<&Arc<Recorder>>) -> Engines {
        match recorder {
            None => Engines::uniform(engine),
            Some(r) => Engines::uniform(Timed::new(engine, Arc::clone(r))),
        }
    }
    let mirage = Mirage::paper_default();
    Ok(match spec.datapath {
        Datapath::Bfp => wrap(mirage.gemm_engine(), recorder),
        Datapath::ProtectedRns => {
            let mut engine = mirage.protected_rns_gemm_engine(&REDUNDANT)?;
            if let Some(injector) = injector {
                engine = engine.with_injector(Arc::clone(injector));
            }
            wrap(engine, recorder)
        }
    })
}

/// Model build, compile (weight preparation) and server start.
fn set_up(spec: &ServeSpec) -> Res<System> {
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let net = transformer_ff_proxy(spec.hidden, BLOCKS, CLASSES, &mut rng);
    let injector = (spec.datapath == Datapath::ProtectedRns).then(|| {
        Arc::new(FaultInjector::new(
            FaultConfig::disabled(FAULT_SEED).with_residue_flip_rate(FAULT_RATE),
        ))
    });
    let model = Arc::new(net.compile(&engines(spec, injector.as_ref(), None)?)?);
    let server = ModelServer::new(model, server_config(spec))?;
    Ok(System {
        net,
        server,
        injector,
    })
}

/// Sets up `reps` times (each previous system torn down first) and
/// returns the last system with the median set-up time.
fn timed_set_up(spec: &ServeSpec, reps: usize) -> Res<(System, f64)> {
    let mut times = Vec::with_capacity(reps);
    let mut system = None;
    for _ in 0..reps.max(1) {
        drop(system.take()); // dropping a server drains and joins it
        let t = Instant::now();
        system = Some(set_up(spec)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let system = system.expect("at least one set-up");
    Ok((system, median(&loadgen::sorted(times))))
}

/// The run's request inputs and the answer each must get.
struct Reference {
    pool: Vec<Tensor>,
    expected: Vec<Vec<u32>>,
    seed: u64,
    /// A wrong answer with a correction on record is a failed request,
    /// not a violation (RRNS can mis-correct two flips in one group).
    protected: bool,
}

impl Reference {
    /// Pool input of request `i`.
    fn pick(&self, i: usize) -> usize {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        (rng.random::<u64>() % self.pool.len() as u64) as usize
    }

    fn input(&self, i: usize) -> Tensor {
        self.pool[self.pick(i)].clone()
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Inputs from the seed, and their reference answers: the compiled
/// per-request run (spot-checked against the eager forward) on BFP, the
/// clean eager BFP forward on the protected datapath.
fn reference(
    spec: &ServeSpec,
    system: &mut System,
    seed: u64,
    out: &mut Outcome,
) -> Res<Reference> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<Tensor> = (0..POOL)
        .map(|_| Tensor::randn(&[1, spec.hidden], 1.0, &mut rng))
        .collect();
    let bfp = Engines::uniform(Mirage::paper_default().gemm_engine());
    let mut expected = Vec::with_capacity(POOL);
    match spec.datapath {
        Datapath::Bfp => {
            let plan = system.net.compile(&bfp)?;
            for (p, x) in pool.iter().enumerate() {
                let want = bits(&plan.run(x)?);
                if p % EAGER_EVERY == 0 && bits(&system.net.forward(x, &bfp)?) != want {
                    out.violation(format!(
                        "pool input {p}: compiled run differs from eager forward"
                    ));
                }
                expected.push(want);
            }
        }
        Datapath::ProtectedRns => {
            for x in &pool {
                expected.push(bits(&system.net.forward(x, &bfp)?));
            }
        }
    }
    Ok(Reference {
        pool,
        expected,
        seed,
        protected: spec.datapath == Datapath::ProtectedRns,
    })
}

/// Checks one answer against the reference and counts it into `out`.
/// Returns whether it was answered correctly; a wrong answer with no
/// correction on record is a correctness violation, as is any error but
/// a typed refusal.
fn check(reference: &Reference, s: &Sample, out: &mut Outcome) -> bool {
    let ok = match &s.result {
        Ok(response) => {
            let right = bits(&response.output) == reference.expected[reference.pick(s.index)];
            let accounted = reference.protected && response.stats.faults.corrected > 0;
            if !(right || accounted) {
                out.violation(format!(
                    "request {}: wrong answer with no fault accounting ({:?})",
                    s.index, response.stats.faults
                ));
            }
            right
        }
        Err(ServeError::QueueFull { .. }) => false,
        Err(ServeError::Uncorrectable { .. }) if reference.protected => false,
        Err(e) => {
            out.violation(format!("request {}: {e}", s.index));
            false
        }
    };
    out.attempted += 1;
    out.failed += u64::from(!ok);
    ok
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Requests of an open-loop window of `seconds` at the offered rate.
fn window_len(spec: &ServeSpec, seconds: f64) -> usize {
    (spec.rate_per_s * seconds).round().max(1.0) as usize
}

/// Runs `schedule` open-loop from `start`, numbering its requests from
/// `first_index`, checks and counts every answer, and returns the
/// samples with whether each was answered correctly.
fn open_loop(
    server: &ModelServer,
    reference: &Reference,
    schedule: &[Duration],
    start: Instant,
    first_index: usize,
    out: &mut Outcome,
) -> Vec<(Sample, bool)> {
    drive_open_loop(server, schedule, start, |i| {
        reference.input(first_index + i)
    })
    .into_iter()
    .map(|mut s| {
        s.index += first_index;
        let ok = check(reference, &s, out);
        (s, ok)
    })
    .collect()
}

/// Submits `count` requests all due at once, checks them, and returns
/// the service time in ms of the full batches they were served in, once
/// per member.
fn burst(
    server: &ModelServer,
    reference: &Reference,
    count: usize,
    first_index: usize,
    out: &mut Outcome,
) -> Vec<f64> {
    let schedule = vec![Duration::ZERO; count];
    open_loop(
        server,
        reference,
        &schedule,
        Instant::now(),
        first_index,
        out,
    )
    .iter()
    .filter_map(|(s, _)| s.result.as_ref().ok())
    .filter(|r| r.stats.batch_size == MAX_BATCH)
    .map(|r| ms(r.stats.service_time))
    .collect()
}

/// Latencies in ms of the correctly answered requests.
fn latencies(samples: &[(Sample, bool)]) -> Vec<f64> {
    samples
        .iter()
        .filter(|(_, ok)| *ok)
        .map(|(s, _)| ms(s.latency()))
        .collect()
}

/// Runs a serving workload: end-to-end metrics untraced, or the traced
/// run's per-layer metrics.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, trace: bool) -> Res<Outcome> {
    let mut out = Outcome::new();
    let (mut system, setup_s) = timed_set_up(spec, if trace { 1 } else { spec.setup_reps })?;
    let reference = reference(spec, &mut system, seed, &mut out)?;
    burst(&system.server, &reference, WARMUP, 0, &mut out);
    let mut next_index = WARMUP;

    if !trace {
        let schedule = poisson_schedule(seed, spec.rate_per_s, window_len(spec, seconds));
        // The open-loop window runs in segments with a saturation burst
        // after each, so both sample the whole run. The median latency
        // comes from the better half of the segments (see
        // `loadgen::best_half`); `slo_attain` counts every request sent.
        // Saturation is a full batch over the fastest tenth of the full
        // batches' service times: neighbours on a shared host slow whole
        // minutes, and the fast end of some eighty batches spread over
        // the run is what still measures the program then.
        let mut segments = Vec::with_capacity(SEGMENTS);
        let mut full_batch_ms = Vec::new();
        let mut within_slo = 0usize;
        for segment in loadgen::segments(&schedule, SEGMENTS) {
            let samples = open_loop(
                &system.server,
                &reference,
                &segment,
                Instant::now(),
                next_index,
                &mut out,
            );
            next_index += segment.len();
            within_slo += samples
                .iter()
                .filter(|(s, ok)| *ok && s.latency() <= SLO)
                .count();
            segments.push(latencies(&samples));
            full_batch_ms.extend(burst(
                &system.server,
                &reference,
                BURST,
                next_index,
                &mut out,
            ));
            next_index += BURST;
        }
        drop(system);
        out.push("p50_ms", median(&loadgen::best_half(segments)), "ms");
        out.push(
            "slo_attain",
            within_slo as f64 / schedule.len() as f64,
            "ratio",
        );
        let fastest_tenth = loadgen::tail_percentile(&loadgen::sorted(full_batch_ms), 100)
            .ok_or("too few full batches in the saturation bursts")?;
        out.push(
            "saturation_rps",
            MAX_BATCH as f64 * 1e3 / fastest_tenth,
            "1/s",
        );
        out.push("setup_s", setup_s, "s");
        out.push("peak_rss_mb", peak_rss_mb(), "MiB");
        return Ok(out);
    }

    // Traced run: the plain plan and the same plan compiled over the
    // timing decorator serve alternate segments of one open-loop window,
    // so the tracing overhead is measured under the same host load. The
    // window is twice an untraced one, so each plan serves as many
    // requests as an untraced run does.
    let epoch = Instant::now();
    let recorder = Recorder::new(epoch);
    let model = system
        .net
        .compile(&engines(spec, system.injector.as_ref(), Some(&recorder))?)?;
    // One lone request records the per-request GEMM list.
    let lone = model.run(&reference.input(next_index))?;
    if bits(&lone) != reference.expected[reference.pick(next_index)] {
        out.violation("lone traced request: wrong answer".into());
    }
    let per_request: Vec<(usize, usize, usize)> =
        recorder.take().iter().map(|s| (s.m, s.k, s.n)).collect();
    next_index += 1;
    let traced_server = ModelServer::new(Arc::new(model), server_config(spec))?;
    burst(&traced_server, &reference, WARMUP, next_index, &mut out);
    next_index += WARMUP;
    let _ = recorder.take();
    let before = traced_server.stats();
    let schedule = poisson_schedule(seed, spec.rate_per_s, window_len(spec, 2.0 * seconds));
    let (mut plain, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    for (j, segment) in loadgen::segments(&schedule, TRACE_SEGMENTS)
        .iter()
        .enumerate()
    {
        let server = if j % 2 == 0 {
            &system.server
        } else {
            &traced_server
        };
        let start = Instant::now();
        let samples = open_loop(server, &reference, segment, start, next_index, &mut out);
        next_index += segment.len();
        if j % 2 == 0 {
            plain.extend(samples);
        } else {
            let offset_ns = start.duration_since(epoch).as_nanos() as u64;
            spans.extend(request_spans(&samples, offset_ns));
            traced.extend(samples);
        }
    }
    let after = traced_server.stats();
    drop(traced_server);
    drop(system);
    let gemms = recorder.take();

    per_layer(
        spec,
        &traced,
        &before,
        &after,
        &gemms,
        &per_request,
        &mut out,
    )?;
    let traced_p50 = median(&loadgen::sorted(latencies(&traced)));
    let plain_p50 = median(&loadgen::sorted(latencies(&plain)));
    out.push("trace.p50_ms", traced_p50, "ms");
    out.push("trace.untraced_p50_ms", plain_p50, "ms");
    out.push("trace.overhead_frac", traced_p50 / plain_p50 - 1.0, "ratio");

    let services: Vec<Span> = spans
        .iter()
        .filter(|s| s.name == "service")
        .copied()
        .collect();
    spans.extend(trace::attribute("gemm", &gemms, &services));
    let path = trace::write(spec.name, &spans)?;
    eprintln!("trace: {} spans written to {}", spans.len(), path.display());
    Ok(out)
}

/// Request, send-lag, queue and service spans of a traced window. Queue
/// and service are placed from each response's `RequestStats`.
fn request_spans(samples: &[(Sample, bool)], offset_ns: u64) -> Vec<Span> {
    let ns = |d: Duration| offset_ns + d.as_nanos() as u64;
    let mut spans = Vec::with_capacity(samples.len() * 4);
    for (s, _) in samples {
        let id = s.index as u64;
        spans.push(Span::new("request", id, "", ns(s.intended), ns(s.done)));
        spans.push(Span::new(
            "send_lag",
            id,
            "request",
            ns(s.intended),
            ns(s.sent),
        ));
        if let Ok(response) = &s.result {
            let taken = s.sent + response.stats.queue_wait;
            let done = taken + response.stats.service_time;
            spans.push(Span::new("queue", id, "request", ns(s.sent), ns(taken)));
            spans.push(Span::new("service", id, "request", ns(taken), ns(done)));
        }
    }
    spans
}

/// The per-layer metrics of a traced serving window.
fn per_layer(
    spec: &ServeSpec,
    samples: &[(Sample, bool)],
    before: &ServerStats,
    after: &ServerStats,
    gemms: &[GemmSpan],
    per_request: &[(usize, usize, usize)],
    out: &mut Outcome,
) -> Res<()> {
    let lags = loadgen::sorted(samples.iter().map(|(s, _)| ms(s.lag())).collect());
    out.push("loadgen.lag_p99_ms", p99(&lags)?, "ms");
    let answered: Vec<_> = samples
        .iter()
        .filter_map(|(s, _)| s.result.as_ref().ok())
        .collect();
    let waits = loadgen::sorted(answered.iter().map(|r| ms(r.stats.queue_wait)).collect());
    out.push("serve.queue_wait_p50_ms", median(&waits), "ms");
    out.push("serve.queue_wait_p99_ms", p99(&waits)?, "ms");
    let service = loadgen::sorted(answered.iter().map(|r| ms(r.stats.service_time)).collect());
    out.push("serve.service_p50_ms", median(&service), "ms");
    let batches = (after.batches - before.batches).max(1) as f64;
    let served = (after.answered() - before.answered()) as f64;
    out.push("serve.batch_mean", served / batches, "count");
    let deadline = (after.deadline_flushes - before.deadline_flushes) as f64;
    out.push("serve.deadline_flush_frac", deadline / batches, "ratio");
    let service_ns = (after.total_service_time - before.total_service_time).as_nanos() as f64;
    let gemm_ns: u64 = gemms.iter().map(GemmSpan::duration_ns).sum();
    out.push(
        "plan.gemm_frac",
        gemm_ns as f64 / service_ns.max(1.0),
        "ratio",
    );
    out.push_gemms(gemms);
    out.push("parallel.workers", 0.0, "count");
    out.push("parallel.busy_frac", 0.0, "ratio");

    let mirage = Mirage::paper_default();
    let shapes = probes::shape_counts(gemms);
    let bfp = mirage.bfp_config();
    out.push(
        "bfp.quantize_ns_per_elem",
        probes::bfp_quantize_ns_per_elem(bfp, &shapes),
        "ns",
    );
    if spec.datapath == Datapath::ProtectedRns {
        let base = &mirage.config().moduli;
        let mut all: Vec<u64> = base.moduli().iter().map(|m| m.value()).collect();
        all.extend(REDUNDANT);
        let channels = ModuliSet::new(&all)?;
        let forward = probes::rns_forward_ns_per_elem(bfp, &channels, &shapes);
        out.push("rns.forward_ns_per_elem", forward, "ns");
        let reverse = probes::rns_reverse_ns_per_value(bfp, base, &shapes);
        out.push("rns.reverse_ns_per_value", reverse, "ns");
        let (a, b) = (after.faults, before.faults);
        let faults = FaultCounts {
            injected: a.injected - b.injected,
            detected: a.detected - b.detected,
            corrected: a.corrected - b.corrected,
            uncorrectable: a.uncorrectable - b.uncorrectable,
        };
        out.push_faults(faults);
        let replays = (faults.injected as usize).clamp(1000, 100_000);
        let correct = probes::rrns_correct_us_per_call(base, &REDUNDANT, replays);
        out.push("rrns.correct_us_per_call", correct, "us");
    } else {
        out.push("rns.forward_ns_per_elem", 0.0, "ns");
        out.push("rns.reverse_ns_per_value", 0.0, "ns");
        out.push_faults(FaultCounts::ZERO);
        out.push("rrns.correct_us_per_call", 0.0, "us");
    }
    out.push("train.forward_ms", 0.0, "ms");
    out.push("train.backward_ms", 0.0, "ms");
    out.push("train.optim_ms", 0.0, "ms");
    out.push(
        "arch.modeled_ms",
        probes::modeled_ms(mirage.config(), per_request),
        "ms",
    );
    Ok(())
}
