//! `serve` and `serve_small`: an open loop of requests through the
//! continuous-batching engine.
//!
//! Requests arrive on a seeded Poisson schedule at a fixed rate for the
//! run's duration, whatever the engine's progress. Time to first token
//! is measured from each request's *due* arrival time, so a stall also
//! counts against the requests queued behind it.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use partir_ir::interp::interpret;
use partir_ir::{Literal, Shape};
use partir_models::itransformer::{build_decode_step, build_serving, ServingConfig};
use partir_models::schedules;
use partir_models::train::synthetic_inputs;
use partir_prng::Rng;
use partir_serve::{
    validate_events, Request, RunOptions, ServeEvent, ServeReport, ServingEngine, Workload,
};
use partir_spmd::{PlanOptions, RuntimeConfig, ThreadedRuntime};

use crate::report::Measured;
use crate::stats::{mean, median, percentile};
use crate::{host, peak_rss_mb, span, verify_plan, Ctx};

pub const MESH: (usize, usize) = (1, 2);
const SCHEDULE: &str = "BP+MP+MQ";
/// Admission queue bound; arrivals beyond it are rejected.
const QUEUE: usize = 64;
/// Plan runs timed for the runtime counters and reshard cost.
const SIDE_RUNS: usize = 5;

/// One serving workload's shape.
pub struct Variant {
    pub cfg: ServingConfig,
    /// Offered load, requests per second.
    pub rate_per_s: f64,
    /// Inclusive prompt and decode length ranges.
    pub prompt: (usize, usize),
    pub decode: (usize, usize),
    /// Completed requests checked against the solo oracle.
    pub oracle_sample: usize,
}

/// IT32 well below its capacity on a 2-device mesh (slot use 0.12–0.14
/// on a 2-core host), so that a slow stretch of a shared host
/// lengthens TTFT by the step time it adds rather than by a queue.
pub fn serve() -> Variant {
    Variant {
        cfg: ServingConfig::it32(),
        rate_per_s: 10.0,
        prompt: (1, 8),
        decode: (8, 24),
        oracle_sample: 3,
    }
}

/// The tiny config, where per-step host work is a large share.
pub fn serve_small() -> Variant {
    Variant {
        cfg: ServingConfig::tiny(),
        rate_per_s: 500.0,
        prompt: (1, 4),
        decode: (2, 8),
        oracle_sample: 16,
    }
}

/// Poisson arrivals at `v.rate_per_s` over `[0, seconds)`, drawn from
/// `seed` by the benchmark itself.
pub fn arrivals(v: &Variant, seed: u64, seconds: f64) -> Workload {
    let mut rng = Rng::seed_from_u64(seed);
    let mean_gap_us = 1e6 / v.rate_per_s;
    let horizon_us = seconds * 1e6;
    let mut now = 0.0f64;
    let mut requests = Vec::new();
    loop {
        now += -(1.0 - rng.next_f64()).ln() * mean_gap_us;
        if now >= horizon_us {
            break;
        }
        let plen = rng.gen_range_in(v.prompt.0, v.prompt.1 + 1);
        let prompt = (0..plen)
            .map(|_| rng.gen_range(v.cfg.vocab) as i32)
            .collect();
        requests.push(Request {
            id: requests.len() as u64,
            arrival_us: now as u64,
            prompt,
            decode_steps: rng.gen_range_in(v.decode.0, v.decode.1 + 1),
        });
    }
    Workload::new(requests)
}

/// Request-level timings read off the engine's event log.
#[derive(Debug, Default, PartialEq)]
pub struct Timeline {
    /// Due arrival to the end of the request's first step, ms.
    pub ttft_ms: Vec<f64>,
    /// Gaps between consecutive step ends while a request holds a slot, ms.
    pub itl_ms: Vec<f64>,
    /// Due arrival to admission, ms.
    pub queue_wait_ms: Vec<f64>,
    /// Due arrival to the engine noticing the request, ms.
    pub ingest_lag_ms: Vec<f64>,
    /// Mean active slots per step.
    pub batch_mean: f64,
    /// Active slot-steps over all slot-steps.
    pub slot_util: f64,
}

pub fn timeline(workload: &Workload, events: &[ServeEvent], slots: usize) -> Timeline {
    let due: HashMap<u64, u64> = workload
        .requests
        .iter()
        .map(|r| (r.id, r.arrival_us))
        .collect();
    let ms = |us: u64| us as f64 / 1e3;
    let mut tl = Timeline::default();
    // Requests holding a slot, with the end of their latest step.
    let mut holding: BTreeMap<u64, Option<u64>> = BTreeMap::new();
    let (mut steps, mut active) = (0u64, 0u64);
    for e in events {
        match *e {
            ServeEvent::Arrive { t, id } => tl.ingest_lag_ms.push(ms(t - due[&id])),
            ServeEvent::Admit { t, id, .. } => {
                tl.queue_wait_ms.push(ms(t - due[&id]));
                holding.insert(id, None);
            }
            ServeEvent::StepEnd { t, active: a, .. } => {
                steps += 1;
                active += a as u64;
                for (id, last) in holding.iter_mut() {
                    match last {
                        None => tl.ttft_ms.push(ms(t - due[id])),
                        Some(prev) => tl.itl_ms.push(ms(t - *prev)),
                    }
                    *last = Some(t);
                }
            }
            ServeEvent::Retire { id, .. } => {
                holding.remove(&id);
            }
            ServeEvent::Reject { .. } => {}
        }
    }
    if steps > 0 {
        tl.batch_mean = active as f64 / steps as f64;
        tl.slot_util = active as f64 / (steps * slots as u64) as f64;
    }
    tl
}

/// Decodes one request alone through the fixed-batch serving loop,
/// interpreted and unpartitioned, with the engine's weights.
fn oracle_tokens(cfg: &ServingConfig, req: &Request, seed: u64) -> Result<Vec<i32>, String> {
    let ocfg = cfg.oracle_config(req.prompt.len(), req.decode_steps);
    let oracle = build_serving(&ocfg).map_err(|e| e.to_string())?;
    let mut inputs = synthetic_inputs(&oracle, seed);
    let total = ocfg.buffer_len();
    let mut buf = vec![0i32; total];
    buf[..req.prompt.len()].copy_from_slice(&req.prompt);
    inputs[oracle.num_param_tensors] =
        Literal::from_i32(buf, Shape::from([1, total])).map_err(|e| e.to_string())?;
    let out = interpret(&oracle.func, &inputs).map_err(|e| e.to_string())?;
    let buf = out[0].as_i32().map_err(|e| e.to_string())?;
    Ok(buf[req.prompt.len()..req.prompt.len() + req.decode_steps].to_vec())
}

pub fn build_engine(cfg: &ServingConfig, seed: u64) -> Result<ServingEngine, String> {
    let (_, schedule) = schedules::itransformer_table2()
        .into_iter()
        .find(|(label, _)| *label == SCHEDULE)
        .ok_or("schedule missing from itransformer_table2")?;
    ServingEngine::new(
        cfg,
        &crate::mesh(MESH),
        &schedule,
        &PlanOptions::default(),
        seed,
    )
    .map_err(|e| e.to_string())
}

pub fn run(ctx: &Ctx, v: &Variant) -> Result<Measured, String> {
    let mut out = Measured::default();
    let opts = RunOptions {
        queue_capacity: QUEUE,
        virtual_step_us: None,
        collector: ctx.collector.clone(),
    };

    // Set-up, repeated: build, partition, compile and shard the engine,
    // then serve a few warm-up requests.
    let warm = Workload::new(
        (0..2)
            .map(|id| Request {
                id,
                arrival_us: 0,
                prompt: vec![1],
                decode_steps: 2,
            })
            .collect(),
    );
    let mut ready = None;
    for _ in 0..ctx.setups {
        let start = Instant::now();
        let engine = ctx.traced(|| -> Result<_, String> {
            let engine = build_engine(&v.cfg, ctx.seed)?;
            engine.run(&warm, &opts).map_err(|e| e.to_string())?;
            Ok(engine)
        })?;
        out.setup_s.push(start.elapsed().as_secs_f64());
        ready = Some(engine);
    }
    let engine = ready.ok_or("no set-up ran")?;
    let diags = ctx.traced(|| verify_plan(engine.plan()));
    out.gate(
        "plan.verify",
        diags.is_ok(),
        diags.err().unwrap_or_default(),
    );

    let workload = arrivals(v, ctx.seed, ctx.seconds);
    let report: ServeReport = ctx
        .traced(|| engine.run(&workload, &opts))
        .map_err(|e| e.to_string())?;
    out.peak_rss_mb = peak_rss_mb();

    let sent = workload.requests.len();
    let completed = report.completed().count();
    let rejected = report.rejected();
    let valid = validate_events(&report.events, &workload, v.cfg.slots, QUEUE);
    out.gate(
        "serve.validate_events",
        valid.is_ok(),
        valid.err().unwrap_or_default(),
    );
    out.gate(
        "serve.all_accounted",
        completed + rejected == sent,
        format!("{completed} completed + {rejected} rejected of {sent} sent"),
    );
    out.attempted = sent as u64;
    out.failed = rejected as u64;

    let tl = timeline(&workload, &report.events, v.cfg.slots);
    out.headline = median(&tl.itl_ms);
    out.layer("serve.queue_wait_p50_ms", median(&tl.queue_wait_ms));
    out.layer(
        "serve.queue_wait_p90_ms",
        percentile(&tl.queue_wait_ms, 90.0).value,
    );
    out.layer("serve.batch_mean", tl.batch_mean);
    out.layer("serve.slot_util", tl.slot_util);
    out.layer(
        "serve.ingest_lag_p99_ms",
        percentile(&tl.ingest_lag_ms, 99.0).value,
    );
    out.layer("spmd.plan_steps", engine.plan().num_steps() as f64);
    out.layer("spmd.arena_bytes", engine.plan().arena_bytes() as f64);
    out.latency_ms = tl.ttft_ms;
    out.gap_ms = tl.itl_ms;

    // Correctness, outside the timed run: a seeded sample of completed
    // requests against the solo oracle.
    let by_id: HashMap<u64, &Request> = workload.requests.iter().map(|r| (r.id, r)).collect();
    let mut done: Vec<_> = report.completed().collect();
    let mut rng = Rng::seed_from_u64(ctx.seed ^ 0x5eed_0ac1e);
    let mut mismatched = Vec::new();
    for _ in 0..v.oracle_sample.min(done.len()) {
        let o = done.swap_remove(rng.gen_range(done.len()));
        if oracle_tokens(&v.cfg, by_id[&o.id], ctx.seed)? != o.tokens {
            mismatched.push(o.id);
        }
    }
    out.gate(
        "serve.matches_solo_oracle",
        mismatched.is_empty() && completed > 0,
        format!("sampled requests differing from the oracle: {mismatched:?}"),
    );

    side_runs(ctx, v, &engine, &mut out)?;
    Ok(out)
}

/// Runs the engine's plan directly on the decode step's synthetic
/// inputs: runtime counters per step, the per-step reshard the engine
/// performs (three slot vectors in, next tokens out), and host costs.
fn side_runs(
    ctx: &Ctx,
    v: &Variant,
    engine: &ServingEngine,
    out: &mut Measured,
) -> Result<(), String> {
    let model = ctx.traced(|| {
        let _s = span("models.build");
        build_decode_step(&v.cfg).map_err(|e| e.to_string())
    })?;
    let program = engine.program();
    let plan = engine.plan();
    let inputs = synthetic_inputs(&model, ctx.seed);
    let per_device = host::shard_all(program, &inputs)?;
    let prediction = program.predicted_traffic().map_err(|e| e.to_string())?;
    let runtime = ThreadedRuntime::new(RuntimeConfig::default());
    let n = model.num_param_tensors;
    let (mut bytes, mut messages, mut waits, mut reshard) = (vec![], vec![], vec![], vec![]);
    let mut matched = true;
    for _ in 0..SIDE_RUNS {
        let outcome = runtime
            .run_plan(plan, &per_device)
            .map_err(|e| e.to_string())?;
        matched &= outcome.stats.matches_prediction(&prediction);
        bytes.push(outcome.stats.total_bytes() as f64);
        messages.push(outcome.stats.total_messages() as f64);
        waits.push(outcome.stats.rendezvous_waits as f64);
        let start = Instant::now();
        for (i, lit) in inputs.iter().enumerate().skip(n).take(3) {
            std::hint::black_box(program.shard_input(i, lit).map_err(|e| e.to_string())?);
        }
        let next: Vec<Literal> = outcome.outputs.iter().map(|o| o[0].clone()).collect();
        std::hint::black_box(
            program
                .unshard_output(0, &next)
                .map_err(|e| e.to_string())?,
        );
        reshard.push(start.elapsed().as_secs_f64() * 1e3);
    }
    out.gate(
        "runtime.matches_prediction",
        matched,
        "executed traffic of the engine's plan vs predict_traffic",
    );
    out.layer("runtime.bytes", median(&bytes));
    out.layer("runtime.messages", median(&messages));
    out.layer("runtime.rendezvous_waits", mean(&waits));
    out.layer("runtime.reshard_ms", median(&reshard));
    host::measure(program, plan, &inputs, out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn virtual_clock_timeline_is_exact() {
        crate::selftest::check().expect("self-test");
    }
}
