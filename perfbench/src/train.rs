//! `train`: a closed loop of training steps on the threaded runtime.
//!
//! The T-train transformer (2 layers, d_model 32, batch 16) under
//! `BP+MP+Z3` on a `{batch:2, model:1}` mesh. Parameters and Adam state
//! stay sharded on the devices between steps: each updated
//! `params.*`/`opt.m.*`/`opt.v.*` output feeds the input of the same
//! name, resharded through the host only where the two shardings differ.
//! Every step draws a fresh data batch from the seed. After the
//! measured phase, one partitioning pass (`partition.rs`) exercises the
//! compiler side.

use std::time::Instant;

use partir_ir::Literal;
use partir_models::schedules::{self};
use partir_models::train::synthetic_inputs;
use partir_models::transformer::{build_train_step, TransformerConfig};
use partir_models::BuiltModel;
use partir_prng::Rng;
use partir_sched::partir_jit;
use partir_spmd::{
    CompiledPlan, RuntimeConfig, RuntimeStats, SpmdProgram, ThreadedRuntime, TrafficPrediction,
};

use crate::report::{Measured, Named};
use crate::stats::median;
use crate::{host, peak_rss_mb, same_bits, span, verify_plan, Ctx};

pub const MESH: (usize, usize) = (2, 1);
const SCHEDULE: &str = "BP+MP+Z3";

pub fn config() -> TransformerConfig {
    TransformerConfig {
        layers: 2,
        d_model: 32,
        heads: 2,
        d_ff: 128,
        vocab: 64,
        seq: 32,
        batch: 16,
    }
}

/// Which input each updated state output feeds, and whether the
/// sharding differs between the two.
struct Feedback {
    output: usize,
    input: usize,
    reshard: bool,
}

struct Trainer {
    model: BuiltModel,
    program: SpmdProgram,
    plan: CompiledPlan,
    runtime: ThreadedRuntime,
    prediction: TrafficPrediction,
    /// Device-resident inputs, `[device][input]`; the data slots are
    /// overwritten every step.
    resident: Vec<Vec<Literal>>,
    feedback: Vec<Feedback>,
    tokens: usize,
    targets: usize,
    rng: Rng,
}

/// The output of one training step.
struct StepOut {
    loss: f32,
    stats: RuntimeStats,
    /// Per-device outputs, `[device][output]`.
    outputs: Vec<Vec<Literal>>,
}

fn input_index(model: &BuiltModel, name: &str) -> Result<usize, String> {
    model
        .func
        .params()
        .iter()
        .position(|&p| model.func.value(p).name.as_deref() == Some(name))
        .ok_or_else(|| format!("train step has no input named {name}"))
}

/// Maps outputs `[loss, params..., m..., v...]` onto the inputs named
/// `params.*`, `opt.m.*` and `opt.v.*`, checking names and types.
fn feedback_map(model: &BuiltModel, program: &SpmdProgram) -> Result<Vec<Feedback>, String> {
    let func = &model.func;
    let names: Vec<String> = func
        .params()
        .iter()
        .map(|&p| func.value(p).name.clone().unwrap_or_default())
        .collect();
    let group = |prefix: &str| -> Vec<usize> {
        (0..names.len())
            .filter(|&i| names[i].starts_with(prefix))
            .collect()
    };
    let (params, ms, vs) = (group("params."), group("opt.m."), group("opt.v."));
    let n = params.len();
    if ms.len() != n || vs.len() != n || func.results().len() != 1 + 3 * n {
        return Err("train step outputs do not match its state inputs".into());
    }
    let mut map = Vec::with_capacity(3 * n);
    for (k, (prefix, inputs)) in [("params.", &params), ("opt.m.", &ms), ("opt.v.", &vs)]
        .into_iter()
        .enumerate()
    {
        for (j, &input) in inputs.iter().enumerate() {
            let output = 1 + k * n + j;
            let stem = &names[params[j]]["params.".len()..];
            let out_ty = func.value_type(func.results()[output]);
            if names[input] != format!("{prefix}{stem}")
                || out_ty != func.value_type(func.params()[input])
            {
                return Err(format!(
                    "output {output} does not update input {}",
                    names[input]
                ));
            }
            map.push(Feedback {
                output,
                input,
                reshard: program.output_ctxs()[output] != program.input_ctxs()[input],
            });
        }
    }
    Ok(map)
}

/// A fresh `[batch, seq]` token/target batch.
fn batch(rng: &mut Rng, cfg: &TransformerConfig) -> Result<(Literal, Literal), String> {
    let n = cfg.batch * cfg.seq;
    let mut draw = || -> Vec<i32> { (0..n).map(|_| rng.gen_range(cfg.vocab) as i32).collect() };
    let shape = [cfg.batch, cfg.seq];
    let tokens = Literal::from_i32(draw(), shape).map_err(|e| e.to_string())?;
    let targets = Literal::from_i32(draw(), shape).map_err(|e| e.to_string())?;
    Ok((tokens, targets))
}

impl Trainer {
    fn new(seed: u64) -> Result<Self, String> {
        let cfg = config();
        let model = {
            let _s = span("models.build");
            build_train_step(&cfg).map_err(|e| e.to_string())?
        };
        let hw = crate::mesh(MESH);
        let (_, schedule) = schedules::transformer_table2()
            .into_iter()
            .find(|(label, _)| *label == SCHEDULE)
            .ok_or("schedule missing from transformer_table2")?;
        let program = partir_jit(&model.func, &hw, &schedule)
            .map_err(|e| e.to_string())?
            .program;
        let plan = program.compile().map_err(|e| e.to_string())?;
        let prediction = program.predicted_traffic().map_err(|e| e.to_string())?;
        let feedback = feedback_map(&model, &program)?;
        let resident = host::shard_all(&program, &synthetic_inputs(&model, seed))?;
        Ok(Trainer {
            tokens: input_index(&model, "tokens")?,
            targets: input_index(&model, "targets")?,
            model,
            program,
            plan,
            runtime: ThreadedRuntime::new(RuntimeConfig::default()),
            prediction,
            resident,
            feedback,
            rng: Rng::seed_from_u64(seed),
        })
    }

    /// The global inputs of the next step (state as built, fresh data),
    /// for the lockstep oracle. Only valid before the first step.
    fn initial_globals(&self, seed: u64, data: &(Literal, Literal)) -> Vec<Literal> {
        let mut inputs = synthetic_inputs(&self.model, seed);
        inputs[self.tokens] = data.0.clone();
        inputs[self.targets] = data.1.clone();
        inputs
    }

    fn step(&mut self, data: (Literal, Literal)) -> Result<StepOut, String> {
        {
            let _s = span("runtime.reshard");
            for (index, lit) in [(self.tokens, data.0), (self.targets, data.1)] {
                let shards = self
                    .program
                    .shard_input(index, &lit)
                    .map_err(|e| e.to_string())?;
                for (dev, shard) in self.resident.iter_mut().zip(shards) {
                    dev[index] = shard;
                }
            }
        }
        let outcome = {
            let _s = span("runtime.run_plan");
            self.runtime
                .run_plan(&self.plan, &self.resident)
                .map_err(|e| e.to_string())?
        };
        let _s = span("runtime.reshard");
        for f in &self.feedback {
            let shards: Vec<Literal> = outcome
                .outputs
                .iter()
                .map(|o| o[f.output].clone())
                .collect();
            let shards = if f.reshard {
                let global = self
                    .program
                    .unshard_output(f.output, &shards)
                    .map_err(|e| e.to_string())?;
                self.program
                    .shard_input(f.input, &global)
                    .map_err(|e| e.to_string())?
            } else {
                shards
            };
            for (dev, shard) in self.resident.iter_mut().zip(shards) {
                dev[f.input] = shard;
            }
        }
        let losses: Vec<Literal> = outcome.outputs.iter().map(|o| o[0].clone()).collect();
        let loss = self
            .program
            .unshard_output(0, &losses)
            .map_err(|e| e.to_string())?;
        let loss = loss.as_f32().map_err(|e| e.to_string())?[0];
        Ok(StepOut {
            loss,
            stats: outcome.stats,
            outputs: outcome.outputs,
        })
    }
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    let mut out = Measured::default();
    let cfg = config();

    // Set-up, repeated: build, partition, compile, shard, and one warm-up
    // step — the step the lockstep oracle checks below.
    let mut ready = None;
    for _ in 0..ctx.setups {
        let start = Instant::now();
        let (trainer, first, data) = ctx.traced(|| -> Result<_, String> {
            let mut t = Trainer::new(ctx.seed)?;
            let data = batch(&mut t.rng, &cfg)?;
            let first = t.step(data.clone())?;
            Ok((t, first, data))
        })?;
        out.setup_s.push(start.elapsed().as_secs_f64());
        ready = Some((trainer, first, data));
    }
    let (mut trainer, first, data) = ready.ok_or("no set-up ran")?;
    let diags = ctx.traced(|| verify_plan(&trainer.plan));
    out.gate(
        "plan.verify",
        diags.is_ok(),
        diags.err().unwrap_or_default(),
    );

    // Closed loop: the next step starts when the previous one returns.
    let mut mismatched = u64::from(!first.stats.matches_prediction(&trainer.prediction));
    let mut last_loss = first.loss;
    let mut bytes = Vec::new();
    let mut messages = Vec::new();
    let mut waits = Vec::new();
    let start = Instant::now();
    ctx.traced(|| -> Result<(), String> {
        while start.elapsed().as_secs_f64() < ctx.seconds {
            let t0 = Instant::now();
            out.attempted += 1;
            let step = batch(&mut trainer.rng, &cfg).and_then(|d| trainer.step(d));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match step {
                Ok(s) => {
                    out.latency_ms.push(ms);
                    if !s.stats.matches_prediction(&trainer.prediction) {
                        mismatched += 1;
                    }
                    bytes.push(s.stats.total_bytes() as f64);
                    waits.push(s.stats.rendezvous_waits as f64);
                    messages.push(s.stats.total_messages() as f64);
                    last_loss = s.loss;
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("train step failed: {e}");
                }
            }
        }
        Ok(())
    })?;
    let wall = start.elapsed().as_secs_f64();
    out.peak_rss_mb = peak_rss_mb();
    out.gap_ms = out.latency_ms.clone();
    out.headline = median(&out.latency_ms);
    out.layer("runtime.bytes", median(&bytes));
    out.layer("runtime.messages", median(&messages));
    out.layer("runtime.rendezvous_waits", crate::stats::mean(&waits));
    out.layer("spmd.plan_steps", trainer.plan.num_steps() as f64);
    out.layer("spmd.arena_bytes", trainer.plan.arena_bytes() as f64);
    let ok_steps = out.latency_ms.len() as f64;
    out.named = vec![Named::new(
        "samples_per_s",
        "1/s",
        cfg.batch as f64 * ok_steps / wall,
    )];

    // Correctness, outside the timed loop.
    out.gate(
        "runtime.matches_prediction",
        mismatched == 0 && out.failed == 0,
        format!(
            "{mismatched} of {} steps moved unpredicted traffic",
            out.attempted + 1
        ),
    );
    out.gate(
        "train.loss_finite",
        last_loss.is_finite(),
        format!("loss {last_loss}"),
    );
    let globals = trainer.initial_globals(ctx.seed, &data);
    let lockstep = trainer
        .program
        .execute_global(&globals)
        .map_err(|e| e.to_string())?;
    let mut identical = true;
    for (i, want) in lockstep.iter().enumerate() {
        let shards: Vec<Literal> = first.outputs.iter().map(|o| o[i].clone()).collect();
        let got = trainer
            .program
            .unshard_output(i, &shards)
            .map_err(|e| e.to_string())?;
        identical &= same_bits(&got, want);
    }
    out.gate(
        "train.first_step_matches_lockstep",
        identical,
        "first step's loss and state vs SpmdProgram::execute_global",
    );
    host::measure(&trainer.program, &trainer.plan, &globals, &mut out)?;
    crate::partition::pass(ctx, &mut out)?;
    Ok(out)
}
