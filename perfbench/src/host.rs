//! Host marshalling measured from outside the runtime: the public calls
//! a plan run makes around its device steps, timed one by one on the
//! exact program and plan a workload runs.

use std::time::Instant;

use partir_ir::Literal;
use partir_spmd::{CompiledPlan, SpmdProgram};

use crate::report::Measured;
use crate::stats::median;

/// Repetitions per timed call; the median is reported.
const REPS: usize = 5;

fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Per-device shards of every global input.
pub fn shard_all(program: &SpmdProgram, inputs: &[Literal]) -> Result<Vec<Vec<Literal>>, String> {
    let n = program.mesh().num_devices();
    let mut per_device: Vec<Vec<Literal>> = vec![Vec::with_capacity(inputs.len()); n];
    for (i, lit) in inputs.iter().enumerate() {
        let shards = program.shard_input(i, lit).map_err(|e| e.to_string())?;
        for (d, shard) in shards.into_iter().enumerate() {
            per_device[d].push(shard);
        }
    }
    Ok(per_device)
}

/// Times `shard_input` over every input, `new_executor`, `load_inputs`
/// and `read_outputs` for device 0, and `unshard_output` over every
/// output, recording `host.*` layer metrics on `out`.
pub fn measure(
    program: &SpmdProgram,
    plan: &CompiledPlan,
    inputs: &[Literal],
    out: &mut Measured,
) -> Result<(), String> {
    let mut shard = Vec::new();
    let mut new_exec = Vec::new();
    let mut load = Vec::new();
    let mut read = Vec::new();
    let mut unshard = Vec::new();
    for _ in 0..REPS {
        let (t, per_device) = time_ms(|| shard_all(program, inputs));
        let per_device = per_device?;
        shard.push(t);
        // Every device's outputs, read back from a loaded arena without
        // running the steps: right types, for timing `unshard_output`.
        let mut outputs = Vec::with_capacity(per_device.len());
        for (d, dev_inputs) in per_device.iter().enumerate() {
            let (t, mut st) = time_ms(|| plan.new_executor());
            if d == 0 {
                new_exec.push(t);
            }
            let (t, loaded) = time_ms(|| plan.load_inputs(&mut st, dev_inputs));
            loaded.map_err(|e| e.to_string())?;
            if d == 0 {
                load.push(t);
            }
            let (t, outs) = time_ms(|| plan.read_outputs(&st));
            if d == 0 {
                read.push(t);
            }
            outputs.push(outs.map_err(|e| e.to_string())?);
        }
        let (t, global) = time_ms(|| {
            (0..outputs[0].len())
                .map(|i| {
                    let shards: Vec<Literal> = outputs.iter().map(|o| o[i].clone()).collect();
                    program.unshard_output(i, &shards)
                })
                .collect::<Result<Vec<_>, _>>()
        });
        global.map_err(|e| e.to_string())?;
        unshard.push(t);
    }
    out.layer("host.shard_ms", median(&shard));
    out.layer("host.new_executor_ms", median(&new_exec));
    out.layer("host.load_inputs_ms", median(&load));
    out.layer("host.read_outputs_ms", median(&read));
    out.layer("host.unshard_ms", median(&unshard));
    Ok(())
}
