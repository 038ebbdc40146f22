//! The compiler side alone, executing nothing: one partitioning pass that
//! the `train` workload runs after its measured phase.
//!
//! The T32 block structure cut to 8 blocks (73 parameter tensors) on a
//! 4×2 mesh. The pass takes the training step through `partir_jit` →
//! `compile_with` → `CompiledPlan::verify` for the `Static` search tactic
//! and then every Table 2 transformer schedule. Its wall time is printed
//! as `partition_s` but is no JSON metric: on a shared 2-core host the
//! speed of this code drifted by up to 1.9× over minutes, while the median
//! training step moved by about 10% (`perfbench/README.md`).

use std::time::Instant;

use partir_models::schedules::{self, t_static};
use partir_models::transformer::{build_train_step, TransformerConfig};
use partir_sched::{partir_jit, Schedule};
use partir_spmd::PlanOptions;

use crate::report::{Measured, Named};
use crate::{verify_plan, Ctx};

pub const MESH: (usize, usize) = (4, 2);

/// T32's blocks, 8 of them: the pass takes about 2.7 s on a 2-core host
/// (with all 32 blocks, about 15 s).
pub fn config() -> TransformerConfig {
    TransformerConfig {
        layers: 8,
        ..TransformerConfig::t32()
    }
}

/// Runs the pass, adding its gates, its named metrics and the search's
/// layer figures to `out`. A schedule that fails fails a gate.
pub fn pass(ctx: &Ctx, out: &mut Measured) -> Result<(), String> {
    let hw = crate::mesh(MESH);
    let model = build_train_step(&config()).map_err(|e| e.to_string())?;

    // The search first, then the manual schedules.
    let mut rows = vec![("Static", Schedule::new([t_static()]))];
    rows.extend(schedules::transformer_table2());
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut searched = None;
    let mut errors = Vec::new();
    let start = Instant::now();
    for (label, schedule) in &rows {
        let result = ctx.traced(|| -> Result<_, String> {
            let jitted = partir_jit(&model.func, &hw, schedule).map_err(|e| e.to_string())?;
            let plan = jitted
                .program
                .compile_with(&PlanOptions::default())
                .map_err(|e| e.to_string())?;
            verify_plan(&plan)?;
            Ok(jitted)
        });
        match result {
            Ok(jitted) => {
                hits += jitted.cache.hits;
                misses += jitted.cache.misses;
                if *label == "Static" {
                    searched = Some(jitted);
                }
            }
            Err(e) => errors.push(format!("{label}: {e}")),
        }
    }
    let pass_s = start.elapsed().as_secs_f64();
    out.gate("partition.no_errors", errors.is_empty(), errors.join("; "));

    let jitted = searched.ok_or("the Static search produced no plan")?;
    // The searched strategy's simulated step time, as the search left it
    // and as `partir_sim::evaluate` scores the final partitioning.
    let reported_us = jitted
        .reports
        .last()
        .map(|r| r.sim.runtime_s * 1e6)
        .ok_or("the Static schedule reported no tactic")?;
    let evaluated_us = partir_sim::evaluate(&model.func, &jitted.partitioning, &hw)
        .map_err(|e| e.to_string())?
        .sim
        .runtime_s
        * 1e6;
    out.gate(
        "partition.search_cost_matches_sim",
        reported_us == evaluated_us,
        format!("reported {reported_us} us, evaluated {evaluated_us} us"),
    );
    out.named.push(Named::new("partition_s", "s", pass_s));
    out.named
        .push(Named::new("search_cost_us", "us", evaluated_us));
    let lookups = (hits + misses).max(1);
    out.layer("sched.sim_evals", misses as f64);
    out.layer("sched.cache_hit_rate", hits as f64 / lookups as f64);
    Ok(())
}
