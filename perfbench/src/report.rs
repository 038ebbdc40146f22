//! The metric vocabulary shared by every workload, and the record a
//! workload run hands back to the driver in `main.rs`.

use std::collections::BTreeMap;

/// End-to-end metrics in the JSON result: every workload reports each
/// of them (with `--trace 0`). See `perfbench/README.md` for what
/// "latency" and "gap" mean on each workload. Their p90 tails are
/// printed beside them but left out of the result: one slow stretch of a
/// shared host moves a tail far more than a median.
pub const END_TO_END: &[&str] = &["setup_s", "peak_rss_mb", "latency_p50_ms", "gap_p50_ms"];

/// Device step kinds with their own `step.<kind>_ms`/`_calls` metrics.
pub const STEP_KINDS: &[&str] = &[
    "dot",
    "fused_eltwise",
    "reduce",
    "compare",
    "select",
    "pad",
    "gather",
    "scatter_add",
    "arg_max",
    "coll_start",
    "coll_wait",
    "rendezvous_wait",
    "other",
];

/// Per-layer metrics other than the device step kinds, in report order.
/// Every workload reports each of them (with `--trace 1`); a layer the
/// workload never enters reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("models.build_ms", "ms"),
    ("sched.jit_ms", "ms"),
    ("sched.search_ms", "ms"),
    ("sched.static_evals", "count"),
    ("sched.sim_evals", "count"),
    ("sched.cache_hit_rate", "ratio"),
    ("core.propagate_ms", "ms"),
    ("core.propagate_calls", "count"),
    ("core.propagate_pops", "count"),
    ("analysis.objective_ms", "ms"),
    ("analysis.verify_ms", "ms"),
    ("sim.evaluate_ms", "ms"),
    ("sim.evaluate_calls", "count"),
    ("spmd.lower_ms", "ms"),
    ("spmd.fuse_ms", "ms"),
    ("spmd.compile_ms", "ms"),
    ("spmd.plan_steps", "count"),
    ("spmd.arena_bytes", "bytes"),
    ("runtime.run_plan_ms", "ms"),
    ("runtime.host_ms", "ms"),
    ("runtime.attributed_frac", "ratio"),
    ("runtime.reshard_ms", "ms"),
    ("runtime.bytes", "bytes"),
    ("runtime.messages", "count"),
    ("runtime.rendezvous_waits", "count"),
    ("host.shard_ms", "ms"),
    ("host.new_executor_ms", "ms"),
    ("host.load_inputs_ms", "ms"),
    ("host.read_outputs_ms", "ms"),
    ("host.unshard_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p90_ms", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.slot_util", "ratio"),
    ("serve.ingest_lag_p99_ms", "ms"),
    ("obs.overhead_frac", "ratio"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = LAYERS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for kind in STEP_KINDS {
        all.push((format!("step.{kind}_ms"), "ms"));
        all.push((format!("step.{kind}_calls"), "count"));
    }
    all
}

/// One named value with its unit and an optional caveat.
#[derive(Debug, Clone)]
pub struct Named {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub note: Option<String>,
}

impl Named {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Named {
            name: name.into(),
            unit,
            value,
            note: None,
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }
}

/// One correctness gate: any failed gate fails the run.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each repeated set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Due-to-result time of each unit of work, ms.
    pub latency_ms: Vec<f64>,
    /// Time between consecutive results, ms.
    pub gap_ms: Vec<f64>,
    /// The value `obs.overhead_frac` compares between traced and
    /// untraced runs.
    pub headline: f64,
    /// Peak resident memory at the end of the measured phase, MiB.
    pub peak_rss_mb: f64,
    /// Operations attempted and failed (steps, requests or schedules).
    pub attempted: u64,
    pub failed: u64,
    /// The workload's own end-to-end metrics under their usual names.
    pub named: Vec<Named>,
    /// Per-layer values measured without the trace.
    pub layers: BTreeMap<String, f64>,
    pub gates: Vec<Gate>,
}

impl Measured {
    pub fn gate(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for name in END_TO_END {
            assert!(text.contains(&format!("{{\"name\": \"{name}\"")), "{name}");
        }
        for (name, unit) in per_layer() {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry}");
        }
        let listed = text.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + per_layer().len());
    }
}
