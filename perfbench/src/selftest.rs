//! Self-test of the benchmark's own metric code, run before every
//! measurement: `serve_small`'s engine on a virtual clock, where every
//! timestamp follows from the workload, must yield exact timings, and
//! the percentile tail rule must flag short samples.

use partir_serve::{Request, RunOptions, Workload};

use crate::serve::{build_engine, timeline, Timeline};
use crate::stats::percentile;

/// Virtual step time, µs.
const STEP_US: u64 = 1_000;

pub fn check() -> Result<(), String> {
    let cfg = crate::serve::serve_small().cfg;
    let engine = build_engine(&cfg, 7)?;
    let req = |id, arrival_us, prompt: Vec<i32>, decode_steps| Request {
        id,
        arrival_us,
        prompt,
        decode_steps,
    };
    // r0 runs alone for one step; r1, due at 0.5 ms, is noticed and
    // admitted at the 1 ms step boundary; both retire at 3 ms; the engine
    // idles until r2 is due at 5 ms.
    let workload = Workload::new(vec![
        req(0, 0, vec![1], 3),
        req(1, 500, vec![2, 3], 2),
        req(2, 5_000, vec![4], 1),
    ]);
    let report = engine
        .run(
            &workload,
            &RunOptions {
                queue_capacity: 4,
                virtual_step_us: Some(STEP_US),
                collector: None,
            },
        )
        .map_err(|e| e.to_string())?;
    let got = timeline(&workload, &report.events, cfg.slots);
    let want = Timeline {
        ttft_ms: vec![1.0, 1.5, 1.0],
        itl_ms: vec![1.0, 1.0, 1.0],
        queue_wait_ms: vec![0.0, 0.5, 0.0],
        ingest_lag_ms: vec![0.0, 0.5, 0.0],
        batch_mean: 1.5,
        slot_util: 6.0 / (4 * cfg.slots) as f64,
    };
    if got != want {
        return Err(format!("virtual-clock timeline {got:?}, expected {want:?}"));
    }

    let ranks: Vec<f64> = (1..=100).map(f64::from).collect();
    let p90 = percentile(&ranks, 90.0);
    let short = percentile(&ranks[..99], 90.0);
    if p90.value != 90.0 || !p90.resolved() || short.resolved() {
        return Err(format!("percentile tail rule: {p90:?}, {short:?}"));
    }
    Ok(())
}
