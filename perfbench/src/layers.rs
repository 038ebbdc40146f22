//! Per-layer metrics derived from a recorded trace: span self times by
//! layer, device step time by kind, and how much of each plan run the
//! device timelines account for.

use std::collections::BTreeMap;

use partir_obs::{SpanRec, Trace, TrackTrace};

#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    calls: u64,
    incl_ns: u64,
    self_ns: u64,
}

/// Adds each span of `track` to `out` under `key(span name)`. Self time
/// is the span's duration minus the part its direct children cover.
fn aggregate(track: &TrackTrace, out: &mut BTreeMap<String, Agg>, key: impl Fn(&str) -> String) {
    let spans = &track.spans;
    let mut child_ns = vec![0u64; spans.len()];
    // `open[k]` is the index of the enclosing span at depth `k`; spans
    // arrive sorted by (start, depth), so parents precede children.
    let mut open: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        open.truncate(s.depth);
        if let Some(&parent) = open.last() {
            child_ns[parent] += s.end_ns - s.start_ns;
        }
        open.push(i);
    }
    for (s, child) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let agg = out.entry(key(&s.name)).or_default();
        agg.calls += 1;
        agg.incl_ns += dur;
        agg.self_ns += dur.saturating_sub(child);
    }
}

/// The step kind a device-track span belongs to.
pub fn step_kind(span: &str) -> &'static str {
    match span {
        "dot" => "dot",
        "fused_eltwise" => "fused_eltwise",
        "reduce" => "reduce",
        "compare" => "compare",
        "select" => "select",
        "pad" => "pad",
        "gather" => "gather",
        "scatter_add" => "scatter_add",
        "arg_max" => "arg_max",
        "rendezvous_wait" => "rendezvous_wait",
        s if s.starts_with("coll.start") => "coll_start",
        s if s.starts_with("coll.wait") => "coll_wait",
        _ => "other",
    }
}

fn is_device(track: &TrackTrace) -> bool {
    track.name.starts_with("device")
}

/// Time within `[start, end)` covered by `spans` — top-level spans of
/// one track, sorted by start and pairwise disjoint.
fn covered(spans: &[&SpanRec], start: u64, end: u64) -> u64 {
    let first = spans.partition_point(|s| s.end_ns <= start);
    spans[first..]
        .iter()
        .take_while(|s| s.start_ns < end)
        .map(|s| s.end_ns.min(end).saturating_sub(s.start_ns.max(start)))
        .sum()
}

/// Per-layer metrics of `trace`. Plan runs are the spans named
/// `window` on track `window_track` (the benchmark's `runtime.run_plan`
/// span, or the engine's `serve.step`); per-step figures divide by
/// their count.
pub fn from_trace(trace: &Trace, window_track: &str, window: &str) -> BTreeMap<String, f64> {
    let mut host: BTreeMap<String, Agg> = BTreeMap::new();
    let mut steps: BTreeMap<String, Agg> = BTreeMap::new();
    let mut devices: Vec<Vec<&SpanRec>> = Vec::new();
    for track in &trace.tracks {
        if is_device(track) {
            aggregate(track, &mut steps, |n| step_kind(n).to_string());
            devices.push(track.spans.iter().filter(|s| s.depth == 0).collect());
        } else {
            aggregate(track, &mut host, str::to_string);
        }
    }
    let get = |name: &str| host.get(name).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;

    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        m.insert(name.to_string(), v + 0.0);
    };
    put("models.build_ms", ms(get("models.build").incl_ns));
    put("sched.jit_ms", ms(get("sched.jit").incl_ns));
    put("sched.search_ms", ms(get("sched.static_search").incl_ns));
    put(
        "analysis.objective_ms",
        ms(get("sched.static_search").self_ns),
    );
    put(
        "sched.static_evals",
        trace.counter_grand_total("sched.static.evals"),
    );
    put("core.propagate_ms", ms(get("core.propagate").self_ns));
    put("core.propagate_calls", get("core.propagate").calls as f64);
    put(
        "core.propagate_pops",
        trace.counter_grand_total("core.propagate.pops"),
    );
    let verify = get("analysis.verify");
    put(
        "analysis.verify_ms",
        ms(verify.incl_ns) / verify.calls.max(1) as f64,
    );
    put("sim.evaluate_ms", ms(get("sim.evaluate").self_ns));
    put("sim.evaluate_calls", get("sim.evaluate").calls as f64);
    put("spmd.lower_ms", ms(get("spmd.lower").self_ns));
    put("spmd.fuse_ms", ms(get("spmd.fuse").self_ns));
    put("spmd.compile_ms", ms(get("plan.compile").self_ns));

    // Plan runs: wall time, and the slowest device's coverage of it by
    // top-level step spans; the rest is host work.
    let windows: Vec<&SpanRec> = trace
        .track(window_track)
        .map(|t| t.spans.iter().filter(|s| s.name == window).collect())
        .unwrap_or_default();
    let runs = windows.len().max(1) as f64;
    let (mut wall_ns, mut attributed_ns) = (0u64, 0u64);
    for w in &windows {
        let best = devices
            .iter()
            .map(|spans| covered(spans, w.start_ns, w.end_ns))
            .max()
            .unwrap_or(0);
        wall_ns += w.end_ns - w.start_ns;
        attributed_ns += best;
    }
    put("runtime.run_plan_ms", ms(wall_ns) / runs);
    put("runtime.host_ms", ms(wall_ns - attributed_ns) / runs);
    put(
        "runtime.attributed_frac",
        if wall_ns == 0 {
            0.0
        } else {
            attributed_ns as f64 / wall_ns as f64
        },
    );
    put(
        "runtime.reshard_ms",
        ms(get("runtime.reshard").incl_ns) / runs,
    );

    // Device steps: self time and calls per plan run per device.
    let per = runs * devices.len().max(1) as f64;
    for kind in crate::report::STEP_KINDS {
        let agg = steps.get(*kind).copied().unwrap_or_default();
        put(&format!("step.{kind}_ms"), ms(agg.self_ns) / per);
        put(&format!("step.{kind}_calls"), agg.calls as f64 / per);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use partir_obs::Collector;

    #[test]
    fn self_time_coverage_and_kinds() {
        let c = Collector::with_fake_clock(1_000);
        // main: window [0, 5000) wraps nothing on this track.
        c.begin_on("main", "runtime.run_plan");
        // device0: coll.wait (contains a rendezvous_wait), then pad.
        c.begin_on("device0", "coll.wait.t0");
        c.begin_on("device0", "rendezvous_wait");
        c.end_on("device0");
        c.end_on("device0");
        c.begin_on("device0", "pad");
        c.end_on("device0");
        for _ in 0..3 {
            c.counter_on("main", "tick", 1.0);
        }
        c.end_on("main");
        let trace = c.snapshot();
        let m = from_trace(&trace, "main", "runtime.run_plan");
        // Fake clock: main events at 0 (begin), 1000..3000 (counters),
        // 4000 (end); device0 at 0,1000,2000,3000 then 4000,5000.
        assert_eq!(m["runtime.run_plan_ms"], 0.004);
        // coll.wait spans [0,3000) with a [1000,2000) child.
        assert_eq!(m["step.coll_wait_ms"], 0.002);
        assert_eq!(m["step.rendezvous_wait_ms"], 0.001);
        assert_eq!(m["step.coll_wait_calls"], 1.0);
        // pad [4000, 5000) lies outside the window's [0, 4000).
        assert_eq!(m["step.pad_ms"], 0.001);
        assert_eq!(m["runtime.attributed_frac"], 0.75);
        assert!((m["runtime.host_ms"] - 0.001).abs() < 1e-12);
        assert_eq!(step_kind("coll.start.ag3"), "coll_start");
        assert_eq!(step_kind("convert"), "other");
    }
}
