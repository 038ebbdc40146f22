//! One benchmark command for the whole PartIR-rs stack.
//!
//! ```text
//! perfbench --workload <train|serve|serve_small> --seed <n>
//!           --seconds <s> --trace <0|1> [--commit <id>]
//! ```
//!
//! With `--trace 0` the workload runs untraced and the last line of
//! standard output is a JSON object with the end-to-end metrics. With
//! `--trace 1` it runs twice, untraced and then with a recording
//! collector, and reports per-layer metrics instead; the per-layer table
//! and a Chrome trace are written under `.bench_out`. Any failed correctness
//! gate makes the exit code non-zero. `perfbench/README.md` describes the
//! workloads and metrics.

mod host;
mod layers;
mod partition;
mod report;
mod selftest;
mod serve;
mod stats;
mod train;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use partir_analysis::Severity;
use partir_ir::Literal;
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::schedules::{BATCH, MODEL};
use partir_obs::{Collector, SpanGuard};
use partir_spmd::CompiledPlan;

use report::{Measured, Named, END_TO_END};
use stats::{median, Percentile};

/// Where run details, per-layer tables and Chrome traces are written.
const OUT_DIR: &str = ".bench_out";

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 31;

/// How a workload run is driven.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Set-ups to time (the last one is measured).
    pub setups: usize,
    /// Recording collector for the traced run.
    pub collector: Option<Collector>,
}

impl Ctx {
    /// Runs `f` on the `main` track of the collector, if tracing.
    pub fn traced<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.collector {
            Some(c) => partir_obs::with_track(c, "main", f),
            None => f(),
        }
    }
}

/// A benchmark-side span around a public call (inert when untraced).
pub fn span(name: &'static str) -> SpanGuard {
    partir_obs::span_enter(name)
}

/// The benchmark machine: a `{batch, model}` TPU-like mesh.
pub fn mesh((batch, model): (usize, usize)) -> HardwareConfig {
    let mesh = Mesh::new([(BATCH, batch), (MODEL, model)]).expect("valid mesh");
    HardwareConfig::tpu_v3_pod(mesh)
}

/// `CompiledPlan::verify`, failing on any `Error` diagnostic. `Info`
/// findings such as `plan-window-src-write` are allowed.
pub fn verify_plan(plan: &CompiledPlan) -> Result<(), String> {
    let diags = {
        let _s = span("analysis.verify");
        plan.verify()
    };
    let errors: Vec<String> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| format!("{}: {}", d.rule, d.message))
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

/// Bit-for-bit equality of two literals (f32 compared by bit pattern).
pub fn same_bits(a: &Literal, b: &Literal) -> bool {
    match (a.as_f32(), b.as_f32()) {
        (Ok(x), Ok(y)) => {
            a.shape() == b.shape()
                && x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => a == b,
    }
}

/// This process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--commit" => args.commit = value()?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One workload: its mesh and where its plan runs show up in a trace.
struct Spec {
    mesh: (usize, usize),
    /// Length of each phase of a traced run, seconds.
    trace_seconds: f64,
    /// Blocks the measured samples are split into for percentiles.
    blocks: usize,
    /// The workload's own names for its latency and gap percentiles.
    aliases: (Option<&'static str>, Option<&'static str>),
    window: (&'static str, &'static str),
    run: fn(&Ctx) -> Result<Measured, String>,
}

fn spec(workload: &str) -> Option<Spec> {
    let serving = ("serve", "serve.step");
    Some(match workload {
        "train" => Spec {
            aliases: (Some("step"), None),
            blocks: 3,
            trace_seconds: 2.0,
            mesh: train::MESH,
            window: ("main", "runtime.run_plan"),
            run: train::run,
        },
        "serve" => Spec {
            aliases: (Some("ttft"), Some("itl")),
            blocks: 3,
            trace_seconds: 2.0,
            mesh: serve::MESH,
            window: serving,
            run: |ctx| serve::run(ctx, &serve::serve()),
        },
        "serve_small" => Spec {
            aliases: (Some("ttft"), Some("itl")),
            blocks: 3,
            trace_seconds: 0.25,
            mesh: serve::MESH,
            window: serving,
            run: |ctx| serve::run(ctx, &serve::serve_small()),
        },
        _ => return None,
    })
}

/// A JSON number; a non-finite value (which also fails the run) prints 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn fmt_pct(p: &Percentile) -> Option<String> {
    (!p.resolved()).then(|| {
        format!(
            "flagged: {} samples, only {} beyond the rank in a block, fewer than {}",
            p.samples,
            p.beyond,
            stats::MIN_TAIL_SAMPLES
        )
    })
}

/// The end-to-end rows: the JSON metrics, their p90 tails, and the same
/// percentiles under the workload's own names.
fn end_to_end(m: &Measured, spec: &Spec) -> Vec<Named> {
    let blocks = spec.blocks;
    let pct = |samples: &[f64], name: &str, p: f64| {
        let v = stats::blocked(samples, p, blocks);
        let named = Named::new(name, "ms", v.value);
        match fmt_pct(&v) {
            Some(flag) => named.with_note(flag),
            None => named.with_note(format!("{} samples in {blocks} blocks", v.samples)),
        }
    };
    let mut rows = vec![
        Named::new("setup_s", "s", median(&m.setup_s))
            .with_note(format!("median of {} set-ups", m.setup_s.len())),
        Named::new("peak_rss_mb", "MiB", m.peak_rss_mb),
    ];
    let mut aliases = Vec::new();
    for (samples, kind, alias) in [
        (&m.latency_ms, "latency", spec.aliases.0),
        (&m.gap_ms, "gap", spec.aliases.1),
    ] {
        for p in [50u8, 90] {
            let row = pct(samples, &format!("{kind}_p{p}_ms"), f64::from(p));
            if let Some(alias) = alias {
                aliases.push(Named {
                    name: format!("{alias}_p{p}_ms"),
                    note: Some(format!("= {}", row.name)),
                    ..row.clone()
                });
            }
            rows.push(row);
        }
    }
    rows.extend(aliases);
    rows
}

fn table(title: &str, rows: &[Named]) -> String {
    let mut s = format!("{title}\n");
    for r in rows {
        let note = r
            .note
            .as_deref()
            .map(|n| format!("  ({n})"))
            .unwrap_or_default();
        let _ = writeln!(s, "  {:<30} {:>16.6} {:<6}{note}", r.name, r.value, r.unit);
    }
    s
}

fn details_json(
    meta: &[(&str, String)],
    sections: &[(&str, &[Named])],
    gates: &Measured,
) -> String {
    let esc = partir_obs::json_escape;
    let mut s = String::from("{\n  \"meta\": {");
    let fields: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", esc(v)))
        .collect();
    s.push_str(&fields.join(", "));
    s.push_str("},\n");
    for (name, rows) in sections {
        let items: Vec<String> = rows
            .iter()
            .map(|r| {
                let note = r
                    .note
                    .as_deref()
                    .map(|n| format!(", \"note\": \"{}\"", esc(n)))
                    .unwrap_or_default();
                format!(
                    "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"{note}}}",
                    r.name,
                    json_num(r.value),
                    r.unit
                )
            })
            .collect();
        let _ = write!(s, "  \"{name}\": {{\n{}\n  }},\n", items.join(",\n"));
    }
    let gates: Vec<String> = gates
        .gates
        .iter()
        .map(|g| {
            format!(
                "    \"{}\": {{\"ok\": {}, \"detail\": \"{}\"}}",
                g.name,
                g.ok,
                esc(&g.detail)
            )
        })
        .collect();
    let _ = write!(s, "  \"gates\": {{\n{}\n  }}\n}}\n", gates.join(",\n"));
    s
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = spec(&args.workload).ok_or(format!(
        "unknown workload {:?}; expected train, serve or serve_small",
        args.workload
    ))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let devices = spec.mesh.0 * spec.mesh.1;
    let oversubscribed = devices > nproc;
    if oversubscribed {
        eprintln!(
            "warning: {} runs one thread per device on {devices} devices but only {nproc} CPUs \
             are available; its timings are flagged",
            args.workload
        );
    }
    let meta = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        (
            "mesh",
            format!("{BATCH}:{},{MODEL}:{}", spec.mesh.0, spec.mesh.1),
        ),
        ("devices", devices.to_string()),
        ("oversubscribed", oversubscribed.to_string()),
        ("commit", args.commit.clone()),
    ];
    let meta_line: Vec<String> = meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# perfbench {}", meta_line.join(" "));

    selftest::check().map_err(|e| format!("self-test failed: {e}"))?;

    let (m, rows) = if args.trace {
        // Untraced, then traced, each for a short phase that keeps the
        // Chrome trace small (train's partitioning pass runs once in each).
        let ctx = |collector| Ctx {
            seed: args.seed,
            seconds: spec.trace_seconds.min(args.seconds),
            setups: 1,
            collector,
        };
        let base = (spec.run)(&ctx(None))?;
        let collector = Collector::recording();
        let traced = (spec.run)(&ctx(Some(collector.clone())))?;
        let trace = collector.snapshot();
        trace.check_well_formed()?;
        let mut values: BTreeMap<String, f64> =
            layers::from_trace(&trace, spec.window.0, spec.window.1);
        // Values measured without the trace come from the untraced run.
        values.extend(base.layers.clone());
        values.insert(
            "obs.overhead_frac".into(),
            traced.headline / base.headline - 1.0,
        );
        let rows: Vec<Named> = report::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = values.get(&name).copied().unwrap_or(0.0);
                Named::new(name, unit, v)
            })
            .collect();
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let stem = format!("{OUT_DIR}/{}-seed{}", args.workload, args.seed);
        std::fs::write(format!("{stem}.trace.json"), trace.to_chrome_json())
            .map_err(|e| e.to_string())?;
        std::fs::write(format!("{stem}.layers.txt"), table("per-layer", &rows))
            .map_err(|e| e.to_string())?;
        let mut gates = base;
        gates.gates.extend(traced.gates);
        (gates, rows)
    } else {
        let m = (spec.run)(&Ctx {
            seed: args.seed,
            seconds: args.seconds,
            setups: SETUPS,
            collector: None,
        })?;
        let rows = end_to_end(&m, &spec);
        (m, rows)
    };

    let failed_frac = m.failed as f64 / m.attempted.max(1) as f64;
    let mut named = m.named.clone();
    named.push(Named::new("failed_frac", "ratio", failed_frac));
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    print!("{}", table(section, &rows));
    print!("{}", table(&format!("{} metrics", args.workload), &named));
    let correct =
        m.gates.iter().all(|g| g.ok) && m.attempted > 0 && rows.iter().all(|r| r.value.is_finite());
    for g in &m.gates {
        println!(
            "  gate {:<36} {}{}",
            g.name,
            if g.ok { "ok" } else { "FAILED" },
            if g.ok {
                String::new()
            } else {
                format!(": {}", g.detail)
            }
        );
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let details = details_json(&meta, &[(section, &rows), ("workload", &named)], &m);
    std::fs::write(
        format!(
            "{OUT_DIR}/{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ),
        details,
    )
    .map_err(|e| e.to_string())?;

    // The JSON result: every per-layer row, or the gated end-to-end ones.
    let fields: Vec<String> = rows
        .iter()
        .filter(|r| args.trace || END_TO_END.contains(&r.name.as_str()))
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name,
                json_num(r.value),
                r.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        fields.join(", ")
    );
    debug_assert_eq!(
        fields.len(),
        if args.trace {
            report::per_layer().len()
        } else {
            END_TO_END.len()
        }
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: a correctness gate failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
