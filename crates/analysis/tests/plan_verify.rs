//! Plan-level translation validation, end to end.
//!
//! Two halves:
//!
//! * a **property sweep**: every zoo model × Table 2 schedule on the
//!   1×2/2×2/4×2 mesh ladder compiles to a [`CompiledPlan`] under both
//!   `PlanOptions::default()` (overlapped) and `PlanOptions::blocking()`,
//!   and the static verifier accepts every one. Blocking plans must
//!   verify *trivially*: no collective window is open at any step. The
//!   transformer and itransformer plans (training, serving loop and
//!   decode step) must compile without a single general interpreter
//!   fallback step; UNet's convolutions still take it, so UNet and GNS
//!   counts are reported, not gated.
//! * a **mutation suite**: ≥10 seeded overlap-pass bugs injected into
//!   the verifier view of real compiled plans — over-hoisted starts,
//!   mis-sunk waits, aliased slots, permuted stage orders, dropped wait
//!   edges and friends — plus index-map steps that lose a runtime index
//!   read or write the wrong slot, each of which the verifier must flag.
//!
//! The mutations operate on a clone of [`CompiledPlan::verifier_view`],
//! exactly the data a buggy overlap/allocation pass would have produced,
//! so the suite pins the verifier's power over the real compiled
//! representation rather than hand-built toys.

use partir_analysis::plan::{PlanView, StageView, StepView};
use partir_analysis::{verify_plan, Severity};
use partir_core::Partitioning;
use partir_ir::{DType, FuncBuilder, TensorType};
use partir_mesh::{HardwareConfig, Mesh};
use partir_models::schedules::{self, BATCH, MODEL};
use partir_models::{
    gns::GnsConfig,
    itransformer::{ITransformerConfig, ServingConfig},
    mlp::MlpConfig,
    transformer::TransformerConfig,
    unet::UNetConfig,
};
use partir_sched::{partir_jit, Schedule};
use partir_spmd::PlanOptions;
use std::sync::Arc;

/// The benchmark mesh ladder: 1×2, 2×2, 4×2 (batch × model).
fn meshes() -> Vec<Mesh> {
    [1usize, 2, 4]
        .into_iter()
        .map(|b| Mesh::new([(BATCH, b), (MODEL, 2)]).unwrap())
        .collect()
}

/// `(name, model, schedules, general_steps gated at 0)`.
type ZooEntry = (
    &'static str,
    partir_ir::Func,
    Vec<(&'static str, Schedule)>,
    bool,
);

fn zoo() -> Vec<ZooEntry> {
    // Batch 8 so the batch axis tiles on every mesh of the ladder.
    let unet_cfg = UNetConfig {
        batch: 8,
        ..UNetConfig::tiny()
    };
    vec![
        (
            "transformer",
            partir_models::transformer::build_train_step(&TransformerConfig::tiny())
                .unwrap()
                .func,
            schedules::transformer_table2(),
            true,
        ),
        (
            "itransformer",
            partir_models::itransformer::build_serving(&ITransformerConfig::tiny())
                .unwrap()
                .func,
            schedules::itransformer_table2(),
            true,
        ),
        (
            "itransformer-serve",
            partir_models::itransformer::build_decode_step(&ServingConfig::tiny())
                .unwrap()
                .func,
            schedules::itransformer_table2(),
            true,
        ),
        (
            "unet",
            partir_models::unet::build_train_step(&unet_cfg)
                .unwrap()
                .func,
            schedules::unet_table2(),
            false,
        ),
        (
            "gns",
            partir_models::gns::build_train_step(&GnsConfig::tiny())
                .unwrap()
                .func,
            schedules::gns_table2(),
            false,
        ),
    ]
}

/// Property: the verifier accepts every zoo plan, overlapped and
/// blocking, blocking plans have no open window at any step, and the
/// gated models compile with zero general fallback steps.
#[test]
fn zoo_plans_verify_under_both_options() {
    for (name, func, rows, gate_general) in zoo() {
        for mesh in meshes() {
            let hw = HardwareConfig::tpu_v3_pod(mesh.clone());
            let mesh_label: Vec<String> = mesh.axes().iter().map(|(_, s)| s.to_string()).collect();
            for (schedule_label, schedule) in &rows {
                let label = format!("{name}/{schedule_label} on {}", mesh_label.join("x"));
                let jitted = partir_jit(&func, &hw, schedule).expect(&label);
                for (opt_label, opts) in [
                    ("overlapped", PlanOptions::default()),
                    ("blocking", PlanOptions::blocking()),
                ] {
                    let plan = jitted
                        .program
                        .compile_with(&opts)
                        .unwrap_or_else(|e| panic!("{label} ({opt_label}): {e}"));
                    let diags = plan.verify();
                    assert!(
                        diags.iter().all(|d| d.severity < Severity::Warning),
                        "{label} ({opt_label}) rejected:\n{}",
                        diags
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join("\n")
                    );
                    if opt_label == "blocking" {
                        assert!(
                            plan.collective_windows().iter().all(|w| w.gap_steps == 0),
                            "{label}: blocking plan has an open collective window"
                        );
                    }
                    let general = plan.general_steps();
                    if gate_general {
                        assert_eq!(general, 0, "{label} ({opt_label}): general fallback steps");
                    } else {
                        println!("{label} ({opt_label}): general_steps={general}");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mutation suite
// ---------------------------------------------------------------------------

/// The Megatron-style MLP on a 2×2 mesh: all_reduce and gather/slice
/// collectives with real compute inside the overlapped windows.
fn mlp_view() -> PlanView {
    let model = partir_models::mlp::build_train_step(&MlpConfig::small()).unwrap();
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap();
    let mut part = Partitioning::new(&model.func, mesh).unwrap();
    let params = model.func.params().to_vec();
    part.tile(&model.func, params[0], 0, &BATCH.into()).unwrap();
    part.tile(&model.func, params[2], 1, &MODEL.into()).unwrap();
    part.propagate(&model.func);
    let program = partir_spmd::lower(&model.func, &part)
        .unwrap()
        .fused()
        .unwrap();
    let plan = program.compile_with(&PlanOptions::default()).unwrap();
    let view = plan.verifier_view().clone();
    assert!(
        verify_plan(&view)
            .iter()
            .all(|d| d.severity < Severity::Warning),
        "baseline mlp plan must verify before mutation"
    );
    view
}

/// A single all_reduce over *both* mesh axes: its per-device schedules
/// have two rendezvous stages, which is what stage-order mutations need.
fn two_axis_view() -> PlanView {
    let mut b = FuncBuilder::new("both_axes");
    let x = b.param("x", TensorType::f32([4, 4]));
    let s = b.reduce_sum(x, vec![0, 1]).unwrap();
    let f = b.build([s]).unwrap();
    let mesh = Mesh::new([(BATCH, 2), (MODEL, 2)]).unwrap();
    let mut part = Partitioning::new(&f, mesh).unwrap();
    part.tile(&f, x, 0, &BATCH.into()).unwrap();
    part.tile(&f, x, 1, &MODEL.into()).unwrap();
    part.propagate(&f);
    let program = partir_spmd::lower(&f, &part).unwrap();
    let plan = program.compile_with(&PlanOptions::default()).unwrap();
    let view = plan.verifier_view().clone();
    assert!(
        view.steps.iter().any(|s| matches!(
            s,
            StepView::CollWait { stages, .. } if stages[0].len() == 2
        )),
        "expected a two-stage collective in the two-axis reduction plan"
    );
    view
}

fn rules(view: &PlanView) -> Vec<String> {
    verify_plan(view)
        .into_iter()
        .filter(|d| d.severity >= Severity::Warning)
        .map(|d| d.rule.to_string())
        .collect()
}

fn assert_flags(view: &PlanView, rule: &str, what: &str) {
    let got = rules(view);
    assert!(
        got.iter().any(|r| r == rule),
        "{what}: expected rule {rule}, verifier reported {got:?}"
    );
}

/// First `CollStart` whose source is produced by an earlier top-level
/// step (so hoisting above that producer is provably wrong).
fn hoistable_start(view: &PlanView) -> (usize, usize) {
    for (i, step) in view.steps.iter().enumerate() {
        let StepView::CollStart { src, .. } = step else {
            continue;
        };
        let producer = view.steps[..i].iter().position(|s| {
            matches!(s, StepView::Compute { writes, .. }
                if writes.iter().any(|w| w.value == src.value))
        });
        if let Some(p) = producer {
            return (i, p);
        }
    }
    panic!("no collective start with an in-plan producer");
}

/// Mutation 1: over-hoisted start — the overlap pass moved a
/// `CollStart` above the step that produces its operand.
#[test]
fn mutation_over_hoisted_start() {
    let mut view = mlp_view();
    let (start, producer) = hoistable_start(&view);
    let s = view.steps.remove(start);
    view.steps.insert(producer, s);
    assert_flags(&view, "plan-race", "over-hoisted start");
}

/// Mutation 2: mis-sunk wait — a `CollWait` pushed past the first
/// consumer of its result.
#[test]
fn mutation_mis_sunk_wait() {
    let mut view = mlp_view();
    let (wait, consumer) = (0..view.steps.len())
        .find_map(|i| {
            let StepView::CollWait { dst, .. } = &view.steps[i] else {
                return None;
            };
            let c = view.steps[i + 1..].iter().position(|s| {
                matches!(s, StepView::Compute { reads, .. }
                    if reads.iter().any(|r| r.value == dst.value))
            })?;
            Some((i, i + 1 + c))
        })
        .expect("no wait with an in-plan consumer");
    let w = view.steps.remove(wait);
    view.steps.insert(consumer, w); // lands just *after* the consumer
    assert_flags(&view, "plan-race", "mis-sunk wait");
}

/// Mutation 3: dropped wait edge — the wait vanishes entirely, so the
/// window never closes and the result is never produced.
#[test]
fn mutation_dropped_wait() {
    let mut view = mlp_view();
    let wait = view
        .steps
        .iter()
        .position(|s| matches!(s, StepView::CollWait { .. }))
        .expect("plan has a wait");
    view.steps.remove(wait);
    assert_flags(&view, "plan-window-unpaired", "dropped wait");
}

/// Mutation 4: dropped start — the wait blocks on messages no start
/// ever put in flight.
#[test]
fn mutation_dropped_start() {
    let mut view = mlp_view();
    let start = view
        .steps
        .iter()
        .position(|s| matches!(s, StepView::CollStart { .. }))
        .expect("plan has a start");
    view.steps.remove(start);
    assert_flags(&view, "plan-window-unpaired", "dropped start");
}

/// Mutation 5: duplicated wait — one tag waited twice (a double-free of
/// the in-flight table in the executor).
#[test]
fn mutation_duplicated_wait() {
    let mut view = mlp_view();
    let wait = view
        .steps
        .iter()
        .position(|s| matches!(s, StepView::CollWait { .. }))
        .expect("plan has a wait");
    let w = view.steps[wait].clone();
    view.steps.insert(wait + 1, w);
    assert_flags(&view, "plan-window-duplicate", "duplicated wait");
}

/// Every access of `value`, anywhere in the plan, relocated to `off` —
/// what a first-fit allocator bug that hands out an in-use range does.
fn relocate(steps: &mut [StepView], value: u32, off: usize) {
    for step in steps {
        match step {
            StepView::Compute { reads, writes, .. } => {
                for a in reads.iter_mut().chain(writes.iter_mut()) {
                    if a.value == value {
                        a.off = off;
                    }
                }
            }
            StepView::IndexMap {
                srcs, index, dst, ..
            } => {
                for a in srcs.iter_mut().chain(index).chain([dst]) {
                    if a.value == value {
                        a.off = off;
                    }
                }
            }
            StepView::CollStart { src, .. } => {
                if src.value == value {
                    src.off = off;
                }
            }
            StepView::CollWait { dst, .. } => {
                if dst.value == value {
                    dst.off = off;
                }
            }
            StepView::For(f) => {
                for (a, b) in f
                    .entry
                    .iter_mut()
                    .chain(f.carry.iter_mut())
                    .chain(f.exit.iter_mut())
                    .chain(f.bypass.iter_mut())
                {
                    if a.value == value {
                        a.off = off;
                    }
                    if b.value == value {
                        b.off = off;
                    }
                }
                relocate(&mut f.body, value, off);
            }
        }
    }
}

/// Mutation 6: aliased slots — two simultaneously-live values assigned
/// overlapping arena ranges.
#[test]
fn mutation_aliased_slots() {
    let mut view = mlp_view();
    // def/last-read positions of every top-level compute-written value.
    struct Life {
        def: usize,
        last_read: usize,
        pool: usize,
        off: usize,
    }
    let mut lives: Vec<(u32, Life)> = Vec::new();
    for (i, step) in view.steps.iter().enumerate() {
        let StepView::Compute { reads, writes, .. } = step else {
            continue;
        };
        for w in writes {
            lives.push((
                w.value,
                Life {
                    def: i,
                    last_read: i,
                    pool: w.pool,
                    off: w.off,
                },
            ));
        }
        for r in reads {
            if let Some((_, l)) = lives.iter_mut().find(|(v, _)| *v == r.value) {
                l.last_read = i;
            }
        }
    }
    // A pair (victim, thief): thief defined while victim still live, in
    // the same pool, at a different range.
    let (victim, thief) = lives
        .iter()
        .find_map(|(v, lv)| {
            let thief = lives.iter().find(|(w, lw)| {
                w != v
                    && lw.pool == lv.pool
                    && lw.off != lv.off
                    && lv.def < lw.def
                    && lw.def < lv.last_read
            })?;
            Some(((*v, lv.off), thief.0))
        })
        .expect("no overlapping-lifetime pair in the plan");
    relocate(&mut view.steps, thief, victim.1);
    assert_flags(&view, "plan-slot-overlap", "aliased slots");
}

/// Mutation 7: permuted stage order — a buggy scheduler reverses the
/// per-axis rendezvous order on the diagonal devices of the mesh. Each
/// device still runs a plausible-looking schedule (symmetry holds
/// stage-for-stage), but no global linearisation exists: a cycle of
/// devices each waits for a partner blocked on its *other* axis.
#[test]
fn mutation_permuted_stage_order() {
    let mut view = two_axis_view();
    for step in &mut view.steps {
        let StepView::CollWait { stages, .. } = step else {
            continue;
        };
        if stages[0].len() < 2 {
            continue;
        }
        let stages = Arc::make_mut(stages);
        // Devices sharing no group with device 0 form the diagonal.
        let diag: Vec<usize> = (0..stages.len())
            .filter(|&d| d == 0 || stages[0].iter().all(|s: &StageView| !s.group.contains(&d)))
            .collect();
        for d in diag {
            stages[d].reverse();
        }
    }
    assert_flags(&view, "plan-rendezvous-deadlock", "permuted stage order");
}

/// Mutation 8: asymmetric group — one device's stage table names a
/// rendezvous group its partners don't agree with.
#[test]
fn mutation_asymmetric_group() {
    let mut view = mlp_view();
    let step = view
        .steps
        .iter_mut()
        .find(|s| matches!(s, StepView::CollWait { .. }))
        .expect("plan has a wait");
    let StepView::CollWait { stages, .. } = step else {
        unreachable!()
    };
    let stages = Arc::make_mut(stages);
    // Device 0 forgets one of its partners.
    let group = &mut stages[0][0].group;
    let partner = group
        .iter()
        .position(|&d| d != 0)
        .expect("group has a partner");
    group.remove(partner);
    assert_flags(&view, "plan-rendezvous-asymmetric", "asymmetric group");
}

/// Mutation 9: out-of-bounds write — a step writes past the arena pool.
#[test]
fn mutation_oob_access() {
    let mut view = mlp_view();
    let pool_len = view.pool_len;
    let w = view
        .steps
        .iter_mut()
        .find_map(|s| match s {
            StepView::Compute { writes, .. } => writes.first_mut(),
            _ => None,
        })
        .expect("plan has a compute write");
    w.off = pool_len[w.pool];
    assert_flags(&view, "plan-oob-access", "out-of-bounds write");
}

/// Mutation 10: shrunk pool — the allocator under-reports the arena
/// size the steps were planned against.
#[test]
fn mutation_shrunk_pool() {
    let mut view = mlp_view();
    assert!(view.pool_len[0] > 1, "mlp plan uses the f32 pool");
    view.pool_len[0] = 1;
    assert_flags(&view, "plan-oob-access", "shrunk pool");
}

/// Mutation 11: stale source token — a start reads a range the compiler
/// believes holds a value that was never materialised there (the
/// effect-level signature of hoisting above a redefinition).
#[test]
fn mutation_stale_start_token() {
    let mut view = mlp_view();
    let src = view
        .steps
        .iter_mut()
        .find_map(|s| match s {
            StepView::CollStart { src, .. } => Some(src),
            _ => None,
        })
        .expect("plan has a start");
    src.value = u32::MAX - 1;
    assert_flags(&view, "plan-race", "stale start token");
}

/// Mutation 12: a bad commute decision — two dependent compute steps
/// swapped, exactly what a buggy `steps_commute` would permit.
#[test]
fn mutation_swapped_dependent_steps() {
    let mut view = mlp_view();
    let i = (0..view.steps.len() - 1)
        .find(|&i| {
            let (StepView::Compute { writes, .. }, StepView::Compute { reads, .. }) =
                (&view.steps[i], &view.steps[i + 1])
            else {
                return false;
            };
            writes
                .iter()
                .any(|w| reads.iter().any(|r| r.value == w.value))
        })
        .expect("no adjacent dependent compute pair");
    view.steps.swap(i, i + 1);
    assert_flags(&view, "plan-race", "swapped dependent steps");
}

/// Dynamic slice (scalar start slots) and gather (an index table) on
/// one device: the two kinds of runtime index an index-map step reads.
fn index_map_view() -> PlanView {
    let mut b = FuncBuilder::new("index_maps");
    let x = b.param("x", TensorType::f32([8, 4]));
    let i = b.param("i", TensorType::scalar(DType::I32));
    let idx = b.param("idx", TensorType::i32([3]));
    let zero = b.const_i32(0).unwrap();
    let ds = b.dynamic_slice(x, &[i, zero], vec![2, 4]).unwrap();
    let g = b.gather(x, idx, 0).unwrap();
    let f = b.build([ds, g]).unwrap();
    let mesh = Mesh::single(BATCH, 1).unwrap();
    let plan = partir_spmd::CompiledPlan::compile(&f, &mesh, &PlanOptions::default()).unwrap();
    assert_eq!(plan.general_steps(), 0, "index maps must compile");
    let view = plan.verifier_view().clone();
    assert!(
        verify_plan(&view)
            .iter()
            .all(|d| d.severity < Severity::Warning),
        "baseline index-map plan must verify before mutation"
    );
    view
}

/// The index-map step named `name` in a top-level plan view.
fn index_map<'a>(view: &'a mut PlanView, name: &str) -> &'a mut StepView {
    view.steps
        .iter_mut()
        .find(|s| matches!(s, StepView::IndexMap { name: n, .. } if *n == name))
        .unwrap_or_else(|| panic!("plan has no {name} index map"))
}

/// Mutation 13: a dynamic slice whose effect list forgets one of its
/// start-index reads — the slot could be recycled under the map.
#[test]
fn mutation_index_map_dropped_dynamic_index_read() {
    let mut view = index_map_view();
    let StepView::IndexMap { index, .. } = index_map(&mut view, "dynamic_slice") else {
        unreachable!()
    };
    index.pop().expect("dynamic slice reads start slots");
    assert_flags(&view, "plan-index-map", "dropped dynamic index read");
}

/// Mutation 14: a gather whose effect list forgets its index table.
#[test]
fn mutation_index_map_dropped_indirect_index_read() {
    let mut view = index_map_view();
    let StepView::IndexMap { index, .. } = index_map(&mut view, "gather") else {
        unreachable!()
    };
    index.clear();
    assert_flags(&view, "plan-index-map", "dropped indirect index read");
}

/// Mutation 15: an index map writing the wrong slot — over its own
/// source (the real result range is never written, so the program
/// result reads stale data), or into its index table's pool.
#[test]
fn mutation_index_map_wrong_write_slot() {
    let mut view = index_map_view();
    let StepView::IndexMap { srcs, dst, .. } = index_map(&mut view, "gather") else {
        unreachable!()
    };
    let (pool, off, len) = (srcs[0].pool, srcs[0].off, dst.len);
    dst.pool = pool;
    dst.off = off;
    dst.len = len;
    assert_flags(&view, "plan-race", "index map writing over its source");

    let mut view = index_map_view();
    let StepView::IndexMap { index, dst, .. } = index_map(&mut view, "gather") else {
        unreachable!()
    };
    dst.pool = index[0].pool;
    dst.off = index[0].off;
    dst.len = index[0].len;
    assert_flags(&view, "plan-index-map", "index map writing its index pool");
}
