//! Steady-state allocation audit of the compiled-plan executor.
//!
//! The whole point of the plan layer is that the hot loop — load inputs,
//! run steps — allocates *nothing* once the executor and the kernels'
//! scratch pool are warm. A counting global allocator makes that an
//! assertable property instead of a hope: after one warm-up run, a
//! second `load_inputs` + `run_local_steps` pass must perform zero heap
//! allocations. (`read_outputs` is excluded — it materialises fresh
//! `Literal`s for the caller by design.)
//!
//! Three single-device plans are audited: a hand-picked program covering
//! the step repertoire, the T-train step (pad, compare, select, gather
//! and scatter_add on the index-map step and the typed elementwise
//! lanes) and the IT32 serving decode step.
//!
//! The test binary is separate from the other suites so the counter only
//! ever observes this binary's traffic; its tests run one at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use partir_ir::{Func, FuncBuilder, Literal, TensorType};
use partir_mesh::Mesh;
use partir_models::itransformer::{build_decode_step, ServingConfig};
use partir_models::transformer::{build_train_step, TransformerConfig};
use partir_models::{synthetic_inputs, BuiltModel};
use partir_spmd::CompiledPlan;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates verbatim to `System`, which upholds
// the full `GlobalAlloc` contract (layout fitting, non-aliasing,
// propagation of null on failure). The only addition is a relaxed
// atomic counter bump, which touches no allocator state and cannot
// unwind — so the delegated calls inherit `System`'s guarantees
// unchanged. This test binary is the one deliberate `unsafe` user in
// the workspace (every library crate is `#![forbid(unsafe_code)]`);
// counting heap traffic from a `#[global_allocator]` is impossible
// without it.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded
    // to `System.alloc` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: caller guarantees `ptr` came from this allocator with
    // `layout`; `System.dealloc` accepts exactly that.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same delegation argument as `alloc`/`dealloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A single-device compute program covering the plan's step repertoire:
/// baked constants, fused elementwise chains, matmul, transpose,
/// reduction, reshape and a loop.
fn compute_func() -> partir_ir::Func {
    let mut b = FuncBuilder::new("hot");
    let x = b.param("x", TensorType::f32([16, 32]));
    let w = b.param("w", TensorType::f32([32, 16]));
    let h = b.matmul(x, w).unwrap();
    let a = b.tanh(h).unwrap();
    let s = b.add(a, h).unwrap();
    let t = b.transpose(s, vec![1, 0]).unwrap();
    let flat = b.reshape(t, [256]).unwrap();
    let r = b.reshape(flat, [16, 16]).unwrap();
    let m = b.matmul(h, r).unwrap();
    let looped = b
        .for_loop(3, &[m], |inner, _i, carried| {
            let n = inner.neg(carried[0])?;
            let e = inner.exp(n)?;
            Ok(vec![e])
        })
        .unwrap();
    let red = b.reduce_sum(looped[0], vec![1]).unwrap();
    b.build([red]).unwrap()
}

/// Serialises the tests of this binary: the allocation counter is
/// global, so a concurrently running test (even one still building its
/// model) would pollute the count. Every test holds it throughout.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Compiles `func` for one device, warms the executor with one run,
/// then requires a second `load_inputs` + `run_local_steps` pass to
/// allocate nothing and to reproduce the warm run's outputs.
fn assert_warm_run_allocates_nothing(func: &Func, inputs: &[Literal]) {
    let mesh = Mesh::single("B", 1).unwrap();
    let plan = CompiledPlan::compile(func, &mesh, &Default::default()).unwrap();
    assert_eq!(plan.general_steps(), 0, "plan keeps general fallback steps");

    let mut st = plan.new_executor();
    // Warm-up: fills the arena and the kernels' thread-local scratch.
    plan.load_inputs(&mut st, inputs).unwrap();
    plan.run_local_steps(&mut st).unwrap();
    let warm = plan.read_outputs(&st).unwrap();

    // Steady state: the hot loop must not touch the heap at all.
    let before = ALLOCS.load(Ordering::SeqCst);
    plan.load_inputs(&mut st, inputs).unwrap();
    plan.run_local_steps(&mut st).unwrap();
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "plan hot loop allocated {} time(s)",
        after - before
    );

    // And it still computes the same thing.
    let again = plan.read_outputs(&st).unwrap();
    assert_eq!(warm, again);
}

/// Asserts the model contains every op in `kinds` (so the audit covers
/// those steps).
fn assert_has_ops(model: &BuiltModel, kinds: &[&str]) {
    let func = &model.func;
    for kind in kinds {
        assert!(
            func.op_ids().any(|op| func.op(op).kind.name() == *kind),
            "model has no {kind} op"
        );
    }
}

#[test]
fn steady_state_hot_loop_allocates_nothing() {
    let _serial = serial();
    let inputs = vec![
        Literal::ones(&TensorType::f32([16, 32])),
        Literal::ones(&TensorType::f32([32, 16])),
    ];
    assert_warm_run_allocates_nothing(&compute_func(), &inputs);
}

/// The T-train step the benchmark trains (2 layers, d_model 32, batch 16).
#[test]
fn transformer_train_plan_allocates_nothing() {
    let _serial = serial();
    let model = build_train_step(&TransformerConfig {
        layers: 2,
        d_model: 32,
        heads: 2,
        d_ff: 128,
        vocab: 64,
        seq: 32,
        batch: 16,
    })
    .unwrap();
    assert_has_ops(
        &model,
        &["pad", "compare", "select", "gather", "scatter_add"],
    );
    assert_warm_run_allocates_nothing(&model.func, &synthetic_inputs(&model, 3));
}

/// The IT32 decode step the serving engine runs every step.
#[test]
fn it32_decode_step_plan_allocates_nothing() {
    let _serial = serial();
    let model = build_decode_step(&ServingConfig::it32()).unwrap();
    assert_has_ops(&model, &["compare", "select", "gather", "arg_max"]);
    assert_warm_run_allocates_nothing(&model.func, &synthetic_inputs(&model, 3));
}
