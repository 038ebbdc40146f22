//! Differential properties of the compiled plan's typed elementwise
//! lanes, index-map step and `arg_max` reduction: over random shapes,
//! attributes and adversarial values, a single-device plan must match
//! the reference interpreter (`eval_op`, the independent index-walk
//! oracle) bit for bit — and compile without a general fallback.
//!
//! Edge cases drawn on purpose: negative pad `low`/`high`; comparisons
//! on NaN, ±0.0, ±inf and i32 extremes; f32 → i32 conversion of NaN and
//! out-of-range values; gather indices outside the axis; scatter_add
//! with duplicate and out-of-range indices; dynamic slice and update
//! starts below zero and past the end.

use partir_ir::interp::interpret;
use partir_ir::{BinaryOp, CompareDir, DType, Func, FuncBuilder, Literal, TensorType, ValueId};
use partir_mesh::Mesh;
use partir_prng::{propcheck::check, Rng};
use partir_spmd::{CompiledPlan, PlanOptions};

const CASES: u32 = 96;

const DIRS: [CompareDir; 6] = [
    CompareDir::Eq,
    CompareDir::Ne,
    CompareDir::Lt,
    CompareDir::Le,
    CompareDir::Gt,
    CompareDir::Ge,
];

fn f32_value(rng: &mut Rng) -> f32 {
    const EDGES: [f32; 12] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        3.0e9,
        -3.0e9,
        2_147_483_520.0,
        -2.5,
        1.0e-40,
    ];
    if rng.gen_bool(0.4) {
        *rng.choose(&EDGES)
    } else {
        // Few distinct values, so comparisons and arg_max see ties.
        (rng.gen_range(7) as f32 - 3.0) * 0.5
    }
}

fn i32_value(rng: &mut Rng) -> i32 {
    const EDGES: [i32; 6] = [i32::MIN, i32::MAX, 0, -1, 1, i32::MIN + 1];
    if rng.gen_bool(0.3) {
        *rng.choose(&EDGES)
    } else {
        rng.gen_range(9) as i32 - 4
    }
}

fn random_input(rng: &mut Rng, ty: &TensorType) -> Literal {
    let n = ty.shape.num_elements();
    let shape = ty.shape.clone();
    match ty.dtype {
        DType::F32 => Literal::from_f32((0..n).map(|_| f32_value(rng)).collect(), shape),
        DType::I32 => Literal::from_i32((0..n).map(|_| i32_value(rng)).collect(), shape),
        _ => Literal::from_pred((0..n).map(|_| rng.gen_bool(0.5)).collect(), shape),
    }
    .unwrap()
}

fn random_dims(rng: &mut Rng, max_rank: usize, max_dim: usize) -> Vec<usize> {
    let rank = 1 + rng.gen_range(max_rank);
    (0..rank).map(|_| 1 + rng.gen_range(max_dim)).collect()
}

/// Bit-level equality, so NaN payloads and signed zeros count.
fn same_bits(a: &Literal, b: &Literal) -> bool {
    if a.dtype() != b.dtype() || a.shape() != b.shape() {
        return false;
    }
    match a.dtype() {
        DType::F32 => {
            let (x, y) = (a.as_f32().unwrap(), b.as_f32().unwrap());
            x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => a == b,
    }
}

/// Compiles `func` for one device, runs it on random inputs (with
/// `index` overriding the i32 index parameters), and compares every
/// result with the reference interpreter.
fn check_against_interpreter(
    func: &Func,
    rng: &mut Rng,
    index: &[(usize, Literal)],
) -> Result<(), String> {
    let mesh = Mesh::single("B", 1).unwrap();
    let plan = CompiledPlan::compile(func, &mesh, &PlanOptions::default())
        .map_err(|e| format!("compile: {e}"))?;
    if plan.general_steps() != 0 {
        return Err(format!(
            "{} general step(s) in the plan",
            plan.general_steps()
        ));
    }
    let mut inputs: Vec<Literal> = func
        .params()
        .iter()
        .map(|&p| random_input(rng, func.value_type(p)))
        .collect();
    for (i, lit) in index {
        inputs[*i] = lit.clone();
    }
    let want = interpret(func, &inputs).map_err(|e| format!("interpret: {e}"))?;
    let got = plan
        .execute_local(&inputs)
        .map_err(|e| format!("plan: {e}"))?;
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        if !same_bits(g, w) {
            return Err(format!(
                "result {k} differs\ninputs: {inputs:?}\nplan: {g:?}\ninterpreter: {w:?}"
            ));
        }
    }
    Ok(())
}

#[test]
fn pad_matches_interpreter() {
    check("plan pad", CASES, |rng| {
        let dims = random_dims(rng, 3, 5);
        let mut b = FuncBuilder::new("pad");
        let x = b.param("x", TensorType::f32(dims.clone()));
        let v = b.param("v", TensorType::new(Vec::<usize>::new(), DType::F32));
        let (mut low, mut high) = (Vec::new(), Vec::new());
        for &d in &dims {
            // Negative edges crop; keep the output extent ≥ 0.
            let l = rng.gen_range(6) as i64 - 3;
            let h = (rng.gen_range(6) as i64 - 3).max(-(d as i64) - l);
            low.push(l);
            high.push(h);
        }
        let y = b.pad(x, v, low, high).unwrap();
        check_against_interpreter(&b.build([y]).unwrap(), rng, &[])
    });
}

#[test]
fn compare_select_convert_lanes_match_interpreter() {
    check("plan typed lanes", CASES, |rng| {
        let dims = random_dims(rng, 3, 70);
        let dt = *rng.choose(&[DType::F32, DType::I32, DType::Pred]);
        let mut b = FuncBuilder::new("lanes");
        let x = b.param("x", TensorType::new(dims.clone(), dt));
        let y = b.param("y", TensorType::new(dims.clone(), dt));
        let dir = *rng.choose(&DIRS);
        // A fused chain: compare → select → convert, plus unfused
        // singletons of each so both step shapes are exercised.
        let c = b.compare(dir, x, y).unwrap();
        let mut outs: Vec<ValueId> = vec![c];
        let payload = if dt == DType::Pred {
            b.convert(x, DType::I32).unwrap()
        } else {
            x
        };
        let other = if dt == DType::Pred {
            b.convert(y, DType::I32).unwrap()
        } else {
            y
        };
        let s = b.select(c, payload, other).unwrap();
        outs.push(s);
        for to in [DType::F32, DType::I32, DType::Pred] {
            outs.push(b.convert(s, to).unwrap());
            outs.push(b.convert(x, to).unwrap());
        }
        let pay_dt = if dt == DType::F32 {
            DType::F32
        } else {
            DType::I32
        };
        let ops: &[BinaryOp] = if pay_dt == DType::F32 {
            &[BinaryOp::Add, BinaryOp::Mul, BinaryOp::Max, BinaryOp::Div]
        } else {
            &[BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Min]
        };
        outs.push(b.binary(*rng.choose(ops), s, other).unwrap());
        check_against_interpreter(&b.build(outs).unwrap(), rng, &[])
    });
}

#[test]
fn gather_and_scatter_add_match_interpreter() {
    check("plan gather/scatter_add", CASES, |rng| {
        let dims = random_dims(rng, 3, 5);
        let axis = rng.gen_range(dims.len());
        let n_idx = 1 + rng.gen_range(6);
        let mut b = FuncBuilder::new("gs");
        let x = b.param("x", TensorType::f32(dims.clone()));
        let idx = b.param("idx", TensorType::i32([n_idx]));
        let g = b.gather(x, idx, axis).unwrap();
        let size = 1 + rng.gen_range(6);
        let s = b.scatter_add(g, idx, axis, size).unwrap();
        // Out-of-range on both sides, and duplicates from a tiny range.
        let extent = dims[axis] as i32;
        let table: Vec<i32> = (0..n_idx)
            .map(|_| match rng.gen_range(4) {
                0 => -1 - rng.gen_range(3) as i32,
                1 => extent.max(size as i32) + rng.gen_range(3) as i32,
                _ => rng.gen_range(2) as i32,
            })
            .collect();
        let table = Literal::from_i32(table, [n_idx]).unwrap();
        check_against_interpreter(&b.build([g, s]).unwrap(), rng, &[(1, table)])
    });
}

#[test]
fn dynamic_slice_and_update_match_interpreter() {
    check("plan dynamic slice/update", CASES, |rng| {
        let dims = random_dims(rng, 3, 6);
        let dt = *rng.choose(&[DType::F32, DType::I32]);
        let sizes: Vec<usize> = dims.iter().map(|&d| 1 + rng.gen_range(d)).collect();
        let mut b = FuncBuilder::new("dyn");
        let x = b.param("x", TensorType::new(dims.clone(), dt));
        let u = b.param("u", TensorType::new(sizes.clone(), dt));
        let starts: Vec<ValueId> = (0..dims.len())
            .map(|d| {
                b.param(
                    format!("s{d}"),
                    TensorType::new(Vec::<usize>::new(), DType::I32),
                )
            })
            .collect();
        let ds = b.dynamic_slice(x, &starts, sizes.clone()).unwrap();
        let dus = b.dynamic_update_slice(x, u, &starts).unwrap();
        let index: Vec<(usize, Literal)> = (0..dims.len())
            .map(|d| {
                let s = rng.gen_range(2 * dims[d] + 4) as i32 - 3;
                (2 + d, Literal::scalar_i32(s))
            })
            .collect();
        check_against_interpreter(&b.build([ds, dus]).unwrap(), rng, &index)
    });
}

#[test]
fn arg_max_matches_interpreter() {
    check("plan arg_max", CASES, |rng| {
        let dims = random_dims(rng, 3, 6);
        let dim = rng.gen_range(dims.len());
        let mut b = FuncBuilder::new("argmax");
        let x = b.param("x", TensorType::f32(dims));
        let y = b.argmax(x, dim).unwrap();
        check_against_interpreter(&b.build([y]).unwrap(), rng, &[])
    });
}

#[test]
fn data_movement_matches_interpreter() {
    check("plan data movement", CASES, |rng| {
        let dims = random_dims(rng, 3, 5);
        let dt = *rng.choose(&[DType::F32, DType::I32]);
        let rank = dims.len();
        let mut b = FuncBuilder::new("move");
        let x = b.param("x", TensorType::new(dims.clone(), dt));
        let mut perm: Vec<usize> = (0..rank).collect();
        for i in (1..rank).rev() {
            perm.swap(i, rng.gen_range(i + 1));
        }
        let t = b.transpose(x, perm).unwrap();
        let dim = rng.gen_range(rank);
        let cat = b.concatenate(&[x, x], dim).unwrap();
        let starts: Vec<usize> = dims.iter().map(|&d| rng.gen_range(d)).collect();
        let len: usize = dims.iter().zip(&starts).map(|(d, s)| d - s).product();
        let sl = b.slice(cat, starts, dims.clone()).unwrap();
        let flat = b.reshape(sl, [len]).unwrap();
        let mut shape = vec![2];
        shape.extend(&dims);
        let bc = b.broadcast_in_dim(x, shape, (1..=rank).collect()).unwrap();
        check_against_interpreter(&b.build([t, cat, sl, flat, bc]).unwrap(), rng, &[])
    });
}
