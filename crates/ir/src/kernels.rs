//! The tensor kernel engine: cache-friendly fast paths for the hot ops of
//! the reference and SPMD interpreters.
//!
//! The interpreter in [`crate::interp`] originally walked every output
//! element through a fresh multi-index `Vec` — correct, but dominated by
//! allocation and index arithmetic. This module provides the fast paths it
//! now dispatches to:
//!
//! * [`dot_general`] reduces *any* [`DotDims`] contraction to a batched
//!   row-major matmul (`[b, m, k] × [b, k, n]`) via at most one physical
//!   transpose per operand, then runs a k-blocked i-k-j microkernel whose
//!   inner loop is a contiguous multiply-accumulate the compiler can
//!   autovectorize. The element-at-a-time index walk survives as
//!   [`dot_general_reference`] — the oracle the property tests compare
//!   against. Both accumulate partial products in the same (row-major
//!   contraction) order, so their results are bit-identical.
//! * [`transpose`], [`broadcast`] and [`slice`] are strided gathers over a
//!   shared odometer walker ([`gather_strided`]): the inner loop copies
//!   whole contiguous rows with `extend_from_slice` when the innermost
//!   input stride is 1 (and splats when it is 0) instead of calling
//!   `linear_index` per element.
//! * [`reduce_f32`] folds inputs in linear order while tracking the output
//!   offset incrementally — the exact accumulation order of the original
//!   loop (bit-identical), without a multi-index allocation per element.
//! * [`concat`] and [`update_slice_in_place`] copy whole row spans.
//! * [`fold_reduce`] is the collectives' accumulation step: it mutates the
//!   accumulator in place when its copy-on-write buffer is uniquely owned
//!   (the common case for payloads received over runtime channels).
//!
//! # Scratch arena
//!
//! The physical transposes [`dot_general`] stages its operands through are
//! pure temporaries, so their buffers are recycled through a small
//! per-thread arena ([`with_scratch`]) instead of hitting the allocator
//! once per op. The threaded runtime runs one OS thread per device, so the
//! thread-local arena doubles as a per-device scratch pool that lives for
//! the whole execution; buffers are returned (not freed) after each dot.

use std::cell::RefCell;

use crate::{BinaryOp, DType, DotDims, IrError, Literal, ReduceOp, Shape};

// ---------------------------------------------------------------------------
// Scratch arena
// ---------------------------------------------------------------------------

/// Upper bound on pooled buffers per thread; beyond this, buffers drop.
const ARENA_MAX_BUFS: usize = 8;
/// Buffers above this element count are not retained (bounds arena RSS).
const ARENA_MAX_ELEMS: usize = 1 << 22;

thread_local! {
    static SCRATCH: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Borrows a zero-length scratch `Vec<f32>` with (possibly) retained
/// capacity from the per-thread arena, runs `f`, and returns the buffer to
/// the pool afterwards.
fn with_scratch<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    let mut buf = SCRATCH
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    buf.clear();
    let out = f(&mut buf);
    if buf.capacity() <= ARENA_MAX_ELEMS {
        SCRATCH.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < ARENA_MAX_BUFS {
                pool.push(buf);
            }
        });
    }
    out
}

/// Number of buffers currently pooled by this thread's scratch arena
/// (diagnostics/tests only).
pub fn scratch_pool_len() -> usize {
    SCRATCH.with(|pool| pool.borrow().len())
}

// ---------------------------------------------------------------------------
// Strided gather walker
// ---------------------------------------------------------------------------

/// Maximum tensor rank the stack-allocated odometers support. Well beyond
/// anything the model zoo produces; enforced with an assert so a deeper
/// rank fails loudly rather than corrupting memory.
const MAX_RANK: usize = 16;

/// Appends to `dst` the row-major traversal of an `out_dims`-shaped view
/// whose element at multi-index `i` lives at
/// `src[base + Σ i[d] * in_strides[d]]`.
///
/// The innermost dimension is special-cased: stride 1 copies the whole row
/// with `extend_from_slice`, stride 0 splats one element. The outer-dim
/// odometer lives on the stack so repeated gathers (e.g. from a compiled
/// plan's steady-state loop) never touch the allocator beyond `dst`.
fn gather_strided<T: Copy>(
    dst: &mut Vec<T>,
    src: &[T],
    out_dims: &[usize],
    in_strides: &[usize],
    base: usize,
) {
    debug_assert_eq!(out_dims.len(), in_strides.len());
    let total: usize = out_dims.iter().product();
    if total == 0 {
        return;
    }
    dst.reserve(total);
    if out_dims.is_empty() {
        dst.push(src[base]);
        return;
    }
    let inner = out_dims.len() - 1;
    assert!(inner < MAX_RANK, "tensor rank exceeds MAX_RANK");
    let (inner_n, inner_s) = (out_dims[inner], in_strides[inner]);
    let rows = total / inner_n.max(1);
    let mut idx = [0usize; MAX_RANK];
    let mut row_base = base;
    for _ in 0..rows {
        match inner_s {
            1 => dst.extend_from_slice(&src[row_base..row_base + inner_n]),
            0 => dst.extend(std::iter::repeat_n(src[row_base], inner_n)),
            s => {
                let mut off = row_base;
                for _ in 0..inner_n {
                    dst.push(src[off]);
                    off += s;
                }
            }
        }
        // Advance the outer-dim odometer (row-major).
        for d in (0..inner).rev() {
            idx[d] += 1;
            row_base += in_strides[d];
            if idx[d] < out_dims[d] {
                break;
            }
            row_base -= in_strides[d] * out_dims[d];
            idx[d] = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// dot_general
// ---------------------------------------------------------------------------

/// The output shape of a `Dot` op: batch dims, then LHS free, then RHS
/// free — shared by the fast path and the reference oracle.
fn dot_out_shape(dims: &DotDims, ls: &Shape, rs: &Shape) -> Shape {
    let lhs_free = dims.free_dims(ls.rank(), true);
    let rhs_free = dims.free_dims(rs.rank(), false);
    let mut out_dims: Vec<usize> = Vec::new();
    for &b in &dims.lhs_batch {
        out_dims.push(ls.dim(b));
    }
    for &d in &lhs_free {
        out_dims.push(ls.dim(d));
    }
    for &d in &rhs_free {
        out_dims.push(rs.dim(d));
    }
    Shape::from(out_dims)
}

/// `c[m×n] += a[m×k] · b[k×n]`, all row-major and dense.
///
/// k-blocked i-k-j loop: the innermost loop is a contiguous axpy over a
/// row of `b` and a row of `c`, which autovectorizes. For every output
/// element the partial products accumulate in ascending-`k` order — the
/// same order as [`dot_general_reference`], so results are bit-identical.
fn matmul_ikj(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    const KC: usize = 128;
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + KC).min(k);
        for i in 0..m {
            let c_row = &mut c[i * n..i * n + n];
            for (kk, &a_ik) in a[i * k + k0..i * k + k1].iter().enumerate() {
                let b_row = &b[(k0 + kk) * n..(k0 + kk) * n + n];
                for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                    *cj += a_ik * bj;
                }
            }
        }
        k0 = k1;
    }
}

/// An ahead-of-time compiled `Dot` contraction: the staging gathers and
/// batched-matmul dimensions [`dot_general`] would recompute per call,
/// resolved once so the steady-state execution
/// ([`dot_general_into`]) does no shape or permutation work at all.
#[derive(Debug, Clone)]
pub struct DotPlan {
    /// LHS staging gather to `[batch, free, contract]` layout as
    /// `(out_dims, in_strides)`; `None` when the permutation is the
    /// identity and the operand can be used in place.
    pub lhs_stage: Option<(Vec<usize>, Vec<usize>)>,
    /// RHS staging gather to `[batch, contract, free]` layout.
    pub rhs_stage: Option<(Vec<usize>, Vec<usize>)>,
    /// Batch extent (product of batch dims).
    pub b: usize,
    /// LHS free extent.
    pub m: usize,
    /// Contraction extent.
    pub k: usize,
    /// RHS free extent.
    pub n: usize,
}

/// One staging gather of a [`DotPlan`]: stages `[group0, group1, group2]`
/// into row-major order, where the groups are dimension-index lists whose
/// concatenation is a permutation of `0..rank`. `None` when the
/// permutation is the identity (the operand can be used in place).
fn plan_stage(shape: &Shape, groups: [&[usize]; 3]) -> Option<(Vec<usize>, Vec<usize>)> {
    let perm: Vec<usize> = groups.iter().flat_map(|g| g.iter().copied()).collect();
    if perm.iter().enumerate().all(|(i, &p)| i == p) {
        return None;
    }
    let strides = shape.strides();
    let out_dims: Vec<usize> = perm.iter().map(|&p| shape.dim(p)).collect();
    let in_strides: Vec<usize> = perm.iter().map(|&p| strides[p]).collect();
    Some((out_dims, in_strides))
}

/// Compiles a `Dot` op's staging and matmul dimensions once. Returns the
/// plan and the output shape.
pub fn plan_dot(dims: &DotDims, ls: &Shape, rs: &Shape) -> (DotPlan, Shape) {
    let lhs_free = dims.free_dims(ls.rank(), true);
    let rhs_free = dims.free_dims(rs.rank(), false);
    let out_shape = dot_out_shape(dims, ls, rs);
    let plan = DotPlan {
        lhs_stage: plan_stage(ls, [&dims.lhs_batch, &lhs_free, &dims.lhs_contract]),
        rhs_stage: plan_stage(rs, [&dims.rhs_batch, &dims.rhs_contract, &rhs_free]),
        b: dims.lhs_batch.iter().map(|&d| ls.dim(d)).product(),
        m: lhs_free.iter().map(|&d| ls.dim(d)).product(),
        k: dims.lhs_contract.iter().map(|&d| ls.dim(d)).product(),
        n: rhs_free.iter().map(|&d| rs.dim(d)).product(),
    };
    (plan, out_shape)
}

/// Executes a compiled [`DotPlan`] into a preallocated output buffer
/// (`out.len()` must be `b·m·n`). Staging temporaries come from the
/// per-thread scratch arena, so warm steady-state calls are
/// allocation-free. Bit-identical to [`dot_general`] /
/// [`dot_general_reference`].
pub fn dot_general_into(plan: &DotPlan, a_src: &[f32], b_src: &[f32], out: &mut [f32]) {
    let (b, m, k, n) = (plan.b, plan.m, plan.k, plan.n);
    debug_assert_eq!(out.len(), b * m * n);
    // matmul_ikj accumulates into its output, so a reused buffer must be
    // cleared first.
    out.fill(0.0);
    with_scratch(|a_buf| {
        let a: &[f32] = match &plan.lhs_stage {
            None => a_src,
            Some((od, st)) => {
                gather_strided(a_buf, a_src, od, st, 0);
                a_buf.as_slice()
            }
        };
        with_scratch(|b_buf| {
            let bm: &[f32] = match &plan.rhs_stage {
                None => b_src,
                Some((od, st)) => {
                    gather_strided(b_buf, b_src, od, st, 0);
                    b_buf.as_slice()
                }
            };
            for bi in 0..b {
                matmul_ikj(
                    &a[bi * m * k..bi * m * k + m * k],
                    &bm[bi * k * n..bi * k * n + k * n],
                    &mut out[bi * m * n..bi * m * n + m * n],
                    m,
                    k,
                    n,
                );
            }
        });
    });
}

/// Evaluates a `Dot` op by reduction to batched row-major matmul.
///
/// Both operands are staged (via at most one physical transpose each, into
/// the per-thread scratch arena) to `[batch, free, contract]` /
/// `[batch, contract, free]` layout, then multiplied with [`matmul_ikj`].
/// Bit-identical to [`dot_general_reference`].
///
/// # Errors
///
/// Fails if either operand is not f32.
pub fn dot_general(dims: &DotDims, lhs: &Literal, rhs: &Literal) -> Result<Literal, IrError> {
    let (plan, out_shape) = plan_dot(dims, lhs.shape(), rhs.shape());
    let mut out = vec![0f32; out_shape.num_elements()];
    dot_general_into(&plan, lhs.as_f32()?, rhs.as_f32()?, &mut out);
    Literal::from_f32(out, out_shape)
}

/// The original element-at-a-time `Dot` evaluation: walks every output
/// element and every contraction index through multi-index iterators.
///
/// Kept as the oracle the property tests compare [`dot_general`] against
/// (and as a fallback should a caller ever need the allocation-free,
/// never-staging path).
///
/// # Errors
///
/// Fails if either operand is not f32.
pub fn dot_general_reference(
    dims: &DotDims,
    lhs: &Literal,
    rhs: &Literal,
) -> Result<Literal, IrError> {
    let (ls, rs) = (lhs.shape().clone(), rhs.shape().clone());
    let lhs_free = dims.free_dims(ls.rank(), true);
    let rhs_free = dims.free_dims(rs.rank(), false);
    let out_shape = dot_out_shape(dims, &ls, &rs);
    let contract_shape = Shape::from(
        dims.lhs_contract
            .iter()
            .map(|&d| ls.dim(d))
            .collect::<Vec<_>>(),
    );
    let (a, b) = (lhs.as_f32()?, rhs.as_f32()?);
    let (lstr, rstr) = (ls.strides(), rs.strides());
    let mut data = vec![0f32; out_shape.num_elements()];
    let nb = dims.lhs_batch.len();
    for (out_lin, out_idx) in out_shape.indices().enumerate() {
        // Base offsets from batch + free coordinates.
        let mut l_base = 0usize;
        let mut r_base = 0usize;
        for (i, &bd) in dims.lhs_batch.iter().enumerate() {
            l_base += out_idx[i] * lstr[bd];
        }
        for (i, &bd) in dims.rhs_batch.iter().enumerate() {
            r_base += out_idx[i] * rstr[bd];
        }
        for (i, &fd) in lhs_free.iter().enumerate() {
            l_base += out_idx[nb + i] * lstr[fd];
        }
        for (i, &fd) in rhs_free.iter().enumerate() {
            r_base += out_idx[nb + lhs_free.len() + i] * rstr[fd];
        }
        let mut acc = 0f32;
        for c_idx in contract_shape.indices() {
            let mut lo = l_base;
            let mut ro = r_base;
            for (i, &c) in c_idx.iter().enumerate() {
                lo += c * lstr[dims.lhs_contract[i]];
                ro += c * rstr[dims.rhs_contract[i]];
            }
            acc += a[lo] * b[ro];
        }
        data[out_lin] = acc;
    }
    Literal::from_f32(data, out_shape)
}

// ---------------------------------------------------------------------------
// transpose / broadcast / slice
// ---------------------------------------------------------------------------

/// Evaluates a `Transpose` for any dtype: a strided gather whose inner
/// loop copies contiguous rows whenever the last output dimension is the
/// last input dimension.
///
/// # Errors
///
/// Infallible for well-formed permutations (enforced by the verifier).
pub fn transpose(x: &Literal, perm: &[usize]) -> Result<Literal, IrError> {
    let in_shape = x.shape();
    let strides = in_shape.strides();
    let out_dims: Vec<usize> = perm.iter().map(|&p| in_shape.dim(p)).collect();
    let in_strides: Vec<usize> = perm.iter().map(|&p| strides[p]).collect();
    let out_shape = Shape::from(out_dims.clone());
    match x.dtype() {
        DType::F32 => {
            let mut data = Vec::new();
            gather_strided(&mut data, x.as_f32()?, &out_dims, &in_strides, 0);
            Literal::from_f32(data, out_shape)
        }
        DType::I32 => {
            let mut data = Vec::new();
            gather_strided(&mut data, x.as_i32()?, &out_dims, &in_strides, 0);
            Literal::from_i32(data, out_shape)
        }
        DType::Pred => {
            let mut data = Vec::new();
            gather_strided(&mut data, x.as_pred()?, &out_dims, &in_strides, 0);
            Literal::from_pred(data, out_shape)
        }
    }
}

/// The per-output-dimension input strides of a `BroadcastInDim`
/// (0 = replicated along that output dimension).
fn broadcast_strides(x: &Literal, shape: &Shape, broadcast_dims: &[usize]) -> Vec<usize> {
    let in_shape = x.shape();
    let in_strides = in_shape.strides();
    let mut strides = vec![0usize; shape.rank()];
    for (i, &bd) in broadcast_dims.iter().enumerate() {
        if in_shape.dim(i) != 1 {
            strides[bd] = in_strides[i];
        }
    }
    strides
}

/// Evaluates a `BroadcastInDim` for any dtype as a strided gather
/// (stride 0 along replicated output dimensions).
///
/// # Errors
///
/// Infallible for well-formed broadcasts (enforced by the verifier).
pub fn broadcast(x: &Literal, shape: &Shape, broadcast_dims: &[usize]) -> Result<Literal, IrError> {
    let in_strides = broadcast_strides(x, shape, broadcast_dims);
    match x.dtype() {
        DType::F32 => {
            let mut data = Vec::new();
            gather_strided(&mut data, x.as_f32()?, shape.dims(), &in_strides, 0);
            Literal::from_f32(data, shape.clone())
        }
        DType::I32 => {
            let mut data = Vec::new();
            gather_strided(&mut data, x.as_i32()?, shape.dims(), &in_strides, 0);
            Literal::from_i32(data, shape.clone())
        }
        DType::Pred => {
            let mut data = Vec::new();
            gather_strided(&mut data, x.as_pred()?, shape.dims(), &in_strides, 0);
            Literal::from_pred(data, shape.clone())
        }
    }
}

/// Evaluates a strided `Slice`: a gather whose base offset encodes the
/// start coordinates; unit-stride slices copy whole inner rows.
///
/// # Errors
///
/// Fails on pred operands (as the original implementation did).
pub fn slice(
    x: &Literal,
    starts: &[usize],
    limits: &[usize],
    strides: &[usize],
) -> Result<Literal, IrError> {
    let in_shape = x.shape();
    let in_strides = in_shape.strides();
    let out_dims: Vec<usize> = (0..in_shape.rank())
        .map(|d| (limits[d] - starts[d]).div_ceil(strides[d]))
        .collect();
    let gather_strides: Vec<usize> = (0..in_shape.rank())
        .map(|d| in_strides[d] * strides[d])
        .collect();
    let base: usize = starts.iter().zip(&in_strides).map(|(&s, &st)| s * st).sum();
    let out_shape = Shape::from(out_dims.clone());
    match x.dtype() {
        DType::F32 => {
            let mut data = Vec::new();
            gather_strided(&mut data, x.as_f32()?, &out_dims, &gather_strides, base);
            Literal::from_f32(data, out_shape)
        }
        DType::I32 => {
            let mut data = Vec::new();
            gather_strided(&mut data, x.as_i32()?, &out_dims, &gather_strides, base);
            Literal::from_i32(data, out_shape)
        }
        DType::Pred => Err(IrError::unsupported("slice on pred")),
    }
}

// ---------------------------------------------------------------------------
// reduce
// ---------------------------------------------------------------------------

/// An ahead-of-time compiled f32 `Reduce`: the kept-dimension analysis
/// and stride tables [`reduce_f32`] would recompute per call, resolved
/// once for allocation-free steady-state execution
/// ([`reduce_f32_into`]).
#[derive(Debug, Clone)]
pub struct ReducePlan {
    /// Monoid identity the output is initialized to.
    pub init: f32,
    /// Reduction monoid.
    pub op: ReduceOp,
    /// `Some(span)` when the reduced dims are a contiguous trailing
    /// block: each output element folds one contiguous input span of
    /// this length.
    pub trailing_inner: Option<usize>,
    /// Input dimension sizes (general path odometer).
    pub in_dims: Vec<usize>,
    /// Output stride of each input dim (0 for reduced dims).
    pub out_strides: Vec<usize>,
    /// Output element count.
    pub out_len: usize,
}

/// Compiles a `Reduce` op's fold layout once. Returns the plan and the
/// output shape.
pub fn plan_reduce(op: ReduceOp, in_shape: &Shape, dims: &[usize]) -> (ReducePlan, Shape) {
    let rank = in_shape.rank();
    let kept: Vec<usize> = (0..rank).filter(|d| !dims.contains(d)).collect();
    let out_shape = Shape::from(kept.iter().map(|&d| in_shape.dim(d)).collect::<Vec<_>>());
    let init = match op {
        ReduceOp::Sum => 0.0f32,
        ReduceOp::Prod => 1.0,
        ReduceOp::Max => f32::NEG_INFINITY,
        ReduceOp::Min => f32::INFINITY,
    };
    let trailing = kept.iter().enumerate().all(|(i, &d)| i == d);
    let trailing_inner = if trailing {
        Some(dims.iter().map(|&d| in_shape.dim(d)).product())
    } else {
        None
    };
    let out_strides_kept = out_shape.strides();
    let mut out_strides = vec![0usize; rank];
    for (i, &d) in kept.iter().enumerate() {
        out_strides[d] = out_strides_kept[i];
    }
    let plan = ReducePlan {
        init,
        op,
        trailing_inner,
        in_dims: in_shape.dims().to_vec(),
        out_strides,
        out_len: out_shape.num_elements(),
    };
    (plan, out_shape)
}

/// Executes a compiled [`ReducePlan`] into a preallocated output buffer
/// (`out.len()` must be the plan's `out_len`). Inputs fold in linear
/// (row-major) order — bit-identical to [`reduce_f32`].
pub fn reduce_f32_into(plan: &ReducePlan, a: &[f32], out: &mut [f32]) {
    debug_assert_eq!(out.len(), plan.out_len);
    out.fill(plan.init);
    let op = plan.op;
    let fold = |acc: f32, v: f32| -> f32 {
        match op {
            ReduceOp::Sum => acc + v,
            ReduceOp::Prod => acc * v,
            ReduceOp::Max => acc.max(v),
            ReduceOp::Min => acc.min(v),
        }
    };
    // Fast path: reducing a contiguous trailing block of dimensions means
    // each output element folds one contiguous input span, in order.
    if let Some(inner) = plan.trailing_inner {
        if inner > 0 {
            for (o, chunk) in out.iter_mut().zip(a.chunks_exact(inner)) {
                *o = chunk.iter().fold(*o, |acc, &v| fold(acc, v));
            }
        }
        return;
    }
    // General path: walk the input linearly; out_strides[d] is the output
    // stride of input dim d (0 for reduced dims).
    let rank = plan.in_dims.len();
    assert!(rank <= MAX_RANK, "tensor rank exceeds MAX_RANK");
    let mut idx = [0usize; MAX_RANK];
    let mut off = 0usize;
    for &v in a {
        out[off] = fold(out[off], v);
        for d in (0..rank).rev() {
            idx[d] += 1;
            off += plan.out_strides[d];
            if idx[d] < plan.in_dims[d] {
                break;
            }
            off -= plan.out_strides[d] * plan.in_dims[d];
            idx[d] = 0;
        }
    }
}

/// Evaluates a `Reduce` over f32: inputs are folded in linear (row-major)
/// order while the output offset is tracked incrementally — the exact
/// accumulation order of the original multi-index walk, bit-identical,
/// without per-element allocation. Contiguous trailing reductions collapse
/// to a tight inner loop.
///
/// # Errors
///
/// Fails if the operand is not f32.
pub fn reduce_f32(op: ReduceOp, x: &Literal, dims: &[usize]) -> Result<Literal, IrError> {
    let (plan, out_shape) = plan_reduce(op, x.shape(), dims);
    let mut data = vec![plan.init; plan.out_len];
    reduce_f32_into(&plan, x.as_f32()?, &mut data);
    Literal::from_f32(data, out_shape)
}

// ---------------------------------------------------------------------------
// concatenate / dynamic_update_slice
// ---------------------------------------------------------------------------

fn concat_typed<T: Copy + Default>(
    parts: &[(&[T], usize)],
    out_len: usize,
    dim_total: usize,
    outer: usize,
    inner: usize,
) -> Vec<T> {
    let mut data = vec![T::default(); out_len];
    let out_row = dim_total * inner;
    let mut offset = 0usize;
    for &(src, d) in parts {
        let rows = d * inner;
        for o in 0..outer {
            data[o * out_row + offset..o * out_row + offset + rows]
                .copy_from_slice(&src[o * rows..o * rows + rows]);
        }
        offset += rows;
    }
    data
}

/// Evaluates a `Concatenate` along `dim` by copying whole row spans.
///
/// # Errors
///
/// Fails on pred operands (as the original implementation did).
pub fn concat(operands: &[&Literal], dim: usize) -> Result<Literal, IrError> {
    let first = operands[0];
    let in_shape = first.shape();
    let dim_total: usize = operands.iter().map(|t| t.shape().dim(dim)).sum();
    let out_shape = in_shape.with_dim(dim, dim_total);
    let outer: usize = in_shape.dims()[..dim].iter().product();
    let inner: usize = in_shape.dims()[dim + 1..].iter().product();
    let out_len = out_shape.num_elements();
    match first.dtype() {
        DType::F32 => {
            let parts: Vec<(&[f32], usize)> = operands
                .iter()
                .map(|t| Ok((t.as_f32()?, t.shape().dim(dim))))
                .collect::<Result<_, IrError>>()?;
            Literal::from_f32(
                concat_typed(&parts, out_len, dim_total, outer, inner),
                out_shape,
            )
        }
        DType::I32 => {
            let parts: Vec<(&[i32], usize)> = operands
                .iter()
                .map(|t| Ok((t.as_i32()?, t.shape().dim(dim))))
                .collect::<Result<_, IrError>>()?;
            Literal::from_i32(
                concat_typed(&parts, out_len, dim_total, outer, inner),
                out_shape,
            )
        }
        DType::Pred => Err(IrError::unsupported("concatenate on pred")),
    }
}

/// Writes `update` into `base` at `starts`, copying whole innermost rows.
/// Copy-on-write: when `base` is the unique owner of its buffer the write
/// happens in place with no element copy of the untouched region.
///
/// # Errors
///
/// Fails on pred operands or dtype mismatches.
pub fn update_slice_in_place(
    mut base: Literal,
    update: &Literal,
    starts: &[usize],
) -> Result<Literal, IrError> {
    let in_shape = base.shape().clone();
    let in_strides = in_shape.strides();
    let u_shape = update.shape().clone();
    let rank = in_shape.rank();
    let base_off: usize = starts.iter().zip(&in_strides).map(|(&s, &st)| s * st).sum();
    if u_shape.num_elements() == 0 {
        return Ok(base);
    }
    let inner = if rank == 0 { 1 } else { u_shape.dim(rank - 1) };
    let rows = u_shape.num_elements() / inner.max(1);
    // Row-major walk over the update's outer dims, tracking the base
    // offset incrementally.
    let run = |dst: &mut [f32], src: &[f32]| {
        let mut idx = vec![0usize; rank.saturating_sub(1)];
        let mut off = base_off;
        for r in 0..rows {
            dst[off..off + inner].copy_from_slice(&src[r * inner..r * inner + inner]);
            for d in (0..rank.saturating_sub(1)).rev() {
                idx[d] += 1;
                off += in_strides[d];
                if idx[d] < u_shape.dim(d) {
                    break;
                }
                off -= in_strides[d] * u_shape.dim(d);
                idx[d] = 0;
            }
        }
    };
    match (base.dtype(), update.dtype()) {
        (DType::F32, DType::F32) => {
            run(base.as_f32_mut()?, update.as_f32()?);
            Ok(base)
        }
        (DType::I32, DType::I32) => {
            // Same walk, i32 lanes.
            let src = update.as_i32()?;
            let dst = base.as_i32_mut()?;
            let mut idx = vec![0usize; rank.saturating_sub(1)];
            let mut off = base_off;
            for r in 0..rows {
                dst[off..off + inner].copy_from_slice(&src[r * inner..r * inner + inner]);
                for d in (0..rank.saturating_sub(1)).rev() {
                    idx[d] += 1;
                    off += in_strides[d];
                    if idx[d] < u_shape.dim(d) {
                        break;
                    }
                    off -= in_strides[d] * u_shape.dim(d);
                    idx[d] = 0;
                }
            }
            Ok(base)
        }
        _ => Err(IrError::unsupported("dynamic_update_slice on pred")),
    }
}

// ---------------------------------------------------------------------------
// elementwise fold (collectives)
// ---------------------------------------------------------------------------

/// Folds `piece` into an owned accumulator elementwise
/// (`acc[i] = acc[i] ⊕ piece[i]`), mutating in place when the
/// accumulator's copy-on-write buffer is uniquely owned.
///
/// Bit-identical to evaluating the corresponding `Binary` op (same
/// operand order, same operation), which is what the lockstep interpreter
/// does; the threaded runtime's collectives use this on received payloads,
/// which are always unique.
///
/// # Errors
///
/// Fails on dtype/shape mismatches or pred operands.
pub fn fold_reduce(
    mut acc: Literal,
    piece: &Literal,
    reduce: ReduceOp,
) -> Result<Literal, IrError> {
    if acc.shape() != piece.shape() {
        return Err(IrError::invalid(format!(
            "fold shape mismatch {} vs {}",
            acc.shape(),
            piece.shape()
        )));
    }
    let bin = match reduce {
        ReduceOp::Sum => BinaryOp::Add,
        ReduceOp::Max => BinaryOp::Max,
        ReduceOp::Min => BinaryOp::Min,
        ReduceOp::Prod => BinaryOp::Mul,
    };
    match acc.dtype() {
        DType::F32 => {
            let rhs = piece.as_f32()?;
            for (a, &b) in acc.as_f32_mut()?.iter_mut().zip(rhs) {
                *a = match bin {
                    BinaryOp::Add => *a + b,
                    BinaryOp::Max => a.max(b),
                    BinaryOp::Min => a.min(b),
                    _ => *a * b,
                };
            }
            Ok(acc)
        }
        DType::I32 => {
            let rhs = piece.as_i32()?;
            for (a, &b) in acc.as_i32_mut()?.iter_mut().zip(rhs) {
                *a = match bin {
                    BinaryOp::Add => a.wrapping_add(b),
                    BinaryOp::Max => (*a).max(b),
                    BinaryOp::Min => (*a).min(b),
                    _ => a.wrapping_mul(b),
                };
            }
            Ok(acc)
        }
        DType::Pred => Err(IrError::unsupported("fold on pred")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(data: Vec<f32>, dims: &[usize]) -> Literal {
        Literal::from_f32(data, dims.to_vec()).unwrap()
    }

    #[test]
    fn blocked_matmul_matches_reference() {
        let dims = DotDims::matmul();
        let a = lit((0..12).map(|v| v as f32 * 0.5 - 2.0).collect(), &[3, 4]);
        let b = lit((0..20).map(|v| v as f32 * 0.25 + 1.0).collect(), &[4, 5]);
        let fast = dot_general(&dims, &a, &b).unwrap();
        let oracle = dot_general_reference(&dims, &a, &b).unwrap();
        assert_eq!(fast, oracle);
        assert_eq!(fast.shape().dims(), &[3, 5]);
    }

    #[test]
    fn transposed_contraction_matches_reference() {
        // Contract lhs dim 0 with rhs dim 1: both operands need staging.
        let dims = DotDims {
            lhs_batch: vec![],
            rhs_batch: vec![],
            lhs_contract: vec![0],
            rhs_contract: vec![1],
        };
        let a = lit((0..12).map(|v| (v as f32).sin()).collect(), &[4, 3]);
        let b = lit((0..8).map(|v| (v as f32).cos()).collect(), &[2, 4]);
        let fast = dot_general(&dims, &a, &b).unwrap();
        let oracle = dot_general_reference(&dims, &a, &b).unwrap();
        assert_eq!(fast, oracle);
    }

    #[test]
    fn batched_multi_contract_matches_reference() {
        let dims = DotDims {
            lhs_batch: vec![0],
            rhs_batch: vec![0],
            lhs_contract: vec![2, 3],
            rhs_contract: vec![1, 2],
        };
        let a = lit(
            (0..2 * 3 * 2 * 2).map(|v| v as f32 * 0.1).collect(),
            &[2, 3, 2, 2],
        );
        let b = lit(
            (0..2 * 2 * 2 * 4).map(|v| v as f32 * 0.3 - 1.0).collect(),
            &[2, 2, 2, 4],
        );
        let fast = dot_general(&dims, &a, &b).unwrap();
        let oracle = dot_general_reference(&dims, &a, &b).unwrap();
        assert_eq!(fast, oracle);
        assert_eq!(fast.shape().dims(), &[2, 3, 4]);
    }

    #[test]
    fn zero_sized_contraction() {
        let dims = DotDims::matmul();
        let a = lit(vec![], &[2, 0]);
        let b = lit(vec![], &[0, 3]);
        let fast = dot_general(&dims, &a, &b).unwrap();
        assert_eq!(fast.as_f32().unwrap(), &[0.0; 6]);
        assert_eq!(fast, dot_general_reference(&dims, &a, &b).unwrap());
    }

    #[test]
    fn scratch_arena_recycles_buffers() {
        let dims = DotDims {
            lhs_batch: vec![],
            rhs_batch: vec![],
            lhs_contract: vec![0],
            rhs_contract: vec![0],
        };
        let a = lit(vec![1.0; 8], &[4, 2]);
        let b = lit(vec![2.0; 12], &[4, 3]);
        dot_general(&dims, &a, &b).unwrap();
        assert!(
            scratch_pool_len() >= 1,
            "staging buffers return to the pool"
        );
    }

    #[test]
    fn strided_slice_matches_semantics() {
        let x = lit((0..24).map(|v| v as f32).collect(), &[4, 6]);
        let s = slice(&x, &[1, 0], &[4, 6], &[2, 3]).unwrap();
        assert_eq!(s.shape().dims(), &[2, 2]);
        assert_eq!(s.as_f32().unwrap(), &[6.0, 9.0, 18.0, 21.0]);
    }

    #[test]
    fn concat_copies_row_spans() {
        let a = lit(vec![0., 1., 2., 3.], &[2, 2]);
        let b = lit(vec![4., 5., 6., 7.], &[2, 2]);
        let c = concat(&[&a, &b], 1).unwrap();
        assert_eq!(c.shape().dims(), &[2, 4]);
        assert_eq!(c.as_f32().unwrap(), &[0., 1., 4., 5., 2., 3., 6., 7.]);
        let c0 = concat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.as_f32().unwrap(), &[0., 1., 2., 3., 4., 5., 6., 7.]);
    }

    #[test]
    fn update_slice_is_in_place_when_unique() {
        let base = lit(vec![0.0; 16], &[4, 4]);
        let ptr = base.as_f32().unwrap().as_ptr();
        let update = lit(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let out = update_slice_in_place(base, &update, &[1, 1]).unwrap();
        assert_eq!(out.as_f32().unwrap().as_ptr(), ptr, "no copy when unique");
        assert_eq!(
            out.as_f32().unwrap(),
            &[0., 0., 0., 0., 0., 1., 2., 0., 0., 3., 4., 0., 0., 0., 0., 0.]
        );
    }

    #[test]
    fn fold_reduce_in_place_and_correct() {
        let acc = lit(vec![1.0, 5.0], &[2]);
        let ptr = acc.as_f32().unwrap().as_ptr();
        let piece = lit(vec![3.0, 2.0], &[2]);
        let out = fold_reduce(acc, &piece, ReduceOp::Max).unwrap();
        assert_eq!(out.as_f32().unwrap(), &[3.0, 5.0]);
        assert_eq!(out.as_f32().unwrap().as_ptr(), ptr);
        let i = Literal::from_i32(vec![2, 3], [2]).unwrap();
        let j = Literal::from_i32(vec![5, 7], [2]).unwrap();
        assert_eq!(
            fold_reduce(i, &j, ReduceOp::Sum).unwrap().as_i32().unwrap(),
            &[7, 10]
        );
    }

    #[test]
    fn reduce_middle_dim_matches_trailing_path() {
        let x = lit((0..24).map(|v| v as f32).collect(), &[2, 3, 4]);
        // Reduce the middle dim (general path).
        let mid = reduce_f32(ReduceOp::Sum, &x, &[1]).unwrap();
        assert_eq!(mid.shape().dims(), &[2, 4]);
        assert_eq!(mid.as_f32().unwrap()[0], 0.0 + 4.0 + 8.0);
        // Reduce trailing dims (fast path).
        let tail = reduce_f32(ReduceOp::Sum, &x, &[1, 2]).unwrap();
        assert_eq!(tail.shape().dims(), &[2]);
        assert_eq!(tail.as_f32().unwrap()[0], (0..12).sum::<i32>() as f32);
    }
}
