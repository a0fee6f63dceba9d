//! Register-bytecode VM for compiled MCPL kernels — the engine every
//! kernel launch runs on.
//!
//! Executes a [`crate::compile::Program`] with the same warp-synchronous
//! activity-mask semantics as the tree walker ([`crate::interp`]) and
//! produces **bit-identical** [`KernelStats`]: every `f64` counter is
//! accumulated by the same sequence of additions, in the same order, with
//! the same association as the tree walker performs them. Per-site stats
//! are accumulated into a dense vector indexed by interned site id (the
//! per-site addend sequence is the site's execution order, identical to the
//! tree walker's `BTreeMap` entries) and only materialized into the result
//! map at the end.
//!
//! What makes it fast rather than just equivalent:
//!
//! * variables live in a flat register pool — no `HashMap` scope walks;
//! * values are reused buffers (`VBuf`) — uniform values stay length-1
//!   and are read through stride-0 indexing instead of being materialized
//!   as broadcast vectors, so the steady state allocates nothing;
//! * site keys and the L1-model cache lines are interned integers — no
//!   `String` hashing on every global access;
//! * control flow is explicit jumps over a linear instruction array, and
//!   the compiler fuses the hot shapes (compare-and-branch, step-and-branch,
//!   scratch read-modify-write with the multiply that feeds it; see
//!   [`crate::compile`](mod@crate::compile)) so that loops dispatch fewer
//!   instructions;
//! * the L1 model keys a lane-uniform load in O(1) (`exec::L1Key::Uniform`);
//! * lane-uniform values compute in place, and lane loops resolve types,
//!   strides and operators before the loop, not per lane;
//! * a sampled launch runs the two sampled iterations of its outermost
//!   sampled loop on two host threads when the host has a second core
//!   (`Vm::split_loop`). The merge is exact: the loop body writes only
//!   state it declares (checked once, at compile time) and stores only to
//!   phantom buffers; the helper's scales and the first half's counters
//!   are multiples of 2^-10 and every merged counter stays below 2^43, so
//!   the two halves' sums add up exactly;
//!   and the helper's cold L1 model must have missed wherever the warm
//!   one would have (`L1Site::misses_too`). When a run-time check fails,
//!   or the helper fails, the calling thread runs the second iteration
//!   itself.

use crate::ast::{AssignOp, BinOp, ElemTy, UnOp};
use crate::check::CheckedKernel;
use crate::compile::{compile_program, Builtin, Instr, Lit, Program, Rhs};
use crate::exec::{
    ExecError, ExecOptions, ExecResult, L1Key, L1Site, CYCLE_BARRIER, CYCLE_BASIC, CYCLE_GLOBAL,
    CYCLE_LOCAL, CYCLE_SPECIAL, ELEM_BYTES, LOOP_LIMIT, SAMPLED_ITERS, TRANSACTION_BYTES,
};
use crate::stats::{KernelStats, SiteStats};
use crate::value::{ArgValue, ArrayArg};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::{iter, mem, panic, thread};

/// A literal doubles as the VM's lane-uniform scalar value.
impl Lit {
    #[inline]
    fn f(self) -> f64 {
        match self {
            Lit::I(x) => x as f64,
            Lit::F(x) => x,
        }
    }

    #[inline]
    fn i(self) -> i64 {
        match self {
            Lit::I(x) => x,
            Lit::F(x) => x as i64,
        }
    }

    #[inline]
    fn is_f(self) -> bool {
        matches!(self, Lit::F(_))
    }

    /// Branch truth, as `IfCond`/`ForCond` read a condition.
    #[inline]
    fn truthy(self) -> bool {
        match self {
            Lit::I(x) => x != 0,
            Lit::F(x) => x != 0.0,
        }
    }

    /// Coerce like `Decl` (`None`: keep the type).
    #[inline]
    fn coerce(self, ty: Option<ElemTy>) -> Lit {
        match ty {
            None => self,
            Some(ElemTy::Int) => Lit::I(self.i()),
            Some(ElemTy::Float) => Lit::F(self.f()),
        }
    }
}

/// A lane-varying value: the active vector is `i` or `f` per the runtime
/// type tag, and its length is 1 (uniform) or the current lane count.
/// Uniform values are read through stride-0 indexing — the VM never
/// materializes broadcasts.
#[derive(Debug, Clone, Default)]
struct VBuf {
    is_f: bool,
    i: Vec<i64>,
    f: Vec<f64>,
}

impl VBuf {
    #[inline]
    fn len(&self) -> usize {
        if self.is_f {
            self.f.len()
        } else {
            self.i.len()
        }
    }

    /// Lane read as int (with the tree walker's `f64 as i64` cast).
    #[inline]
    fn get_i(&self, lane: usize) -> i64 {
        if self.is_f {
            let v = &self.f;
            v[if v.len() == 1 { 0 } else { lane }] as i64
        } else {
            let v = &self.i;
            v[if v.len() == 1 { 0 } else { lane }]
        }
    }

    /// Lane read as float (with the tree walker's `i64 as f64` cast).
    #[inline]
    fn get_f(&self, lane: usize) -> f64 {
        if self.is_f {
            let v = &self.f;
            v[if v.len() == 1 { 0 } else { lane }]
        } else {
            let v = &self.i;
            v[if v.len() == 1 { 0 } else { lane }] as f64
        }
    }

    /// The value, when it is one element (lane-uniform).
    #[inline]
    fn uniform(&self) -> Option<Lit> {
        match (self.is_f, &self.i[..], &self.f[..]) {
            (false, [x], _) => Some(Lit::I(*x)),
            (true, _, [x]) => Some(Lit::F(*x)),
            _ => None,
        }
    }

    #[inline]
    fn set(&mut self, v: Lit) {
        match v {
            Lit::I(x) => self.set_uniform_i(x),
            Lit::F(x) => self.set_uniform_f(x),
        }
    }

    #[inline]
    fn set_uniform_i(&mut self, x: i64) {
        if let (false, [y]) = (self.is_f, &mut self.i[..]) {
            *y = x;
            return;
        }
        self.is_f = false;
        self.i.clear();
        self.f.clear();
        self.i.push(x);
    }

    #[inline]
    fn set_uniform_f(&mut self, x: f64) {
        if let (true, [y]) = (self.is_f, &mut self.f[..]) {
            *y = x;
            return;
        }
        self.is_f = true;
        self.i.clear();
        self.f.clear();
        self.f.push(x);
    }

    /// Start writing an int result; returns the cleared backing vector.
    fn begin_i(&mut self) -> &mut Vec<i64> {
        self.is_f = false;
        self.f.clear();
        self.i.clear();
        &mut self.i
    }

    /// Start writing a float result.
    fn begin_f(&mut self) -> &mut Vec<f64> {
        self.is_f = true;
        self.i.clear();
        self.f.clear();
        &mut self.f
    }

    fn copy_from(&mut self, src: &VBuf) {
        self.is_f = src.is_f;
        self.i.clear();
        self.f.clear();
        if src.is_f {
            self.f.extend_from_slice(&src.f);
        } else {
            self.i.extend_from_slice(&src.i);
        }
    }

    /// Coerce in place like `Decl`.
    fn coerce(&mut self, ty: ElemTy) {
        match (ty, self.is_f) {
            (ElemTy::Int, true) => {
                self.i.clear();
                self.i.extend(self.f.iter().map(|&x| x as i64));
                self.f.clear();
                self.is_f = false;
            }
            (ElemTy::Float, false) => {
                self.f.clear();
                self.f.extend(self.i.iter().map(|&x| x as f64));
                self.i.clear();
                self.is_f = true;
            }
            _ => {}
        }
    }

    /// Render like the tree walker's `V` for error messages
    /// (`F([1.0])` / `I([3])`).
    fn debug_v(&self) -> String {
        if self.is_f {
            format!("F({:?})", self.f)
        } else {
            format!("I({:?})", self.i)
        }
    }
}

/// Storage for a `local` (work-group shared) or private array. Mirrors the
/// tree walker's `ArrayStore`, re-initialized on every declaration.
#[derive(Debug, Clone)]
struct ScratchArr {
    dims: Vec<u64>,
    shared: bool,
    lanes: usize,
    elem: ElemTy,
    fdata: Vec<f64>,
    idata: Vec<i64>,
}

impl Default for ScratchArr {
    fn default() -> Self {
        ScratchArr {
            dims: Vec::new(),
            shared: false,
            lanes: 1,
            elem: ElemTy::Int,
            fdata: Vec::new(),
            idata: Vec::new(),
        }
    }
}

impl ScratchArr {
    #[inline(always)]
    fn flat(&self, idx: impl Iterator<Item = i64>, line: usize) -> Result<u64, ExecError> {
        let mut flat: u64 = 0;
        for (d, i) in self.dims.iter().zip(idx) {
            if i < 0 || (i as u64) >= *d {
                return Err(ExecError {
                    line,
                    message: format!("scratch index {i} out of bounds for dim {d}"),
                });
            }
            flat = flat * d + i as u64;
        }
        Ok(flat)
    }

    #[inline]
    fn slot(&self, flat: u64, lane: usize) -> usize {
        if self.shared {
            flat as usize
        } else {
            flat as usize * self.lanes + lane
        }
    }
}

/// Per-site accumulator; materialized into the stats map at the end.
#[derive(Debug, Clone, Default)]
struct SiteAcc {
    s: SiteStats,
    touched: bool,
}

#[derive(Debug, Clone, Default)]
struct IfFrame {
    saved: Vec<bool>,
    cmask: Vec<bool>,
    /// `Some(c)` when the condition was lane-uniform (no cmask stored).
    cond_uniform: Option<bool>,
    /// Any *active* lane with a false condition (drives the else branch).
    any_not: bool,
    /// The then-branch narrowed `mask` (so `saved` must be restored).
    dirty: bool,
}

#[derive(Debug, Clone, Default)]
struct ForFrame {
    saved: Vec<bool>,
    cmask: Vec<bool>,
    guard: u64,
    /// The loop narrowed `mask` since entry (restore on exit).
    dirty: bool,
}

#[derive(Debug, Clone, Default)]
struct FeFrame {
    outer_scale: f64,
    n: u64,
    idx: u64,
    run: u64,
    var: u32,
    saved_lanes: usize,
    saved_mask: Vec<bool>,
}

struct Vm<'p> {
    prog: &'p Program,
    args: Vec<ArgValue>,
    pool: Vec<VBuf>,
    arrays: Vec<ScratchArr>,
    lanes: usize,
    mask: Vec<bool>,
    active: usize,
    warps: usize,
    simd: usize,
    group: usize,
    sampled: bool,
    scale: f64,
    st: KernelStats,
    acc: Vec<SiteAcc>,
    caches: Vec<L1Site>,
    seg: Vec<u64>,
    addrs: Vec<u64>,
    /// Per-lane flat indices of a scratch walk ([`walk_lanes`]).
    flats: Vec<u64>,
    dim_stack: Vec<i64>,
    t0: VBuf,
    t1: VBuf,
    /// The product of a [`Rhs::Mul`] that takes the step-by-step path.
    prod: VBuf,
    if_stack: Vec<IfFrame>,
    if_depth: usize,
    for_stack: Vec<ForFrame>,
    for_depth: usize,
    fe_stack: Vec<FeFrame>,
    fe_depth: usize,
    split: Split,
    /// The `fe_stack` depth whose `Next` returns from [`Vm::run`]: the
    /// split loop's while a half of it runs, [`NO_HALT`] otherwise.
    halt: usize,
    /// `Some` on a split helper only.
    helper: Option<Helper<'p>>,
    log: SplitLog,
}

/// What a split helper records for the merge, and what stops it.
struct Helper<'p> {
    /// Each L1 site's first misses.
    probes: Vec<L1Probe>,
    /// Every scale this half ran at was a multiple of [`SCALE_QUANTUM`].
    dyadic: bool,
    /// Raised when the calling thread's half failed; checked at every
    /// `ForGuard`.
    abort: &'p AtomicBool,
}

/// Whether a sampled launch may run the two sampled iterations of its
/// outermost sampled loop on two host threads (see [`execute_with`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// When the host has a second core and no other launch's helper runs.
    Auto,
    /// Whenever the loop is eligible, whatever the host.
    Always,
    /// Never: one thread.
    Never,
}

/// What became of a launch's split loops.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitLog {
    /// Loops whose second iteration ran on the helper and was merged.
    pub merged: u32,
    /// Loops whose helper result was discarded: the calling thread then
    /// ran the second iteration itself.
    pub fell_back: u32,
}

/// [`Vm::halt`] when no split half runs.
const NO_HALT: usize = usize::MAX;

/// Every scale the helper runs at and every counter the calling thread
/// ends its half with must be a multiple of this (2^-10), and every merged
/// counter must stay below [`EXACT_LIMIT`] (2^43). Each addend is an
/// integer times a scale, so every partial sum of the non-negative addends
/// is then a multiple of 2^-10 below 2^43, which an `f64` holds exactly:
/// the two halves' sums add up to the sequential sum bit for bit whatever
/// the grouping.
const SCALE_QUANTUM: f64 = 1.0 / 1024.0;
const EXACT_LIMIT: f64 = (1u64 << 43) as f64;

fn is_dyadic(x: f64) -> bool {
    (x / SCALE_QUANTUM).fract() == 0.0
}

/// The keys a helper's L1 site missed on first, up to eight, in order
/// (see [`L1Site::misses_too`]).
#[derive(Debug, Clone, Copy)]
struct L1Probe {
    keys: [L1Key; 8],
    n: usize,
}

impl Default for L1Probe {
    fn default() -> Self {
        L1Probe {
            keys: [L1Key::Lanes(0); 8],
            n: 0,
        }
    }
}

impl L1Probe {
    fn note(&mut self, key: L1Key) {
        if let Some(k) = self.keys.get_mut(self.n) {
            *k = key;
            self.n += 1;
        }
    }

    fn first(&self) -> &[L1Key] {
        &self.keys[..self.n]
    }
}

/// Set while a split helper thread runs: at most one per process, so two
/// sweep workers that each launch cannot put a third and fourth thread on
/// the host. It guards no data.
static HELPER_BUSY: AtomicBool = AtomicBool::new(false);

/// The right to run the process's one split helper, released on drop.
struct HelperSlot;

impl HelperSlot {
    fn take() -> Option<HelperSlot> {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores = *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()));
        (cores > 1
            && HELPER_BUSY
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok())
        .then_some(HelperSlot)
    }
}

impl Drop for HelperSlot {
    fn drop(&mut self) {
        HELPER_BUSY.store(false, Ordering::Relaxed);
    }
}

/// The counters of `st` (its per-site map aside).
fn counters(st: &KernelStats) -> [f64; 13] {
    [
        st.total_threads,
        st.raw_lanes,
        st.groups,
        st.issue_cycles,
        st.flops,
        st.global_bytes,
        st.ideal_global_bytes,
        st.local_bytes,
        st.branch_events,
        st.divergent_branches,
        st.issue_slots,
        st.active_slots,
        st.barriers,
    ]
}

fn site_counters(s: &SiteStats) -> [f64; 4] {
    [
        s.executions,
        s.ideal_bytes,
        s.transaction_bytes,
        s.broadcasts,
    ]
}

/// `a + b`, counter by counter.
fn add_site(a: &SiteAcc, b: &SiteAcc) -> SiteAcc {
    SiteAcc {
        s: SiteStats {
            executions: a.s.executions + b.s.executions,
            ideal_bytes: a.s.ideal_bytes + b.s.ideal_bytes,
            transaction_bytes: a.s.transaction_bytes + b.s.transaction_bytes,
            broadcasts: a.s.broadcasts + b.s.broadcasts,
        },
        touched: a.touched || b.touched,
    }
}

/// Element op of an int `Bin` (the tree walker's `apply_bin` int arm).
#[inline(always)]
fn int_op(op: BinOp, p: i64, q: i64) -> i64 {
    match op {
        BinOp::Add => p.wrapping_add(q),
        BinOp::Sub => p.wrapping_sub(q),
        BinOp::Mul => p.wrapping_mul(q),
        BinOp::Div => {
            if q == 0 {
                0
            } else {
                p.wrapping_div(q)
            }
        }
        BinOp::Mod => {
            if q == 0 {
                0
            } else {
                p.rem_euclid(q)
            }
        }
        BinOp::And => i64::from(p != 0 && q != 0),
        BinOp::Or => i64::from(p != 0 || q != 0),
        BinOp::BitAnd => p & q,
        BinOp::BitOr => p | q,
        BinOp::BitXor => p ^ q,
        BinOp::Shl => p.wrapping_shl(q as u32 & 63),
        BinOp::Shr => ((p as u64).wrapping_shr(q as u32 & 63)) as i64,
        BinOp::Eq => i64::from(p == q),
        BinOp::Ne => i64::from(p != q),
        BinOp::Lt => i64::from(p < q),
        BinOp::Le => i64::from(p <= q),
        BinOp::Gt => i64::from(p > q),
        BinOp::Ge => i64::from(p >= q),
    }
}

/// Element op of a float arithmetic `Bin`.
#[inline(always)]
fn float_op(op: BinOp, p: f64, q: f64) -> f64 {
    match op {
        BinOp::Add => p + q,
        BinOp::Sub => p - q,
        BinOp::Mul => p * q,
        BinOp::Div => p / q,
        _ => unreachable!("float op {op:?}"),
    }
}

/// Element op of a comparison with a float operand.
#[inline(always)]
fn float_cmp(op: BinOp, p: f64, q: f64) -> bool {
    match op {
        BinOp::Eq => p == q,
        BinOp::Ne => p != q,
        BinOp::Lt => p < q,
        BinOp::Le => p <= q,
        BinOp::Gt => p > q,
        BinOp::Ge => p >= q,
        _ => unreachable!(),
    }
}

/// [`bin_compute`] on two lane-uniform operands.
#[inline]
fn bin_scalar(op: BinOp, a: Lit, b: Lit) -> Lit {
    let anyf = a.is_f() || b.is_f();
    if op.is_comparison() && anyf {
        Lit::I(i64::from(float_cmp(op, a.f(), b.f())))
    } else if anyf && !op.int_only() {
        Lit::F(float_op(op, a.f(), b.f()))
    } else {
        Lit::I(int_op(op, a.i(), b.i()))
    }
}

/// Pure value half of the tree walker's `apply_bin` (stats are recorded
/// separately by [`Vm::bin_stats`]).
fn bin_compute(op: BinOp, a: &VBuf, b: &VBuf, out: &mut VBuf) {
    let lanes = a.len().max(b.len());
    let anyf = a.is_f || b.is_f;
    if op.is_comparison() && anyf {
        let o = out.begin_i();
        o.extend((0..lanes).map(|l| i64::from(float_cmp(op, a.get_f(l), b.get_f(l)))));
    } else if anyf && !op.int_only() {
        let o = out.begin_f();
        // Specialize by operand shape so the hot lanes-wide loops avoid
        // the per-lane type/stride branches of `get_f`. Values are
        // identical to the generic loop below — same f64 ops, same order.
        if a.is_f && b.is_f {
            let (av, bv) = (&a.f, &b.f);
            if av.len() == lanes && bv.len() == lanes {
                match op {
                    BinOp::Add => o.extend(av.iter().zip(bv).map(|(&p, &q)| p + q)),
                    BinOp::Sub => o.extend(av.iter().zip(bv).map(|(&p, &q)| p - q)),
                    BinOp::Mul => o.extend(av.iter().zip(bv).map(|(&p, &q)| p * q)),
                    BinOp::Div => o.extend(av.iter().zip(bv).map(|(&p, &q)| p / q)),
                    _ => unreachable!("float op {op:?}"),
                }
                return;
            }
            if av.len() == 1 && bv.len() == lanes {
                let p = av[0];
                match op {
                    BinOp::Add => o.extend(bv.iter().map(|&q| p + q)),
                    BinOp::Sub => o.extend(bv.iter().map(|&q| p - q)),
                    BinOp::Mul => o.extend(bv.iter().map(|&q| p * q)),
                    BinOp::Div => o.extend(bv.iter().map(|&q| p / q)),
                    _ => unreachable!("float op {op:?}"),
                }
                return;
            }
            if bv.len() == 1 && av.len() == lanes {
                let q = bv[0];
                match op {
                    BinOp::Add => o.extend(av.iter().map(|&p| p + q)),
                    BinOp::Sub => o.extend(av.iter().map(|&p| p - q)),
                    BinOp::Mul => o.extend(av.iter().map(|&p| p * q)),
                    BinOp::Div => o.extend(av.iter().map(|&p| p / q)),
                    _ => unreachable!("float op {op:?}"),
                }
                return;
            }
        }
        o.extend((0..lanes).map(|l| float_op(op, a.get_f(l), b.get_f(l))));
    } else if !a.is_f && !b.is_f {
        // Both int: hoist the stride/type resolution out of the loop; the
        // per-lane op dispatch is a single predictable jump.
        let o = out.begin_i();
        let (av, sa) = (&a.i, usize::from(a.i.len() > 1));
        let (bv, sb) = (&b.i, usize::from(b.i.len() > 1));
        o.extend((0..lanes).map(|l| int_op(op, av[l * sa], bv[l * sb])));
    } else {
        let o = out.begin_i();
        o.extend((0..lanes).map(|l| int_op(op, a.get_i(l), b.get_i(l))));
    }
}

/// Lane truth of a condition value, as `IfCond`/`ForCond` read it.
fn truth_lanes(v: &VBuf, lanes: usize, out: &mut Vec<bool>) {
    out.clear();
    if v.is_f {
        let (f, s) = (&v.f, usize::from(v.f.len() > 1));
        out.extend((0..lanes).map(|l| f[l * s] != 0.0));
    } else {
        let (i, s) = (&v.i, usize::from(v.i.len() > 1));
        out.extend((0..lanes).map(|l| i[l * s] != 0));
    }
}

/// Lane truth of `a op b` without materializing the value:
/// [`truth_lanes`] of [`bin_compute`]'s result, lane for lane.
fn test_lanes(op: BinOp, a: &VBuf, b: &VBuf, lanes: usize, out: &mut Vec<bool>) {
    out.clear();
    let anyf = a.is_f || b.is_f;
    if op.is_comparison() && anyf {
        if a.is_f && b.is_f {
            cmp_lanes(op, &a.f, &b.f, lanes, out);
        } else {
            out.extend((0..lanes).map(|l| float_cmp(op, a.get_f(l), b.get_f(l))));
        }
    } else if anyf && !op.int_only() {
        out.extend((0..lanes).map(|l| float_op(op, a.get_f(l), b.get_f(l)) != 0.0));
    } else if !a.is_f && !b.is_f {
        if op.is_comparison() {
            cmp_lanes(op, &a.i, &b.i, lanes, out);
        } else {
            let (av, sa) = (&a.i, usize::from(a.i.len() > 1));
            let (bv, sb) = (&b.i, usize::from(b.i.len() > 1));
            out.extend((0..lanes).map(|l| int_op(op, av[l * sa], bv[l * sb]) != 0));
        }
    } else {
        out.extend((0..lanes).map(|l| int_op(op, a.get_i(l), b.get_i(l)) != 0));
    }
}

/// Lanes-wide comparison of two same-typed operands (each one element or
/// lanes-wide), with the operator resolved once, outside the loop.
fn cmp_lanes<T: PartialOrd + Copy>(op: BinOp, a: &[T], b: &[T], lanes: usize, out: &mut Vec<bool>) {
    let rep = |v: &[T]| iter::repeat_n(v[0], lanes);
    match (a.len() > 1, b.len() > 1) {
        (true, true) => cmp_pairs(op, a.iter().copied().zip(b.iter().copied()), out),
        (true, false) => cmp_pairs(op, a.iter().copied().zip(rep(b)), out),
        (false, true) => cmp_pairs(op, rep(a).zip(b.iter().copied()), out),
        (false, false) => cmp_pairs(op, rep(a).zip(rep(b)), out),
    }
}

#[inline(always)]
fn cmp_pairs<T: PartialOrd>(op: BinOp, it: impl Iterator<Item = (T, T)>, out: &mut Vec<bool>) {
    match op {
        BinOp::Eq => out.extend(it.map(|(p, q)| p == q)),
        BinOp::Ne => out.extend(it.map(|(p, q)| p != q)),
        BinOp::Lt => out.extend(it.map(|(p, q)| p < q)),
        BinOp::Le => out.extend(it.map(|(p, q)| p <= q)),
        BinOp::Gt => out.extend(it.map(|(p, q)| p > q)),
        BinOp::Ge => out.extend(it.map(|(p, q)| p >= q)),
        _ => unreachable!("not a comparison: {op:?}"),
    }
}

/// Warp-level branch accounting of a condition mask `cmask` under the
/// activity mask: with `record`, one `branch_events += scale` per warp
/// with an active lane, plus `divergent_branches += scale` when its active
/// lanes disagree — the tree walker's `record_branch`, addend for addend.
fn warp_branches(
    mask: &[bool],
    cmask: &[bool],
    simd: usize,
    mut record: Option<(&mut KernelStats, f64)>,
) -> Branches {
    let mut b = Branches::default();
    for (warp, cw) in mask.chunks(simd).zip(cmask.chunks(simd)) {
        let (mut taken, mut not_taken) = (0usize, 0usize);
        for (&m, &c) in warp.iter().zip(cw) {
            taken += usize::from(m & c);
            not_taken += usize::from(m & !c);
        }
        if taken + not_taken == 0 {
            continue;
        }
        if let Some((st, scale)) = record.as_mut() {
            st.branch_events += *scale;
            if taken > 0 && not_taken > 0 {
                st.divergent_branches += *scale;
            }
        }
        b.any_not |= not_taken > 0;
        if taken > 0 {
            b.taken_lanes += taken;
            b.taken_warps += 1;
        }
    }
    b
}

/// What [`warp_branches`] found: whether some active lane does not take
/// the branch, and the active lanes and warps of the narrowed mask
/// (`mask & cmask`) — what `refresh` would count on it.
#[derive(Default)]
struct Branches {
    any_not: bool,
    taken_lanes: usize,
    taken_warps: usize,
}

impl Branches {
    fn any_taken(&self) -> bool {
        self.taken_lanes > 0
    }
}

/// The first active lane, when every index operand is lane-uniform or an
/// int vector that takes one value on all active lanes: every active lane
/// then addresses the same element.
fn agreeing_lane(pool: &[VBuf], idx: &[u32], mask: &[bool]) -> Option<usize> {
    let first = mask.iter().position(|&m| m)?;
    idx.iter()
        .all(|&s| {
            let v = &pool[s as usize];
            match v.len() {
                1 => true,
                n if n == mask.len() && !v.is_f => {
                    let x = v.i[first];
                    v.i.iter().zip(mask).all(|(&y, &m)| !m || y == x)
                }
                _ => false,
            }
        })
        .then_some(first)
}

/// `(&mut pool[dst], &pool[src])` for two distinct slots.
fn pair_mut(pool: &mut [VBuf], dst: usize, src: usize) -> (&mut VBuf, &VBuf) {
    debug_assert_ne!(dst, src);
    if dst < src {
        let (lo, hi) = pool.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = pool.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    }
}

/// Masked update of `old` by `new`: active lanes take `new`, inactive
/// lanes keep `old`, and the result keeps `old`'s type — the tree
/// walker's masked assignment, written in place.
fn merge_masked(old: &mut VBuf, new: &VBuf, mask: &[bool]) {
    let lanes = mask.len();
    if old.len() == 1 {
        // Stride-0 reads of a uniform value equal its broadcast.
        if old.is_f {
            let x = old.f[0];
            old.f.resize(lanes, x);
        } else {
            let x = old.i[0];
            old.i.resize(lanes, x);
        }
    }
    // Branch-free selects: divergent masks would defeat a predictor.
    match (old.is_f, new.is_f) {
        (true, true) if new.f.len() == lanes => {
            for ((o, &n), &m) in old.f.iter_mut().zip(&new.f).zip(mask) {
                *o = if m { n } else { *o };
            }
        }
        (true, true) => {
            let n = new.f[0];
            for (o, &m) in old.f.iter_mut().zip(mask) {
                *o = if m { n } else { *o };
            }
        }
        (false, false) if new.i.len() == lanes => {
            for ((o, &n), &m) in old.i.iter_mut().zip(&new.i).zip(mask) {
                *o = if m { n } else { *o };
            }
        }
        (false, false) => {
            let n = new.i[0];
            for (o, &m) in old.i.iter_mut().zip(mask) {
                *o = if m { n } else { *o };
            }
        }
        (true, false) => {
            for (l, (o, &m)) in old.f.iter_mut().zip(mask).enumerate() {
                *o = if m { new.get_f(l) } else { *o };
            }
        }
        (false, true) => {
            for (l, (o, &m)) in old.i.iter_mut().zip(mask).enumerate() {
                *o = if m { new.get_i(l) } else { *o };
            }
        }
    }
}

/// Flat address of a global access: bounds-checked on a real buffer,
/// wrapped per dimension on a phantom one (as `ArrayArg::flat_index`).
#[inline(always)]
fn global_flat(
    arr: &ArrayArg,
    idx: impl Iterator<Item = i64>,
    line: usize,
) -> Result<u64, ExecError> {
    let mut flat: u64 = 0;
    for (&d, i) in arr.dims.iter().zip(idx) {
        let i = if i >= 0 && (i as u64) < d {
            i as u64
        } else if arr.data.is_phantom() {
            i.rem_euclid(d as i64) as u64
        } else {
            return Err(ExecError {
                line,
                message: format!(
                    "index {i} out of bounds for dim {d} (array rank {})",
                    arr.rank()
                ),
            });
        };
        flat = flat * d + i;
    }
    Ok(flat)
}

/// The per-lane loop of [`Vm::lane_addresses`]: `get(lane, k)` reads index
/// `k` of `lane`. Fills `addrs` for the active lanes (all lanes unless
/// `mask`) and scans each warp's segments in the same pass.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scan_lanes(
    arr: &ArrayArg,
    nd: usize,
    get: impl Fn(usize, usize) -> i64,
    mask: Option<&[bool]>,
    simd: usize,
    addrs: &mut [u64],
    seg: &mut Vec<u64>,
    line: usize,
) -> Result<(Coalesce, Option<u64>), ExecError> {
    let lanes = addrs.len();
    let mut c = Coalesce {
        transactions: 0,
        active_lanes: 0,
        all_same: true,
    };
    let mut first: Option<u64> = None;
    for w0 in (0..lanes).step_by(simd) {
        seg.clear();
        let mut sorted = true;
        for lane in w0..lanes.min(w0 + simd) {
            if mask.is_some_and(|m| !m[lane]) {
                continue;
            }
            let flat = global_flat(arr, (0..nd).map(|k| get(lane, k)), line)?;
            addrs[lane] = flat;
            c.active_lanes += 1;
            match first {
                None => first = Some(flat),
                Some(fa) => c.all_same &= fa == flat,
            }
            let s = flat * ELEM_BYTES / TRANSACTION_BYTES;
            if let Some(&last) = seg.last() {
                sorted &= last <= s;
            }
            seg.push(s);
        }
        if !sorted {
            seg.sort_unstable();
        }
        seg.dedup();
        c.transactions += seg.len() as u64;
    }
    Ok((c, first))
}

fn scratch_oob(line: usize, i: i64, d: u64) -> ExecError {
    ExecError {
        line,
        message: format!("scratch index {i} out of bounds for dim {d}"),
    }
}

/// The lane state a scratch access reads.
#[derive(Clone, Copy)]
struct LaneCtx<'a> {
    lanes: usize,
    active: usize,
    mask: &'a [bool],
}

/// Value half of `ScratchLoad`: the tree walker's per-lane scratch read,
/// with inactive lanes reading 0.
fn load_scratch(
    a: &ScratchArr,
    pool: &[VBuf],
    idx: &[u32],
    cx: LaneCtx,
    flats: &mut Vec<u64>,
    out: &mut VBuf,
    line: usize,
) -> Result<(), ExecError> {
    let lanes = cx.lanes;
    let vec_lanes = if !a.shared && lanes > 1 {
        lanes
    } else {
        idx.iter()
            .map(|&s| pool[s as usize].len())
            .max()
            .unwrap_or(1)
            .max(1)
    };
    let nd = idx.len();
    match a.elem {
        ElemTy::Float => {
            out.begin_f();
        }
        ElemTy::Int => {
            out.begin_i();
        }
    }
    let full = vec_lanes == lanes && cx.active == lanes;
    let uniform_to = if full {
        idx.iter()
            .take_while(|&&s| pool[s as usize].len() == 1)
            .count()
    } else {
        0
    };
    let al = a.lanes.max(1);
    if full && uniform_to == nd {
        // Uniform indices under a full mask: one bounds check, then a
        // strided (often contiguous) copy — same per-lane slots and values
        // as the generic walk.
        let flat = a.flat(idx.iter().map(|&s| pool[s as usize].get_i(0)), line)?;
        if !a.shared && al == vec_lanes {
            let base = flat as usize * al;
            match a.elem {
                ElemTy::Float => out.f.extend_from_slice(&a.fdata[base..base + vec_lanes]),
                ElemTy::Int => out.i.extend_from_slice(&a.idata[base..base + vec_lanes]),
            }
        } else {
            match a.elem {
                ElemTy::Float => out
                    .f
                    .extend((0..vec_lanes).map(|l| a.fdata[a.slot(flat, l % al)])),
                ElemTy::Int => out
                    .i
                    .extend((0..vec_lanes).map(|l| a.idata[a.slot(flat, l % al)])),
            }
        }
        return Ok(());
    }
    if full && nd >= 1 && uniform_to == nd - 1 && a.dims.len() == nd && {
        let lv = &pool[idx[nd - 1] as usize];
        !lv.is_f && lv.i.len() == vec_lanes
    } {
        // Uniform index prefix with a lanes-varying last index (the tile
        // gather `tb[kk, t]`): bounds-check the prefix once and the last
        // index's range once, then gather. Same slots and values as the
        // generic walk; a range failure reports the first offending lane,
        // as the generic walk would (under a full mask lane order is
        // check order).
        let mut prefix: u64 = 0;
        for (k, &s) in idx[..nd - 1].iter().enumerate() {
            let i = pool[s as usize].get_i(0);
            let d = a.dims[k];
            if i < 0 || (i as u64) >= d {
                return Err(scratch_oob(line, i, d));
            }
            prefix = prefix * d + i as u64;
        }
        let dl = a.dims[nd - 1];
        let base = (prefix * dl) as usize;
        let lv = &pool[idx[nd - 1] as usize].i;
        // A run of consecutive indices (the lane iota) is a contiguous row
        // segment of a shared array: check its ends, then copy.
        // (An or-reduction of `q - p - 1` over neighbours: branch-free
        // 64-bit integer ops the compiler vectorizes.)
        let run = lv
            .iter()
            .zip(&lv[1..])
            .fold(0, |acc, (&p, &q)| acc | q.wrapping_sub(p).wrapping_sub(1))
            == 0;
        let (lo, hi) = if run {
            (lv[0], lv[lv.len() - 1])
        } else {
            lv.iter()
                .fold((i64::MAX, i64::MIN), |(lo, hi), &i| (lo.min(i), hi.max(i)))
        };
        if lo < 0 || (hi as u64) >= dl {
            let &i = lv
                .iter()
                .find(|&&i| i < 0 || (i as u64) >= dl)
                .expect("range check found an offending lane");
            return Err(scratch_oob(line, i, dl));
        }
        let dl = dl as usize;
        match (a.shared, a.elem) {
            (true, ElemTy::Float) if run => {
                let lo = base + lo as usize;
                out.f.extend_from_slice(&a.fdata[lo..lo + lv.len()]);
            }
            (true, ElemTy::Int) if run => {
                let lo = base + lo as usize;
                out.i.extend_from_slice(&a.idata[lo..lo + lv.len()]);
            }
            (true, ElemTy::Float) => {
                let row = &a.fdata[base..base + dl];
                out.f.extend(lv.iter().map(|&i| row[i as usize]));
            }
            (true, ElemTy::Int) => {
                let row = &a.idata[base..base + dl];
                out.i.extend(lv.iter().map(|&i| row[i as usize]));
            }
            (false, ElemTy::Float) => out.f.extend(
                lv.iter()
                    .enumerate()
                    .map(|(lane, &i)| a.fdata[(base + i as usize) * al + lane % al]),
            ),
            (false, ElemTy::Int) => out.i.extend(
                lv.iter()
                    .enumerate()
                    .map(|(lane, &i)| a.idata[(base + i as usize) * al + lane % al]),
            ),
        }
        return Ok(());
    }
    if !full && vec_lanes == lanes {
        if let Some(first) = agreeing_lane(pool, idx, cx.mask) {
            // Under a partial mask, indices that agree on the active lanes
            // address one element: check it once, then read it (or each
            // lane's private copy) on the active lanes and 0 on the others,
            // as the per-lane walk below does.
            let flat = a.flat(idx.iter().map(|&s| pool[s as usize].get_i(first)), line)?;
            let on = cx
                .mask
                .iter()
                .enumerate()
                .map(|(l, &m)| (a.slot(flat, l % al), m));
            match a.elem {
                ElemTy::Float => out
                    .f
                    .extend(on.map(|(sl, m)| if m { a.fdata[sl] } else { 0.0 })),
                ElemTy::Int => out
                    .i
                    .extend(on.map(|(sl, m)| if m { a.idata[sl] } else { 0 })),
            }
            return Ok(());
        }
    }
    walk_lanes(a, pool, idx, cx, vec_lanes, flats, line)?;
    let on = flats
        .iter()
        .enumerate()
        .map(|(l, &f)| (f != INACTIVE).then(|| a.slot(f, l % al)));
    match a.elem {
        ElemTy::Float => out.f.extend(on.map(|sl| sl.map_or(0.0, |sl| a.fdata[sl]))),
        ElemTy::Int => out.i.extend(on.map(|sl| sl.map_or(0, |sl| a.idata[sl]))),
    }
    Ok(())
}

/// [`walk_lanes`]' mark for a lane the activity mask leaves out.
const INACTIVE: u64 = u64::MAX;

/// The tree walker's per-lane scratch walk: `flats[lane]` is the
/// bounds-checked flat index of each active lane (in lane order, so the
/// first offending active lane's error wins) and [`INACTIVE`] for the
/// others. Lanes are active unless `vec_lanes` is the lane count and the
/// mask says otherwise.
fn walk_lanes(
    a: &ScratchArr,
    pool: &[VBuf],
    idx: &[u32],
    cx: LaneCtx,
    vec_lanes: usize,
    flats: &mut Vec<u64>,
    line: usize,
) -> Result<(), ExecError> {
    #[inline(always)]
    fn walk(
        a: &ScratchArr,
        mask: Option<&[bool]>,
        nd: usize,
        get: impl Fn(usize, usize) -> i64,
        flats: &mut [u64],
        line: usize,
    ) -> Result<(), ExecError> {
        for (lane, f) in flats.iter_mut().enumerate() {
            *f = if mask.is_some_and(|m| !m.get(lane).copied().unwrap_or(true)) {
                INACTIVE
            } else {
                a.flat((0..nd).map(|k| get(lane, k)), line)?
            };
        }
        Ok(())
    }
    flats.clear();
    flats.resize(vec_lanes, INACTIVE);
    let mask = (vec_lanes == cx.lanes).then_some(cx.mask);
    match int_cols(pool, idx) {
        Some(cols) => walk(
            a,
            mask,
            idx.len(),
            |l, k| cols[k].0[l * cols[k].1],
            flats,
            line,
        ),
        None => walk(
            a,
            mask,
            idx.len(),
            |l, k| pool[idx[k] as usize].get_i(l),
            flats,
            line,
        ),
    }
}

/// Int index operands as `(values, stride)` columns — stride 0 for a
/// uniform operand — when there are at most four and none is float: the
/// per-lane reads then need no type or length tests.
fn int_cols<'a>(pool: &'a [VBuf], idx: &[u32]) -> Option<[(&'a [i64], usize); 4]> {
    let mut cols: [(&[i64], usize); 4] = [(&[], 0); 4];
    if idx.len() > cols.len() {
        return None;
    }
    for (&s, col) in idx.iter().zip(&mut cols) {
        let v = &pool[s as usize];
        if v.is_f {
            return None;
        }
        *col = (&v.i, usize::from(v.i.len() > 1));
    }
    Some(cols)
}

/// Store one lane of `v` into scratch slot `sl`, converting to the
/// array's element type like the tree walker.
#[inline]
fn put_scratch(a: &mut ScratchArr, sl: usize, v: &VBuf, lane: usize) {
    match (v.is_f, a.elem) {
        (true, ElemTy::Float) => a.fdata[sl] = v.get_f(lane) as f32 as f64,
        (false, ElemTy::Int) => a.idata[sl] = v.get_i(lane),
        (false, ElemTy::Float) => a.fdata[sl] = v.get_i(lane) as f64,
        (true, ElemTy::Int) => a.idata[sl] = v.get_f(lane) as i64,
    }
}

/// Value half of `ScratchStore`: the tree walker's per-lane scratch
/// write, skipping inactive lanes.
#[allow(clippy::too_many_arguments)]
fn store_scratch(
    a: &mut ScratchArr,
    pool: &[VBuf],
    idx: &[u32],
    v: &VBuf,
    cx: LaneCtx,
    flats: &mut Vec<u64>,
    line: usize,
) -> Result<(), ExecError> {
    let lanes = cx.lanes;
    let vec_lanes = if !a.shared && lanes > 1 {
        lanes
    } else {
        idx.iter()
            .map(|&s| pool[s as usize].len())
            .max()
            .unwrap_or(1)
            .max(1)
            .max(v.len())
    };
    let nd = idx.len();
    let full = vec_lanes == lanes && cx.active == lanes;
    let uniform_to = if full {
        idx.iter()
            .take_while(|&&s| pool[s as usize].len() == 1)
            .count()
    } else {
        0
    };
    let al = a.lanes.max(1);
    if full && uniform_to == nd {
        // Uniform indices under a full mask: one bounds check, then
        // strided stores lane by lane.
        let flat = a.flat(idx.iter().map(|&s| pool[s as usize].get_i(0)), line)?;
        if !a.shared && al == vec_lanes && v.is_f && a.elem == ElemTy::Float {
            let base = flat as usize * al;
            let (vf, sv) = (&v.f, usize::from(v.f.len() > 1));
            for (lane, d) in a.fdata[base..base + vec_lanes].iter_mut().enumerate() {
                *d = vf[lane * sv] as f32 as f64;
            }
            return Ok(());
        }
        for lane in 0..vec_lanes {
            let sl = a.slot(flat, lane % al);
            put_scratch(a, sl, v, lane);
        }
        return Ok(());
    }
    if full && nd >= 1 && uniform_to == nd - 1 && a.dims.len() == nd && {
        let lv = &pool[idx[nd - 1] as usize];
        !lv.is_f && lv.i.len() == vec_lanes
    } {
        // Uniform prefix, lanes-varying last index (the tile store
        // `tb[kk, t] = ...`): prefix checked once, last dimension walked
        // per lane.
        let mut prefix: u64 = 0;
        for (k, &s) in idx[..nd - 1].iter().enumerate() {
            let i = pool[s as usize].get_i(0);
            let d = a.dims[k];
            if i < 0 || (i as u64) >= d {
                return Err(scratch_oob(line, i, d));
            }
            prefix = prefix * d + i as u64;
        }
        let dl = a.dims[nd - 1];
        let base = prefix * dl;
        let lv = &pool[idx[nd - 1] as usize].i;
        for (lane, &i) in lv.iter().enumerate() {
            if i < 0 || (i as u64) >= dl {
                return Err(scratch_oob(line, i, dl));
            }
            let flat = base + i as u64;
            let sl = if a.shared {
                flat as usize
            } else {
                flat as usize * al + lane % al
            };
            put_scratch(a, sl, v, lane);
        }
        return Ok(());
    }
    if !full && vec_lanes == lanes {
        if let Some(first) = agreeing_lane(pool, idx, cx.mask) {
            // Under a partial mask, indices that agree on the active lanes
            // address one element: check it once, then store on the active
            // lanes in order (a shared slot keeps the last one's value).
            let flat = a.flat(idx.iter().map(|&s| pool[s as usize].get_i(first)), line)?;
            for (lane, _) in cx.mask.iter().enumerate().filter(|(_, &m)| m) {
                let sl = a.slot(flat, lane % al);
                put_scratch(a, sl, v, lane);
            }
            return Ok(());
        }
    }
    // Every active lane is checked before any stores: on an error the
    // launch fails and its scratch arrays are dropped, so the order of
    // checks and stores is not observable, only which lane fails first.
    walk_lanes(a, pool, idx, cx, vec_lanes, flats, line)?;
    for (lane, &f) in flats.iter().enumerate() {
        if f != INACTIVE {
            let sl = a.slot(f, lane % al);
            put_scratch(a, sl, v, lane);
        }
    }
    Ok(())
}

/// `dst[l] = f(dst[l], l)` on every active lane.
#[inline(always)]
fn rmw_lanes<T: Copy>(dst: &mut [T], mask: Option<&[bool]>, f: impl Fn(T, usize) -> T) {
    match mask {
        None => {
            for (l, d) in dst.iter_mut().enumerate() {
                *d = f(*d, l);
            }
        }
        Some(mask) => {
            for (l, (d, &m)) in dst.iter_mut().zip(mask).enumerate() {
                if m {
                    *d = f(*d, l);
                }
            }
        }
    }
}

/// Coalescing summary of one global access: what the tree walker's
/// per-warp segment scan computes.
#[derive(Debug, Clone, Copy)]
struct Coalesce {
    transactions: u64,
    active_lanes: u64,
    all_same: bool,
}

impl<'p> Vm<'p> {
    fn fail(&self, line: usize, message: String) -> ExecError {
        ExecError { line, message }
    }

    fn refresh(&mut self) {
        self.active = self.mask.iter().filter(|b| **b).count();
        self.warps = self
            .mask
            .chunks(self.simd)
            .filter(|w| w.iter().any(|b| *b))
            .count();
    }

    fn lane_ctx(&self) -> LaneCtx<'_> {
        LaneCtx {
            lanes: self.lanes,
            active: self.active,
            mask: &self.mask,
        }
    }

    #[inline]
    fn issue(&mut self, cost: f64) {
        let w = self.warps as f64;
        self.st.issue_cycles += cost * w * self.scale;
        self.st.issue_slots += w * self.simd as f64 * self.scale;
        self.st.active_slots += self.active as f64 * self.scale;
    }

    #[inline]
    fn count_flops(&mut self, per_lane: f64) {
        self.st.flops += per_lane * self.active as f64 * self.scale;
    }

    /// Stats half of the tree walker's `apply_bin`.
    #[inline]
    fn bin_stats(&mut self, op: BinOp, af: bool, bf: bool) {
        let cost = match op {
            BinOp::Div | BinOp::Mod => CYCLE_SPECIAL,
            _ => CYCLE_BASIC,
        };
        self.issue(cost);
        let float = (af || bf) && !op.int_only() && !op.is_comparison();
        if float {
            self.count_flops(1.0);
        }
    }

    /// Stats of one scratch access (load or store).
    #[inline]
    fn scratch_stats(&mut self, shared: bool) {
        self.issue(if shared { CYCLE_LOCAL } else { CYCLE_BASIC });
        if shared {
            self.st.local_bytes += (self.active as u64 * ELEM_BYTES) as f64 * self.scale;
        }
    }

    /// `Bin`: stats, then the value, computed in place when both operands
    /// are lane-uniform.
    #[inline]
    fn bin(&mut self, dst: usize, a: usize, b: usize, op: BinOp, cvt: Option<ElemTy>) {
        let (x, y) = (&self.pool[a], &self.pool[b]);
        let (af, bf) = (x.is_f, y.is_f);
        let uniform = x.uniform().zip(y.uniform());
        self.bin_stats(op, af, bf);
        if let Some((p, q)) = uniform {
            self.pool[dst].set(bin_scalar(op, p, q).coerce(cvt));
            return;
        }
        let mut out = mem::take(&mut self.t0);
        bin_compute(op, &self.pool[a], &self.pool[b], &mut out);
        if let Some(ty) = cvt {
            out.coerce(ty);
        }
        mem::swap(&mut self.pool[dst], &mut out);
        self.t0 = out;
    }

    /// Stats of the test `a op b` (a `Bin` feeding a branch), then its
    /// truth when both operands are lane-uniform.
    #[inline]
    fn test_uniform(&mut self, a: u32, b: u32, op: BinOp) -> Option<bool> {
        let (x, y) = (&self.pool[a as usize], &self.pool[b as usize]);
        let (af, bf) = (x.is_f, y.is_f);
        let uniform = x.uniform().zip(y.uniform());
        self.bin_stats(op, af, bf);
        uniform.map(|(p, q)| bin_scalar(op, p, q).truthy())
    }

    /// Scalar assignment: combine, then store under the activity mask.
    fn assign(&mut self, slot: usize, src: usize, op: AssignOp, fused: bool) {
        let whole = self.lanes == 1 || self.active == self.lanes;
        if op == AssignOp::Set {
            if slot != src {
                let (d, s) = pair_mut(&mut self.pool, slot, src);
                if whole {
                    d.copy_from(s);
                } else {
                    merge_masked(d, s, &self.mask);
                }
            }
            return;
        }
        let bop = match op {
            AssignOp::Add => BinOp::Add,
            AssignOp::Sub => BinOp::Sub,
            AssignOp::Mul => BinOp::Mul,
            AssignOp::Div => BinOp::Div,
            AssignOp::Set => unreachable!(),
        };
        let (old, rhs) = (&self.pool[slot], &self.pool[src]);
        let (of, rf) = (old.is_f, rhs.is_f);
        // FMA add: no extra issue, no extra flops.
        let fma = fused && (of || rf);
        if whole {
            if let Some((p, q)) = old.uniform().zip(rhs.uniform()) {
                let r = if fma {
                    Lit::F(p.f() + q.f())
                } else {
                    self.bin_stats(bop, of, rf);
                    bin_scalar(bop, p, q)
                };
                self.pool[slot].set(r);
                return;
            }
        }
        if fma && whole && of && rf && old.len() > 1 && rhs.len() <= old.len() {
            // The FMA accumulator is a lanes-wide float: add in place.
            let (acc, x) = pair_mut(&mut self.pool, slot, src);
            match &x.f[..] {
                [q] => acc.f.iter_mut().for_each(|o| *o += q),
                xs => acc.f.iter_mut().zip(xs).for_each(|(o, q)| *o += q),
            }
            return;
        }
        let mut out = mem::take(&mut self.t0);
        if fma {
            let lanes = old.len().max(rhs.len());
            let o = out.begin_f();
            o.extend((0..lanes).map(|l| old.get_f(l) + rhs.get_f(l)));
        } else {
            self.bin_stats(bop, of, rf);
            bin_compute(bop, &self.pool[slot], &self.pool[src], &mut out);
        }
        if whole {
            mem::swap(&mut self.pool[slot], &mut out);
        } else {
            merge_masked(&mut self.pool[slot], &out, &self.mask);
        }
        self.t0 = out;
    }

    /// Verify a value is lane-uniform and return its int form.
    fn uniform_int(&self, src: u32, line: usize, what: &str) -> Result<i64, ExecError> {
        let v = &self.pool[src as usize];
        let n = v.len();
        let first = v.get_i(0);
        for l in 1..n {
            if v.get_i(l) != first {
                return Err(self.fail(line, format!("{what} must be lane-uniform")));
            }
        }
        Ok(first)
    }

    /// The flat address of a global access that is provably lane-uniform:
    /// at least one lane is active and every index operand is uniform or
    /// takes one value on all active lanes. The tree walker's address
    /// vector would hold this one address in every lane (masked lanes take
    /// the first active lane's), and each warp with an active lane
    /// coalesces to one transaction ([`Vm::uniform_coalesce`]).
    fn uniform_flat(
        &mut self,
        pidx: usize,
        idx: &[u32],
        line: usize,
    ) -> Result<Option<u64>, ExecError> {
        let pool = &self.pool;
        let Some(first) = agreeing_lane(pool, idx, &self.mask) else {
            return Ok(None);
        };
        let ArgValue::Array(arr) = &self.args[pidx] else {
            unreachable!("entry validation checked array kinds")
        };
        global_flat(
            arr,
            idx.iter().map(|&s| pool[s as usize].get_i(first)),
            line,
        )
        .map(Some)
    }

    fn uniform_coalesce(&self) -> Coalesce {
        Coalesce {
            transactions: self.warps as u64,
            active_lanes: self.active as u64,
            all_same: true,
        }
    }

    /// Per-lane flat addresses of a global access into `self.addrs`,
    /// exactly like the tree walker's `global_addresses` (masked lanes get
    /// the first valid address), with the coalescing scan of
    /// `account_global` done in the same pass.
    fn lane_addresses(
        &mut self,
        pidx: usize,
        idx: &[u32],
        line: usize,
    ) -> Result<Coalesce, ExecError> {
        let lanes = if self.lanes > 1 {
            self.lanes
        } else {
            idx.iter()
                .map(|&s| self.pool[s as usize].len())
                .max()
                .unwrap_or(1)
        }
        .max(1);
        let mask = (lanes == self.lanes && self.active < lanes).then_some(&self.mask[..]);
        let ArgValue::Array(arr) = &self.args[pidx] else {
            unreachable!("entry validation checked array kinds")
        };
        let mut addrs = mem::take(&mut self.addrs);
        addrs.clear();
        addrs.resize(lanes, 0);
        let (pool, nd, simd, seg) = (&self.pool, idx.len(), self.simd, &mut self.seg);
        let scanned = match int_cols(pool, idx) {
            Some(cols) => {
                let get = |l: usize, k: usize| cols[k].0[l * cols[k].1];
                scan_lanes(arr, nd, get, mask, simd, &mut addrs, seg, line)
            }
            None => {
                let get = |l: usize, k: usize| pool[idx[k] as usize].get_i(l);
                scan_lanes(arr, nd, get, mask, simd, &mut addrs, seg, line)
            }
        };
        let res = scanned.map(|(c, first)| {
            if let Some(mask) = mask {
                let fill = first.unwrap_or(0);
                for (a, &m) in addrs.iter_mut().zip(mask) {
                    if !m {
                        *a = fill;
                    }
                }
            }
            c
        });
        self.addrs = addrs;
        res
    }

    /// Transaction/coalescing accounting — identical addend order to the
    /// tree walker's `account_global`. `l1` is `(cache id, address key)`
    /// for loads only.
    fn account(&mut self, site: usize, l1: Option<(usize, L1Key)>, c: Coalesce) {
        self.issue(CYCLE_GLOBAL);
        if c.active_lanes == 0 {
            return;
        }
        let ideal = c.active_lanes * ELEM_BYTES;
        let cached = l1.is_some_and(|(cid, key)| {
            let hit = self.caches[cid].hit(key);
            if let (false, Some(h)) = (hit, &mut self.helper) {
                h.probes[cid].note(key);
            }
            hit
        });
        let broadcast = c.all_same && c.active_lanes > 1;
        let moved = if cached {
            0
        } else if broadcast {
            ELEM_BYTES
        } else {
            c.transactions * TRANSACTION_BYTES
        };
        self.st.global_bytes += moved as f64 * self.scale;
        self.st.ideal_global_bytes += ideal as f64 * self.scale;
        let a = &mut self.acc[site];
        a.touched = true;
        a.s.executions += self.scale;
        a.s.ideal_bytes += ideal as f64 * self.scale;
        a.s.transaction_bytes += moved as f64 * self.scale;
        if broadcast {
            a.s.broadcasts += self.scale;
        }
    }

    /// Address, account and load one global access into `out`. Returns the
    /// coalescing summary and, for a lane-uniform access, its address.
    fn global_load(
        &mut self,
        pidx: usize,
        idx: &[u32],
        site: usize,
        cache: usize,
        out: &mut VBuf,
        line: usize,
    ) -> Result<(Coalesce, Option<u64>), ExecError> {
        let uflat = self.uniform_flat(pidx, idx, line)?;
        let c = match uflat {
            Some(flat) => {
                let c = self.uniform_coalesce();
                let key = L1Key::Uniform {
                    addr: flat,
                    lanes: self.lanes,
                };
                self.account(site, Some((cache, key)), c);
                // A one-element buffer is value-identical to the broadcast
                // the tree walker materializes.
                let ArgValue::Array(arr) = &self.args[pidx] else {
                    unreachable!()
                };
                match arr.data.elem() {
                    ElemTy::Float => out.set_uniform_f(arr.data.load_f(flat)),
                    ElemTy::Int => out.set_uniform_i(arr.data.load_i(flat)),
                }
                c
            }
            None => {
                let c = self.lane_addresses(pidx, idx, line)?;
                // Masked lanes took the first active lane's address, so
                // `all_same` makes every lane of the vector one address.
                let key = if c.all_same {
                    L1Key::Uniform {
                        addr: self.addrs[0],
                        lanes: self.addrs.len(),
                    }
                } else {
                    L1Key::of(&self.addrs)
                };
                self.account(site, Some((cache, key)), c);
                let ArgValue::Array(arr) = &self.args[pidx] else {
                    unreachable!()
                };
                match arr.data.elem() {
                    ElemTy::Float => arr.data.gather_f(&self.addrs, out.begin_f()),
                    ElemTy::Int => arr.data.gather_i(&self.addrs, out.begin_i()),
                }
                c
            }
        };
        Ok((c, uflat))
    }

    /// Enter vector chunk `fe_stack[d].idx`: set lanes/mask, count the
    /// chunk, bind the loop variable to the lane iota.
    fn enter_chunk(&mut self, d: usize) {
        let (base, lanes, var) = {
            let fr = &self.fe_stack[d];
            let base = fr.idx * self.group as u64;
            (
                base,
                ((fr.n - base).min(self.group as u64)) as usize,
                fr.var,
            )
        };
        self.lanes = lanes;
        self.mask.clear();
        self.mask.resize(lanes, true);
        self.refresh();
        self.st.raw_lanes += lanes as f64;
        self.st.total_threads += lanes as f64 * self.scale;
        self.st.groups += self.scale;
        let o = self.pool[var as usize].begin_i();
        for l in 0..lanes {
            o.push(base as i64 + l as i64);
        }
    }

    fn if_push(&mut self) -> usize {
        let d = self.if_depth;
        if self.if_stack.len() == d {
            self.if_stack.push(IfFrame::default());
        }
        self.if_depth += 1;
        d
    }

    /// `if` on a lane-uniform condition `c`; returns whether the then
    /// branch runs. The then-mask is either the current mask (c true) or
    /// empty (c false), so the mask never changes. Branch accounting
    /// collapses to one `+= scale` per warp with any active lane —
    /// identical addend order to `record_branch` (a uniform condition can
    /// never diverge).
    fn if_uniform(&mut self, c: bool, predicated: bool, then_empty: bool) -> bool {
        let d = self.if_push();
        if !predicated {
            for _ in 0..self.warps {
                self.st.branch_events += self.scale;
            }
        }
        let fr = &mut self.if_stack[d];
        fr.cond_uniform = Some(c);
        fr.any_not = !c && self.active > 0;
        fr.dirty = false;
        c && self.active > 0 && !then_empty
    }

    /// `if` on a lanes-wide condition, once `fill` has written its lane
    /// truth into the new frame's condition mask: warp-level branch
    /// accounting and any/all discovery in one pass, then narrow the mask
    /// for the then branch. Returns whether the then branch runs.
    fn if_varying(
        &mut self,
        fill: impl FnOnce(&[VBuf], usize, &mut Vec<bool>),
        predicated: bool,
        then_empty: bool,
    ) -> bool {
        let d = self.if_push();
        fill(&self.pool, self.lanes, &mut self.if_stack[d].cmask);
        let fr = &mut self.if_stack[d];
        fr.cond_uniform = None;
        let b = warp_branches(
            &self.mask,
            &fr.cmask,
            self.simd,
            (!predicated).then_some((&mut self.st, self.scale)),
        );
        fr.any_not = b.any_not;
        if b.any_taken() && !then_empty {
            if b.any_not {
                fr.saved.clear();
                fr.saved.extend_from_slice(&self.mask);
                fr.dirty = true;
                for (m, &c) in self.mask.iter_mut().zip(&fr.cmask) {
                    *m &= c;
                }
                (self.active, self.warps) = (b.taken_lanes, b.taken_warps);
            } else {
                // Every active lane takes the branch: the narrowed mask
                // equals the current mask.
                fr.dirty = false;
            }
            true
        } else {
            fr.dirty = false;
            false
        }
    }

    /// The runaway check at the top of every `for` iteration.
    fn for_guard(&mut self, line: usize) -> Result<(), ExecError> {
        if self
            .helper
            .as_ref()
            .is_some_and(|h| h.abort.load(Ordering::Relaxed))
        {
            return Err(self.fail(line, "split helper stopped".into()));
        }
        let fr = &mut self.for_stack[self.for_depth - 1];
        fr.guard += 1;
        if fr.guard > LOOP_LIMIT {
            return Err(self.fail(line, "loop exceeded 1e9 iterations (runaway?)".into()));
        }
        Ok(())
    }

    /// `for` test on a lane-uniform condition: every active lane agrees,
    /// so the mask never narrows. Accounting is one `+= scale` per warp
    /// with any active lane, exactly as `record_branch` would add them.
    /// Returns whether the loop continues.
    fn for_uniform(&mut self, c: bool) -> bool {
        if self.lanes > 1 {
            for _ in 0..self.warps {
                self.st.branch_events += self.scale;
            }
        }
        c && self.active != 0
    }

    /// `for` test on a lanes-wide condition, once `fill` has written its
    /// lane truth into the loop frame's condition mask: warp-level
    /// accounting and any/all discovery in one pass, then narrow the mask
    /// (loop-carried). Returns whether the loop continues.
    fn for_varying(&mut self, fill: impl FnOnce(&[VBuf], usize, &mut Vec<bool>)) -> bool {
        let d = self.for_depth - 1;
        fill(&self.pool, self.lanes, &mut self.for_stack[d].cmask);
        let record = self.lanes > 1;
        let fr = &mut self.for_stack[d];
        let b = warp_branches(
            &self.mask,
            &fr.cmask,
            self.simd,
            record.then_some((&mut self.st, self.scale)),
        );
        if !b.any_taken() {
            return false;
        }
        if b.any_not {
            if !fr.dirty {
                // First narrowing: the current mask is still the
                // loop-entry mask.
                fr.saved.clear();
                fr.saved.extend_from_slice(&self.mask);
                fr.dirty = true;
            }
            for (m, &c) in self.mask.iter_mut().zip(&fr.cmask) {
                *m &= c;
            }
            (self.active, self.warps) = (b.taken_lanes, b.taken_warps);
        }
        true
    }

    /// The multiply of a [`Rhs::Mul`], as the `Bin` it replaces, into
    /// `prod`.
    fn mul_prod(&mut self, a: usize, b: usize) {
        let (xf, yf) = (self.pool[a].is_f, self.pool[b].is_f);
        self.bin_stats(BinOp::Mul, xf, yf);
        let (x, y) = (&self.pool[a], &self.pool[b]);
        match x.uniform().zip(y.uniform()) {
            Some((p, q)) => self.prod.set(bin_scalar(BinOp::Mul, p, q)),
            None => bin_compute(BinOp::Mul, x, y, &mut self.prod),
        }
    }

    /// `ScratchRmw` of `arr[idx] += a * b` on a private float array whose
    /// lanes own distinct slots, with uniform indices, under a full mask,
    /// and float operands whose product is lanes-wide: the multiply,
    /// load, add and store stats in that order, then one pass over the
    /// lanes. Returns `false` (having done nothing) when the access has
    /// another shape.
    fn scratch_fma_lanes(
        &mut self,
        ai: usize,
        idx: &[u32],
        a: usize,
        b: usize,
        op: BinOp,
        line: usize,
    ) -> Result<bool, ExecError> {
        let lanes = self.lanes;
        let arr = &self.arrays[ai];
        let (x, y) = (&self.pool[a], &self.pool[b]);
        let operand = |v: &VBuf| v.is_f && (v.f.len() == 1 || v.f.len() == lanes);
        if op != BinOp::Add
            || arr.shared
            || arr.elem != ElemTy::Float
            || arr.lanes.max(1) != lanes
            || self.active != lanes
            || !operand(x)
            || !operand(y)
            || x.f.len().max(y.f.len()) != lanes
            || idx.iter().any(|&s| self.pool[s as usize].len() != 1)
        {
            return Ok(false);
        }
        self.bin_stats(BinOp::Mul, true, true);
        self.scratch_stats(false);
        self.bin_stats(BinOp::Add, true, true);
        self.scratch_stats(false);
        let pool = &self.pool;
        let arr = &mut self.arrays[ai];
        let flat = arr.flat(idx.iter().map(|&s| pool[s as usize].get_i(0)), line)? as usize;
        let dst = &mut arr.fdata[flat * lanes..(flat + 1) * lanes];
        let (xf, yf) = (&pool[a].f, &pool[b].f);
        match (xf.len() == lanes, yf.len() == lanes) {
            (true, true) => dst
                .iter_mut()
                .zip(xf.iter().zip(yf))
                .for_each(|(d, (&p, &q))| *d = (*d + p * q) as f32 as f64),
            (false, _) => {
                let p = xf[0];
                dst.iter_mut()
                    .zip(yf)
                    .for_each(|(d, &q)| *d = (*d + p * q) as f32 as f64);
            }
            (true, false) => {
                let q = yf[0];
                dst.iter_mut()
                    .zip(xf)
                    .for_each(|(d, &p)| *d = (*d + p * q) as f32 as f64);
            }
        }
        Ok(true)
    }

    /// `ScratchRmw` on a private array whose lanes own distinct slots,
    /// with uniform indices: one pass over the lanes. The right-hand side
    /// is register `src`, or `prod` when `None`. Returns `false` (having
    /// done nothing) when the access has another shape.
    fn scratch_rmw_lanes(
        &mut self,
        ai: usize,
        idx: &[u32],
        src: Option<usize>,
        op: BinOp,
        line: usize,
    ) -> Result<bool, ExecError> {
        let a = &self.arrays[ai];
        let v = src.map_or(&self.prod, |s| &self.pool[s]);
        if a.shared
            || a.lanes.max(1) != self.lanes
            || v.len() > self.lanes
            || idx.iter().any(|&s| self.pool[s as usize].len() != 1)
        {
            return Ok(false);
        }
        let (arr_f, src_f) = (a.elem == ElemTy::Float, v.is_f);
        // Load, combine and store stats, in that order.
        self.scratch_stats(false);
        self.bin_stats(op, arr_f, src_f);
        self.scratch_stats(false);
        if self.active == 0 {
            return Ok(true);
        }
        let pool = &self.pool;
        let a = &mut self.arrays[ai];
        let flat = a.flat(idx.iter().map(|&s| pool[s as usize].get_i(0)), line)? as usize;
        let lanes = self.lanes;
        let base = flat * lanes;
        let mask = (self.active != lanes).then_some(&self.mask[..]);
        let v = src.map_or(&self.prod, |s| &self.pool[s]);
        match (arr_f, src_f) {
            (true, true) if mask.is_none() && v.f.len() == lanes => {
                // Full mask, lanes-wide value: a straight zip the compiler
                // vectorizes.
                let dst = &mut a.fdata[base..base + lanes];
                let pairs = dst.iter_mut().zip(&v.f);
                match op {
                    BinOp::Add => pairs.for_each(|(d, &x)| *d = (*d + x) as f32 as f64),
                    BinOp::Sub => pairs.for_each(|(d, &x)| *d = (*d - x) as f32 as f64),
                    BinOp::Mul => pairs.for_each(|(d, &x)| *d = (*d * x) as f32 as f64),
                    _ => pairs.for_each(|(d, &x)| *d = float_op(op, *d, x) as f32 as f64),
                }
            }
            (true, true) => {
                let (vf, sv) = (&v.f, usize::from(v.f.len() > 1));
                let dst = &mut a.fdata[base..base + lanes];
                match op {
                    BinOp::Add => rmw_lanes(dst, mask, |p, l| (p + vf[l * sv]) as f32 as f64),
                    BinOp::Sub => rmw_lanes(dst, mask, |p, l| (p - vf[l * sv]) as f32 as f64),
                    BinOp::Mul => rmw_lanes(dst, mask, |p, l| (p * vf[l * sv]) as f32 as f64),
                    _ => rmw_lanes(dst, mask, |p, l| float_op(op, p, vf[l * sv]) as f32 as f64),
                }
            }
            (true, false) => rmw_lanes(&mut a.fdata[base..base + lanes], mask, |p, l| {
                float_op(op, p, v.get_f(l)) as f32 as f64
            }),
            (false, false) => rmw_lanes(&mut a.idata[base..base + lanes], mask, |p, l| {
                int_op(op, p, v.get_i(l))
            }),
            (false, true) => rmw_lanes(&mut a.idata[base..base + lanes], mask, |p, l| {
                float_op(op, p as f64, v.get_f(l)) as i64
            }),
        }
        Ok(true)
    }

    /// A helper VM for the split loop at depth `d`: this VM's state, which
    /// the loop body only reads outside what it declares itself, with
    /// zeroed counters, an empty L1 model, and the loop advanced to its
    /// second iteration. Every buffer it starts with is allocated here, on
    /// the calling thread.
    fn helper_vm<'s>(&self, head: usize, d: usize, abort: &'s AtomicBool) -> Vm<'s>
    where
        'p: 's,
    {
        let mut h = Vm {
            prog: self.prog,
            args: self.args.clone(),
            pool: self.pool.clone(),
            arrays: self.arrays.clone(),
            lanes: self.lanes,
            mask: self.mask.clone(),
            active: self.active,
            warps: self.warps,
            simd: self.simd,
            group: self.group,
            sampled: self.sampled,
            scale: self.scale,
            st: KernelStats::default(),
            acc: vec![SiteAcc::default(); self.acc.len()],
            caches: vec![L1Site::default(); self.caches.len()],
            seg: Vec::new(),
            addrs: Vec::new(),
            flats: Vec::new(),
            dim_stack: self.dim_stack.clone(),
            t0: VBuf::default(),
            t1: VBuf::default(),
            prod: VBuf::default(),
            if_stack: self.if_stack.clone(),
            if_depth: self.if_depth,
            for_stack: self.for_stack.clone(),
            for_depth: self.for_depth,
            fe_stack: self.fe_stack.clone(),
            fe_depth: self.fe_depth,
            split: Split::Never,
            halt: d,
            helper: Some(Helper {
                probes: vec![L1Probe::default(); self.caches.len()],
                dyadic: is_dyadic(self.scale),
                abort,
            }),
            log: SplitLog::default(),
        };
        h.fe_stack[d].idx = 1;
        match self.prog.instrs[head] {
            Instr::ForeachVec { .. } => h.enter_chunk(d),
            _ => {
                let var = h.fe_stack[d].var as usize;
                h.pool[var].set_uniform_i(1);
            }
        }
        h
    }

    /// Run the two sampled iterations of the outermost sampled loop, just
    /// entered at `head` with its first iteration set up, on two threads:
    /// the first here, the second on a helper VM ([`Vm::helper_vm`]). The
    /// helper's result is merged only when it equals what running the
    /// second iteration here would give, bit for bit:
    ///
    /// * every scale the helper ran at and every counter this VM ends its
    ///   half with is a multiple of [`SCALE_QUANTUM`], and every merged
    ///   counter stays below [`EXACT_LIMIT`], so the counters add exactly;
    /// * each of the helper's L1 sites, which started empty, missed
    ///   wherever this VM's site would have ([`L1Site::misses_too`]), so
    ///   every hit and miss is the sequential one, and appending the
    ///   helper's misses ([`L1Site::append`]) gives the sequential final
    ///   state;
    /// * the helper did not fail (a failing second iteration is run again
    ///   here, so its error is the sequential one).
    ///
    /// Otherwise the loop is left before its second iteration, which the
    /// loop's `Next` then runs here. An error in the first iteration is
    /// returned as is. Returns the pc of the loop's `Next`, or `None`
    /// (having done nothing) when the launch does not split here.
    fn split_loop<const COUNT: bool>(
        &mut self,
        head: usize,
        counts: &mut [u64],
    ) -> Result<Option<usize>, ExecError> {
        let next = match self.prog.instrs[head] {
            Instr::ForeachVec { end, .. } | Instr::ForeachSeq { end, .. } => end as usize - 1,
            _ => unreachable!("split_loop runs at a foreach head"),
        };
        // A store to a real buffer would carry into the other iteration.
        let phantom_stores = || {
            self.prog.instrs[head + 1..next].iter().all(|i| match i {
                Instr::GlobalAssign { pidx, .. } => {
                    matches!(&self.args[*pidx as usize], ArgValue::Array(a) if a.data.is_phantom())
                }
                _ => true,
            })
        };
        if !self.sampled || self.split == Split::Never || !phantom_stores() {
            return Ok(None);
        }
        let _slot = match self.split {
            Split::Auto => match HelperSlot::take() {
                Some(slot) => Some(slot),
                None => return Ok(None),
            },
            _ => None,
        };
        let d = self.fe_depth - 1;
        let abort = AtomicBool::new(false);
        let mut helper = self.helper_vm(head, d, &abort);
        let mut helper_counts = vec![0; counts.len()];
        self.halt = d;
        let halves = thread::scope(|s| {
            let second = thread::Builder::new()
                .name("mcl-split".into())
                .spawn_scoped(s, || {
                    let r = helper.run::<COUNT>(head + 1, &mut helper_counts);
                    (helper, helper_counts, r)
                })
                .ok()?;
            let first = self.run::<COUNT>(head + 1, counts);
            if first.is_err() {
                abort.store(true, Ordering::Relaxed);
            }
            match second.join() {
                Ok(second) => Some((first, second)),
                Err(p) => panic::resume_unwind(p),
            }
        });
        self.halt = NO_HALT;
        // The helper could not start: run the loop as one thread would.
        let Some((first, (helper, helper_counts, second))) = halves else {
            return Ok(None);
        };
        let at = first?;
        debug_assert_eq!(at, next, "the first half stops at its loop's Next");
        if COUNT {
            // The dispatch loop dispatches the `Next` again.
            counts[next] -= 1;
        }
        if !self.merge(&helper, second.is_ok()) {
            self.log.fell_back += 1;
            return Ok(Some(next));
        }
        for (c, h) in counts.iter_mut().zip(&helper_counts) {
            *c += h;
        }
        self.fe_stack[d].idx = 1;
        self.log.merged += 1;
        Ok(Some(next))
    }

    /// Merge `second`, the helper VM that ran the second iteration, into
    /// this VM when the rules of [`Vm::split_loop`] let it (`ran`: the
    /// helper did not fail); returns whether it did.
    fn merge(&mut self, second: &Vm, ran: bool) -> bool {
        let h = second.helper.as_ref().expect("merge takes a helper VM");
        let l1_apart = self
            .caches
            .iter()
            .zip(&h.probes)
            .all(|(site, probe)| site.misses_too(probe.first()));
        let dyadic_first = counters(&self.st).into_iter().all(is_dyadic)
            && self
                .acc
                .iter()
                .all(|a| site_counters(&a.s).into_iter().all(is_dyadic));
        if !(ran && h.dyadic && dyadic_first && l1_apart) {
            return false;
        }
        let mut st = self.st.clone();
        st.merge(&second.st);
        let acc: Vec<SiteAcc> = self
            .acc
            .iter()
            .zip(&second.acc)
            .map(|(a, b)| add_site(a, b))
            .collect();
        let below = |x: f64| x < EXACT_LIMIT;
        if !(counters(&st).into_iter().all(below)
            && acc
                .iter()
                .all(|a| site_counters(&a.s).into_iter().all(below)))
        {
            return false;
        }
        self.st = st;
        self.acc = acc;
        for (site, later) in self.caches.iter_mut().zip(&second.caches) {
            site.append(later);
        }
        true
    }

    /// Dispatch loop from `pc` to `Halt`, or to the `Next` of the loop at
    /// depth [`Vm::halt`]; returns the pc it stopped at. With `COUNT`,
    /// `counts[pc]` tallies every dispatch of instruction `pc`; the
    /// uncounted instantiation compiles that away.
    fn run<const COUNT: bool>(
        &mut self,
        mut pc: usize,
        counts: &mut [u64],
    ) -> Result<usize, ExecError> {
        let prog = self.prog;
        loop {
            if COUNT {
                counts[pc] += 1;
            }
            let line = prog.lines[pc] as usize;
            match &prog.instrs[pc] {
                Instr::Decl { dst, src, ty } => {
                    let dst = *dst as usize;
                    match src {
                        // The initializer ran before the variable's slot
                        // existed, so it never reads `dst`.
                        Some(s) => {
                            let (d, v) = pair_mut(&mut self.pool, dst, *s as usize);
                            d.copy_from(v);
                            d.coerce(*ty);
                        }
                        None => self.pool[dst].set(Lit::I(0).coerce(Some(*ty))),
                    }
                    pc += 1;
                }
                Instr::Un { dst, src, op } => {
                    let is_f = self.pool[*src as usize].is_f;
                    self.issue(CYCLE_BASIC);
                    let mut out = mem::take(&mut self.t0);
                    match (op, is_f) {
                        (UnOp::Neg, true) => {
                            self.count_flops(1.0);
                            let v = &self.pool[*src as usize];
                            let o = out.begin_f();
                            o.extend(v.f.iter().map(|&x| -x));
                        }
                        (UnOp::Neg, false) => {
                            let v = &self.pool[*src as usize];
                            let o = out.begin_i();
                            o.extend(v.i.iter().map(|&x| x.wrapping_neg()));
                        }
                        (UnOp::Not, false) => {
                            let v = &self.pool[*src as usize];
                            let o = out.begin_i();
                            o.extend(v.i.iter().map(|&x| i64::from(x == 0)));
                        }
                        (UnOp::BitNot, false) => {
                            let v = &self.pool[*src as usize];
                            let o = out.begin_i();
                            o.extend(v.i.iter().map(|&x| !x));
                        }
                        (op, _) => {
                            return Err(self.fail(
                                line,
                                format!(
                                    "bad unary {op:?} on {}",
                                    self.pool[*src as usize].debug_v()
                                ),
                            ));
                        }
                    }
                    mem::swap(&mut self.pool[*dst as usize], &mut out);
                    self.t0 = out;
                    pc += 1;
                }
                Instr::Bin { dst, a, b, op, cvt } => {
                    self.bin(*dst as usize, *a as usize, *b as usize, *op, *cvt);
                    pc += 1;
                }
                Instr::FmaMul { dst, a, b } => {
                    let af = self.pool[*a as usize].is_f;
                    let bf = self.pool[*b as usize].is_f;
                    if !(af || bf) {
                        self.bin(*dst as usize, *a as usize, *b as usize, BinOp::Mul, None);
                        pc += 1;
                        continue;
                    }
                    self.issue(CYCLE_BASIC);
                    self.count_flops(2.0);
                    let mut out = mem::take(&mut self.t0);
                    let x = &self.pool[*a as usize];
                    let y = &self.pool[*b as usize];
                    let lanes = x.len().max(y.len());
                    let o = out.begin_f();
                    if x.is_f && y.is_f && x.f.len() == lanes && y.f.len() == lanes {
                        o.extend(x.f.iter().zip(&y.f).map(|(&p, &q)| p * q));
                    } else if x.is_f && y.is_f && x.f.len() == 1 && y.f.len() == lanes {
                        let p = x.f[0];
                        o.extend(y.f.iter().map(|&q| p * q));
                    } else if x.is_f && y.is_f && y.f.len() == 1 && x.f.len() == lanes {
                        let q = y.f[0];
                        o.extend(x.f.iter().map(|&p| p * q));
                    } else {
                        o.extend((0..lanes).map(|l| x.get_f(l) * y.get_f(l)));
                    }
                    mem::swap(&mut self.pool[*dst as usize], &mut out);
                    self.t0 = out;
                    pc += 1;
                }
                Instr::Call { dst, f, args } => {
                    self.issue(if f.is_special() {
                        CYCLE_SPECIAL
                    } else {
                        CYCLE_BASIC
                    });
                    self.count_flops(1.0);
                    let lanes = args
                        .iter()
                        .map(|&s| self.pool[s as usize].len())
                        .max()
                        .unwrap_or(1);
                    let all_int = args.iter().all(|&s| !self.pool[s as usize].is_f);
                    let mut out = mem::take(&mut self.t0);
                    if all_int && f.int_capable() {
                        let pool = &self.pool;
                        let g = |k: usize, l: usize| pool[args[k] as usize].get_i(l);
                        let o = out.begin_i();
                        for l in 0..lanes {
                            o.push(match f {
                                Builtin::Min => g(0, l).min(g(1, l)),
                                Builtin::Max => g(0, l).max(g(1, l)),
                                Builtin::Abs => g(0, l).abs(),
                                Builtin::Clamp => {
                                    g(0, l).clamp(g(1, l).min(g(2, l)), g(2, l).max(g(1, l)))
                                }
                                _ => unreachable!(),
                            });
                        }
                    } else if let ([x], false) = (&args[..], f.int_capable() || *f == Builtin::Pow)
                    {
                        // One-argument builtin: the operator is resolved
                        // once, outside the lane loop.
                        let x = &self.pool[*x as usize];
                        let o = out.begin_f();
                        let x = (0..lanes).map(|l| x.get_f(l));
                        match f {
                            Builtin::Sqrt => o.extend(x.map(|v| v.max(0.0).sqrt())),
                            Builtin::Rsqrt => {
                                o.extend(x.map(|v| 1.0 / v.max(f64::MIN_POSITIVE).sqrt()))
                            }
                            Builtin::Fabs => o.extend(x.map(f64::abs)),
                            Builtin::Floor => o.extend(x.map(f64::floor)),
                            Builtin::Exp => o.extend(x.map(f64::exp)),
                            Builtin::Log => o.extend(x.map(|v| v.max(f64::MIN_POSITIVE).ln())),
                            Builtin::Sin => o.extend(x.map(f64::sin)),
                            Builtin::Cos => o.extend(x.map(f64::cos)),
                            Builtin::Tan => o.extend(x.map(f64::tan)),
                            _ => unreachable!("{f:?} takes two or more arguments"),
                        }
                    } else {
                        let pool = &self.pool;
                        let g = |k: usize, l: usize| pool[args[k] as usize].get_f(l);
                        let o = out.begin_f();
                        for l in 0..lanes {
                            o.push(match f {
                                Builtin::Sqrt => g(0, l).max(0.0).sqrt(),
                                Builtin::Rsqrt => 1.0 / g(0, l).max(f64::MIN_POSITIVE).sqrt(),
                                Builtin::Fabs | Builtin::Abs => g(0, l).abs(),
                                Builtin::Floor => g(0, l).floor(),
                                Builtin::Exp => g(0, l).exp(),
                                Builtin::Log => g(0, l).max(f64::MIN_POSITIVE).ln(),
                                Builtin::Sin => g(0, l).sin(),
                                Builtin::Cos => g(0, l).cos(),
                                Builtin::Tan => g(0, l).tan(),
                                Builtin::Pow => g(0, l).powf(g(1, l)),
                                Builtin::Min => g(0, l).min(g(1, l)),
                                Builtin::Max => g(0, l).max(g(1, l)),
                                Builtin::Clamp => {
                                    let (lo, hi) = (g(1, l).min(g(2, l)), g(2, l).max(g(1, l)));
                                    g(0, l).clamp(lo, hi)
                                }
                            });
                        }
                    }
                    mem::swap(&mut self.pool[*dst as usize], &mut out);
                    self.t0 = out;
                    pc += 1;
                }
                Instr::Cast { dst, src, to } => {
                    self.issue(CYCLE_BASIC);
                    let mut out = mem::take(&mut self.t0);
                    out.copy_from(&self.pool[*src as usize]);
                    out.coerce(*to);
                    mem::swap(&mut self.pool[*dst as usize], &mut out);
                    self.t0 = out;
                    pc += 1;
                }
                Instr::RaceCheck { name } => {
                    if self.lanes > 1 {
                        return Err(self.fail(line, name.to_string()));
                    }
                    pc += 1;
                }
                Instr::Assign {
                    slot,
                    src,
                    op,
                    fused,
                } => {
                    self.assign(*slot as usize, *src as usize, *op, *fused);
                    pc += 1;
                }
                Instr::AssignJump {
                    slot,
                    src,
                    op,
                    fused,
                    to,
                } => {
                    self.assign(*slot as usize, *src as usize, *op, *fused);
                    pc = *to as usize;
                }
                Instr::GlobalLoad {
                    dst,
                    pidx,
                    idx,
                    site,
                    cache,
                } => {
                    let mut out = mem::take(&mut self.t0);
                    self.global_load(
                        *pidx as usize,
                        idx,
                        *site as usize,
                        *cache as usize,
                        &mut out,
                        line,
                    )?;
                    mem::swap(&mut self.pool[*dst as usize], &mut out);
                    self.t0 = out;
                    pc += 1;
                }
                Instr::GlobalAssign {
                    pidx,
                    idx,
                    src,
                    rmw,
                    store_site,
                } => {
                    let pidx = *pidx as usize;
                    let src = *src as usize;
                    let mut out = mem::take(&mut self.t0);
                    let (c, uflat, from_out) = match rmw {
                        Some((op, load_site, cache)) => {
                            // Addresses are computed once and shared by the
                            // load and store accountings, like the tree
                            // walker.
                            let mut old = mem::take(&mut self.t1);
                            let (c, uflat) = self.global_load(
                                pidx,
                                idx,
                                *load_site as usize,
                                *cache as usize,
                                &mut old,
                                line,
                            )?;
                            let rf = self.pool[src].is_f;
                            self.bin_stats(*op, old.is_f, rf);
                            bin_compute(*op, &old, &self.pool[src], &mut out);
                            self.t1 = old;
                            (c, uflat, true)
                        }
                        None => match self.uniform_flat(pidx, idx, line)? {
                            Some(flat) => (self.uniform_coalesce(), Some(flat), false),
                            None => (self.lane_addresses(pidx, idx, line)?, None, false),
                        },
                    };
                    self.account(*store_site as usize, None, c);
                    {
                        let v: &VBuf = if from_out { &out } else { &self.pool[src] };
                        let ArgValue::Array(arr) = &mut self.args[pidx] else {
                            unreachable!()
                        };
                        let mut dst = arr.data.stores();
                        if let Some(a) = uflat {
                            // Lane-uniform address: the active lanes store
                            // in order to one address, so only the last
                            // active lane's value survives.
                            let lane = self.mask.iter().rposition(|&m| m).unwrap_or(0);
                            if v.is_f {
                                dst.store_f(a, v.get_f(lane));
                            } else {
                                dst.store_i(a, v.get_i(lane));
                            }
                        } else {
                            let full = self.addrs.len() == self.lanes;
                            for (lane, &a) in self.addrs.iter().enumerate() {
                                if full && !self.mask[lane] {
                                    continue;
                                }
                                if v.is_f {
                                    dst.store_f(a, v.get_f(lane));
                                } else {
                                    dst.store_i(a, v.get_i(lane));
                                }
                            }
                        }
                    }
                    self.t0 = out;
                    pc += 1;
                }
                Instr::DimCheck { src, name } => {
                    let v = self.uniform_int(*src, line, "array dimension")?;
                    if v <= 0 {
                        return Err(self.fail(line, format!("array `{name}` has dim {v} <= 0")));
                    }
                    self.dim_stack.push(v);
                    pc += 1;
                }
                Instr::ScratchDecl {
                    arr,
                    ndims,
                    ty,
                    shared,
                } => {
                    let nd = *ndims as usize;
                    let start = self.dim_stack.len() - nd;
                    let lanes = if *shared { 1 } else { self.lanes.max(1) };
                    let a = &mut self.arrays[*arr as usize];
                    a.dims.clear();
                    a.dims
                        .extend(self.dim_stack.drain(start..).map(|v| v as u64));
                    a.shared = *shared;
                    a.lanes = lanes;
                    a.elem = *ty;
                    let n: u64 = a.dims.iter().product();
                    let slots = if *shared {
                        n as usize
                    } else {
                        n as usize * lanes
                    };
                    a.fdata.clear();
                    a.idata.clear();
                    match ty {
                        ElemTy::Float => a.fdata.resize(slots, 0.0),
                        ElemTy::Int => a.idata.resize(slots, 0),
                    }
                    pc += 1;
                }
                Instr::ScratchLoad { dst, arr, idx } => {
                    let ai = *arr as usize;
                    self.scratch_stats(self.arrays[ai].shared);
                    let mut out = mem::take(&mut self.t0);
                    let mut flats = mem::take(&mut self.flats);
                    let r = load_scratch(
                        &self.arrays[ai],
                        &self.pool,
                        idx,
                        self.lane_ctx(),
                        &mut flats,
                        &mut out,
                        line,
                    );
                    self.flats = flats;
                    r?;
                    mem::swap(&mut self.pool[*dst as usize], &mut out);
                    self.t0 = out;
                    pc += 1;
                }
                Instr::ScratchStore { arr, idx, src } => {
                    let ai = *arr as usize;
                    self.scratch_stats(self.arrays[ai].shared);
                    let cx = LaneCtx {
                        lanes: self.lanes,
                        active: self.active,
                        mask: &self.mask,
                    };
                    store_scratch(
                        &mut self.arrays[ai],
                        &self.pool,
                        idx,
                        &self.pool[*src as usize],
                        cx,
                        &mut self.flats,
                        line,
                    )?;
                    pc += 1;
                }
                Instr::ScratchRmw { arr, idx, rhs, op } => {
                    let (ai, op) = (*arr as usize, *op);
                    let src = match *rhs {
                        Rhs::Slot(s) => Some(s as usize),
                        Rhs::Mul(a, b) => {
                            let (a, b) = (a as usize, b as usize);
                            if self.scratch_fma_lanes(ai, idx, a, b, op, line)? {
                                pc += 1;
                                continue;
                            }
                            // Otherwise the multiply it replaces, into
                            // `prod`, then the read-modify-write below.
                            self.mul_prod(a, b);
                            None
                        }
                    };
                    if !self.scratch_rmw_lanes(ai, idx, src, op, line)? {
                        // Any other shape: exactly the `ScratchLoad`, `Bin`
                        // and `ScratchStore` it replaces (lanes may share a
                        // slot, so every old value is read before any
                        // store).
                        let shared = self.arrays[ai].shared;
                        self.scratch_stats(shared);
                        let mut old = mem::take(&mut self.t1);
                        let mut flats = mem::take(&mut self.flats);
                        let r = load_scratch(
                            &self.arrays[ai],
                            &self.pool,
                            idx,
                            self.lane_ctx(),
                            &mut flats,
                            &mut old,
                            line,
                        );
                        self.flats = flats;
                        r?;
                        let rf = src.map_or(&self.prod, |s| &self.pool[s]).is_f;
                        self.bin_stats(op, old.is_f, rf);
                        let mut out = mem::take(&mut self.t0);
                        let rhs = src.map_or(&self.prod, |s| &self.pool[s]);
                        bin_compute(op, &old, rhs, &mut out);
                        self.scratch_stats(shared);
                        let cx = LaneCtx {
                            lanes: self.lanes,
                            active: self.active,
                            mask: &self.mask,
                        };
                        store_scratch(
                            &mut self.arrays[ai],
                            &self.pool,
                            idx,
                            &out,
                            cx,
                            &mut self.flats,
                            line,
                        )?;
                        self.t0 = out;
                        self.t1 = old;
                    }
                    pc += 1;
                }
                Instr::IfCond {
                    src,
                    predicated,
                    then_empty,
                    else_at,
                } => {
                    let src = *src as usize;
                    let go = match self.pool[src].uniform() {
                        Some(c) => self.if_uniform(c.truthy(), *predicated, *then_empty),
                        None => self.if_varying(
                            |pool, lanes, cm| truth_lanes(&pool[src], lanes, cm),
                            *predicated,
                            *then_empty,
                        ),
                    };
                    pc = if go { pc + 1 } else { *else_at as usize };
                }
                Instr::IfTest {
                    a,
                    b,
                    op,
                    predicated,
                    then_empty,
                    else_at,
                } => {
                    let go = match self.test_uniform(*a, *b, *op) {
                        Some(c) => self.if_uniform(c, *predicated, *then_empty),
                        None => self.if_varying(
                            |pool, lanes, cm| {
                                test_lanes(*op, &pool[*a as usize], &pool[*b as usize], lanes, cm)
                            },
                            *predicated,
                            *then_empty,
                        ),
                    };
                    pc = if go { pc + 1 } else { *else_at as usize };
                }
                Instr::IfElse { end_at } => {
                    let d = self.if_depth - 1;
                    if self.if_stack[d].any_not {
                        if self.if_stack[d].cond_uniform.is_none() {
                            // (A uniform-false condition leaves the saved
                            // mask current: the then branch never ran.)
                            let fr = &mut self.if_stack[d];
                            if !fr.dirty {
                                // Then branch left the mask untouched, so
                                // the current mask *is* the saved mask.
                                fr.saved.clear();
                                fr.saved.extend_from_slice(&self.mask);
                                fr.dirty = true;
                            }
                            for ((m, &s), &c) in self.mask.iter_mut().zip(&fr.saved).zip(&fr.cmask)
                            {
                                *m = s && !c;
                            }
                            self.refresh();
                        }
                        pc += 1;
                    } else {
                        pc = *end_at as usize;
                    }
                }
                Instr::IfEnd => {
                    let d = self.if_depth - 1;
                    if self.if_stack[d].dirty {
                        self.mask.copy_from_slice(&self.if_stack[d].saved);
                        self.refresh();
                    }
                    self.if_depth = d;
                    pc += 1;
                }
                Instr::ForEnter => {
                    let d = self.for_depth;
                    if self.for_stack.len() == d {
                        self.for_stack.push(ForFrame::default());
                    }
                    let fr = &mut self.for_stack[d];
                    fr.guard = 0;
                    // The entry mask is snapshotted lazily, on the first
                    // narrowing test — loops with lane-uniform trip counts
                    // never touch the mask at all.
                    fr.dirty = false;
                    self.for_depth += 1;
                    pc += 1;
                }
                Instr::ForGuard => {
                    self.for_guard(line)?;
                    pc += 1;
                }
                Instr::ForCond { src, exit } => {
                    let src = *src as usize;
                    let go = match self.pool[src].uniform() {
                        Some(c) => self.for_uniform(c.truthy()),
                        None => {
                            self.for_varying(|pool, lanes, cm| truth_lanes(&pool[src], lanes, cm))
                        }
                    };
                    pc = if go { pc + 1 } else { *exit as usize };
                }
                Instr::ForTest {
                    a,
                    b,
                    op,
                    guard,
                    exit,
                } => {
                    if *guard {
                        self.for_guard(line)?;
                    }
                    let go = match self.test_uniform(*a, *b, *op) {
                        Some(c) => self.for_uniform(c),
                        None => self.for_varying(|pool, lanes, cm| {
                            test_lanes(*op, &pool[*a as usize], &pool[*b as usize], lanes, cm)
                        }),
                    };
                    pc = if go { pc + 1 } else { *exit as usize };
                }
                Instr::ForExit => {
                    let d = self.for_depth - 1;
                    if self.for_stack[d].dirty {
                        self.mask.copy_from_slice(&self.for_stack[d].saved);
                        self.refresh();
                    }
                    self.for_depth = d;
                    pc += 1;
                }
                Instr::Jump { to } => {
                    pc = *to as usize;
                }
                Instr::FailNoCond => {
                    return Err(
                        self.fail(line, "for loop without condition never terminates".into())
                    );
                }
                Instr::ForeachVec {
                    src,
                    var,
                    end,
                    split,
                } => {
                    if self.lanes != 1 {
                        return Err(self.fail(line, "foreach inside a vectorized foreach".into()));
                    }
                    let n = self.uniform_int(*src, line, "foreach count")?;
                    if n < 0 {
                        return Err(self.fail(line, format!("foreach count {n} < 0")));
                    }
                    let n = n as u64;
                    if n == 0 {
                        pc = *end as usize;
                        continue;
                    }
                    let gs = self.group as u64;
                    let chunks = n.div_ceil(gs);
                    let run_chunks = if self.sampled {
                        chunks.min(SAMPLED_ITERS)
                    } else {
                        chunks
                    };
                    let d = self.fe_depth;
                    if self.fe_stack.len() == d {
                        self.fe_stack.push(FeFrame::default());
                    }
                    let outer_scale = self.scale;
                    {
                        let fr = &mut self.fe_stack[d];
                        fr.outer_scale = outer_scale;
                        fr.n = n;
                        fr.idx = 0;
                        fr.run = run_chunks;
                        fr.var = *var;
                        fr.saved_lanes = self.lanes;
                        fr.saved_mask.clear();
                        fr.saved_mask.extend_from_slice(&self.mask);
                    }
                    self.fe_depth += 1;
                    if run_chunks < chunks {
                        self.scale = outer_scale * chunks as f64 / run_chunks as f64;
                        if let Some(h) = &mut self.helper {
                            h.dyadic &= is_dyadic(self.scale);
                        }
                    }
                    self.enter_chunk(d);
                    if *split && d == 0 && run_chunks == 2 {
                        if let Some(next) = self.split_loop::<COUNT>(pc, counts)? {
                            pc = next;
                            continue;
                        }
                    }
                    pc += 1;
                }
                Instr::ForeachVecNext { head } => {
                    let d = self.fe_depth - 1;
                    if d == self.halt {
                        return Ok(pc);
                    }
                    self.fe_stack[d].idx += 1;
                    if self.fe_stack[d].idx < self.fe_stack[d].run {
                        self.enter_chunk(d);
                        pc = *head as usize + 1;
                    } else {
                        let fr = &self.fe_stack[d];
                        self.scale = fr.outer_scale;
                        self.lanes = fr.saved_lanes;
                        self.mask.clear();
                        self.mask.extend_from_slice(&fr.saved_mask);
                        self.refresh();
                        self.fe_depth = d;
                        pc += 1;
                    }
                }
                Instr::ForeachSeq {
                    src,
                    var,
                    end,
                    split,
                } => {
                    if self.lanes != 1 {
                        return Err(self.fail(line, "foreach inside a vectorized foreach".into()));
                    }
                    let n = self.uniform_int(*src, line, "foreach count")?;
                    if n < 0 {
                        return Err(self.fail(line, format!("foreach count {n} < 0")));
                    }
                    let n = n as u64;
                    if n == 0 {
                        pc = *end as usize;
                        continue;
                    }
                    let run = if self.sampled {
                        n.min(SAMPLED_ITERS)
                    } else {
                        n
                    };
                    let d = self.fe_depth;
                    if self.fe_stack.len() == d {
                        self.fe_stack.push(FeFrame::default());
                    }
                    let outer_scale = self.scale;
                    {
                        let fr = &mut self.fe_stack[d];
                        fr.outer_scale = outer_scale;
                        fr.n = n;
                        fr.idx = 0;
                        fr.run = run;
                        fr.var = *var;
                        fr.saved_lanes = self.lanes;
                    }
                    self.fe_depth += 1;
                    if run < n {
                        self.scale = outer_scale * n as f64 / run as f64;
                        if let Some(h) = &mut self.helper {
                            h.dyadic &= is_dyadic(self.scale);
                        }
                    }
                    self.pool[*var as usize].set_uniform_i(0);
                    if *split && d == 0 && run == 2 {
                        if let Some(next) = self.split_loop::<COUNT>(pc, counts)? {
                            pc = next;
                            continue;
                        }
                    }
                    pc += 1;
                }
                Instr::ForeachSeqNext { head } => {
                    let d = self.fe_depth - 1;
                    if d == self.halt {
                        return Ok(pc);
                    }
                    self.fe_stack[d].idx += 1;
                    if self.fe_stack[d].idx < self.fe_stack[d].run {
                        let (it, var) = (self.fe_stack[d].idx, self.fe_stack[d].var);
                        self.pool[var as usize].set_uniform_i(it as i64);
                        pc = *head as usize + 1;
                    } else {
                        self.scale = self.fe_stack[d].outer_scale;
                        self.fe_depth = d;
                        pc += 1;
                    }
                }
                Instr::Barrier => {
                    self.issue(CYCLE_BARRIER);
                    self.st.barriers += self.scale;
                    pc += 1;
                }
                Instr::ParamDim { src } => {
                    let v = self.uniform_int(*src, line, "array dimension")?;
                    self.dim_stack.push(v);
                    pc += 1;
                }
                Instr::ValidateDims { pidx, ndims, name } => {
                    let nd = *ndims as usize;
                    let start = self.dim_stack.len() - nd;
                    let expect: Vec<u64> =
                        self.dim_stack.drain(start..).map(|v| v as u64).collect();
                    let ArgValue::Array(arr) = &self.args[*pidx as usize] else {
                        unreachable!()
                    };
                    if *arr.dims != *expect {
                        return Err(self.fail(
                            line,
                            format!(
                                "argument `{name}`: declared dims {expect:?} but buffer has {:?}",
                                arr.dims
                            ),
                        ));
                    }
                    pc += 1;
                }
                Instr::ResetStats => {
                    // Prelude dim validation polluted the counters; zero
                    // everything. The L1 cache model deliberately persists,
                    // matching the tree walker.
                    self.st = KernelStats::default();
                    for a in &mut self.acc {
                        *a = SiteAcc::default();
                    }
                    pc += 1;
                }
                Instr::Fail { msg } => {
                    return Err(self.fail(line, msg.to_string()));
                }
                Instr::Halt => return Ok(pc),
            }
        }
    }
}

/// A compiled program run under an explicit [`Split`] policy, for tests
/// and measurements that must take the split (or the one-thread) path on
/// any host. With `count`, also the dispatch counts (else empty): element
/// `pc` is how often `prog.instrs[pc]` ran; every launch [`execute`] makes
/// takes the uncounted loop. In every case, what became of the launch's
/// split loops.
#[doc(hidden)]
pub fn execute_with(
    prog: &Program,
    args: Vec<ArgValue>,
    opts: &ExecOptions,
    split: Split,
    count: bool,
) -> Result<(ExecResult, Vec<u64>, SplitLog), ExecError> {
    if count {
        let mut counts = vec![0; prog.instrs.len()];
        let (r, log) = launch::<true>(prog, args, opts, split, &mut counts)?;
        Ok((r, counts, log))
    } else {
        let (r, log) = launch::<false>(prog, args, opts, split, &mut [])?;
        Ok((r, Vec::new(), log))
    }
}

fn launch<const COUNT: bool>(
    prog: &Program,
    args: Vec<ArgValue>,
    opts: &ExecOptions,
    split: Split,
    counts: &mut [u64],
) -> Result<(ExecResult, SplitLog), ExecError> {
    if args.len() != prog.params.len() {
        return Err(ExecError {
            line: 1,
            message: format!(
                "kernel `{}` takes {} arguments, got {}",
                prog.kernel_name,
                prog.params.len(),
                args.len()
            ),
        });
    }
    let mut pool: Vec<VBuf> = vec![VBuf::default(); prog.n_slots];
    for &(slot, v) in &prog.consts {
        pool[slot as usize].set(v);
    }
    for (p, a) in prog.params.iter().zip(&args) {
        match (p.is_array, a) {
            (false, ArgValue::Int(v)) => {
                pool[p.slot.expect("scalar param has slot") as usize].set_uniform_i(*v);
            }
            (false, ArgValue::Float(v)) => {
                pool[p.slot.expect("scalar param has slot") as usize].set_uniform_f(*v);
            }
            (true, ArgValue::Array(arr)) => {
                if arr.rank() != p.rank {
                    return Err(ExecError {
                        line: 1,
                        message: format!(
                            "argument `{}`: rank {} expected, got {}",
                            p.name,
                            p.rank,
                            arr.rank()
                        ),
                    });
                }
            }
            _ => {
                return Err(ExecError {
                    line: 1,
                    message: format!("argument `{}` kind mismatch", p.name),
                })
            }
        }
    }
    let mut vm = Vm {
        prog,
        args,
        pool,
        arrays: vec![ScratchArr::default(); prog.n_arrays],
        lanes: 1,
        mask: vec![true],
        active: 1,
        warps: 1,
        simd: opts.simd_width.max(1),
        group: opts.group_size.max(1),
        sampled: opts.sampled,
        scale: 1.0,
        st: KernelStats::default(),
        acc: vec![SiteAcc::default(); prog.sites.len()],
        caches: vec![L1Site::default(); prog.n_caches],
        seg: Vec::new(),
        addrs: Vec::new(),
        flats: Vec::new(),
        dim_stack: Vec::new(),
        t0: VBuf::default(),
        t1: VBuf::default(),
        prod: VBuf::default(),
        if_stack: Vec::new(),
        if_depth: 0,
        for_stack: Vec::new(),
        for_depth: 0,
        fe_stack: Vec::new(),
        fe_depth: 0,
        split,
        halt: NO_HALT,
        helper: None,
        log: SplitLog::default(),
    };
    vm.refresh();
    vm.run::<COUNT>(0, counts)?;
    let mut stats = mem::take(&mut vm.st);
    for (i, a) in vm.acc.iter().enumerate() {
        if a.touched {
            stats.sites.insert(prog.sites[i].clone(), a.s.clone());
        }
    }
    let result = ExecResult {
        args: vm.args,
        stats,
    };
    Ok((result, vm.log))
}

/// Compile and execute a checked kernel on the VM — the one execution
/// route every launch takes. Observably identical to the reference
/// [`crate::interp::execute`]. Entry validation (argument count, kinds,
/// ranks) mirrors the tree walker's; declared-dim validation runs in the
/// program prelude.
pub fn execute(
    ck: &CheckedKernel,
    args: Vec<ArgValue>,
    opts: &ExecOptions,
) -> Result<ExecResult, ExecError> {
    let prog = compile_program(ck);
    launch::<false>(&prog, args, opts, Split::Auto, &mut []).map(|(r, _)| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parse::parse;
    use crate::stats::SiteKey;
    use crate::value::ArrayArg;
    use cashmere_hwdesc::standard_hierarchy;

    /// Run a kernel on both engines and require identical outcomes:
    /// bit-identical stats (including per-site records) and identical
    /// argument buffers, or the exact same error.
    fn diff(src: &str, args: Vec<ArgValue>, opts: &ExecOptions) {
        let h = standard_hierarchy();
        let k = parse(src).expect("parse");
        let ck = check(&k, &h).expect("check");
        let t = crate::interp::execute(&ck, args.clone(), opts);
        let v = execute(&ck, args, opts);
        match (t, v) {
            (Ok(t), Ok(v)) => {
                assert_eq!(
                    format!("{:?}", t.stats),
                    format!("{:?}", v.stats),
                    "stats mismatch"
                );
                for (a, b) in [
                    (t.stats.issue_cycles, v.stats.issue_cycles),
                    (t.stats.flops, v.stats.flops),
                    (t.stats.global_bytes, v.stats.global_bytes),
                    (t.stats.ideal_global_bytes, v.stats.ideal_global_bytes),
                    (t.stats.local_bytes, v.stats.local_bytes),
                    (t.stats.issue_slots, v.stats.issue_slots),
                    (t.stats.active_slots, v.stats.active_slots),
                    (t.stats.total_threads, v.stats.total_threads),
                    (t.stats.branch_events, v.stats.branch_events),
                    (t.stats.divergent_branches, v.stats.divergent_branches),
                    (t.stats.barriers, v.stats.barriers),
                ] {
                    assert_eq!(a.to_bits(), b.to_bits(), "counter bits differ: {a} vs {b}");
                }
                assert_eq!(t.args, v.args, "argument buffers mismatch");
            }
            (Err(te), Err(ve)) => {
                assert_eq!(te, ve, "errors differ");
            }
            (t, v) => panic!("engines disagree: tree={t:?} vm={v:?}"),
        }
    }

    /// Array ranks past the inline capacity of `ArrayArg::dims` launch
    /// like any other: both engines agree and the store lands.
    #[test]
    fn rank_five_arrays_run_on_both_engines() {
        let src = "perfect void k(int n, float[n,2,1,2,1] a) {
  foreach (int i in n threads) {
    a[i,1,0,1,0] = a[i,0,0,0,0] + 2.0;
  }
}";
        let args = || {
            vec![
                ArgValue::Int(3),
                ArgValue::Array(ArrayArg::float(
                    &[3, 2, 1, 2, 1],
                    (0..12).map(f64::from).collect(),
                )),
            ]
        };
        diff(src, args(), &ExecOptions::default());
        let h = standard_hierarchy();
        let ck = check(&parse(src).unwrap(), &h).unwrap();
        let r = execute(&ck, args(), &ExecOptions::default()).unwrap();
        let out = r.args[1].clone().array();
        assert_eq!(
            out.as_f64()[out.flat_index(&[2, 1, 0, 1, 0]) as usize],
            10.0
        );
    }

    fn sampled() -> ExecOptions {
        ExecOptions {
            sampled: true,
            ..ExecOptions::default()
        }
    }

    const SAXPY: &str = "perfect void saxpy(int n, float alpha, float[n] y, float[n] x) {
  foreach (int i in n threads) {
    y[i] += alpha * x[i];
  }
}";

    fn saxpy_args(n: u64) -> Vec<ArgValue> {
        vec![
            ArgValue::Int(n as i64),
            ArgValue::Float(2.0),
            ArgValue::Array(ArrayArg::float(
                &[n],
                (0..n).map(|i| 1.0 + i as f64 * 0.25).collect(),
            )),
            ArgValue::Array(ArrayArg::float(&[n], (0..n).map(|i| i as f64).collect())),
        ]
    }

    #[test]
    fn saxpy_matches_tree() {
        diff(SAXPY, saxpy_args(100), &ExecOptions::default());
        diff(SAXPY, saxpy_args(1000), &sampled());
    }

    #[test]
    fn saxpy_phantom_sampled_matches_tree() {
        let n = 1_000_000u64;
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Float(2.0),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
        ];
        diff(SAXPY, args, &sampled());
    }

    #[test]
    fn matmul_matches_tree() {
        let (n, m, p) = (7u64, 5u64, 9u64);
        let a: Vec<f64> = (0..n * p).map(|i| (i % 13) as f64 * 0.5).collect();
        let b: Vec<f64> = (0..p * m).map(|i| (i % 7) as f64 - 3.0).collect();
        let src =
            "perfect void matmul(int n, int m, int p, float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      float sum = 0.0;
      for (int k = 0; k < p; k++) { sum += a[i,k] * b[k,j]; }
      c[i,j] += sum;
    }
  }
}";
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Int(m as i64),
            ArgValue::Int(p as i64),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[n, m])),
            ArgValue::Array(ArrayArg::float(&[n, p], a)),
            ArgValue::Array(ArrayArg::float(&[p, m], b)),
        ];
        diff(src, args.clone(), &ExecOptions::default());
        diff(src, args, &sampled());
    }

    #[test]
    fn divergent_branches_match_tree() {
        let src = "perfect void t(int n, float[n] a) {
  foreach (int i in n threads) {
    if (i % 2 == 0) { a[i] = 1.0; } else { a[i] = 2.0; }
  }
}";
        let args = vec![
            ArgValue::Int(64),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[64])),
        ];
        diff(src, args, &ExecOptions::default());
    }

    #[test]
    fn local_tiling_with_barrier_matches_tree() {
        let src = "gpu void rev(int n, float[n] a) {
  foreach (int b in n / 64 blocks) {
    local float tile[64];
    foreach (int t in 64 threads) {
      tile[t] = a[b * 64 + t];
      barrier();
      a[b * 64 + t] = tile[63 - t];
    }
  }
}";
        let n = 128u64;
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::float(&[n], (0..n).map(|i| i as f64).collect())),
        ];
        let opts = ExecOptions {
            group_size: 64,
            ..ExecOptions::default()
        };
        diff(src, args, &opts);
    }

    #[test]
    fn private_arrays_match_tree() {
        let src = "perfect void t(int n, float[n] out) {
  foreach (int i in n threads) {
    float acc[2];
    acc[0] = (float) i;
    acc[1] = acc[0] * 2.0;
    out[i] = acc[1];
  }
}";
        let args = vec![
            ArgValue::Int(8),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[8])),
        ];
        diff(src, args, &ExecOptions::default());
    }

    #[test]
    fn varying_trip_counts_match_tree() {
        let src = "perfect void t(int n, float[n] out) {
  foreach (int i in n threads) {
    float s = 0.0;
    for (int k = 0; k < i; k++) { s += 1.0; }
    out[i] = s;
  }
}";
        let args = vec![
            ArgValue::Int(40),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[40])),
        ];
        diff(src, args, &ExecOptions::default());
    }

    #[test]
    fn strided_and_broadcast_match_tree() {
        let strided = "perfect void t(int n, float[n] a) {
  foreach (int i in n / 16 threads) {
    a[i * 16] = 1.0;
  }
}";
        diff(
            strided,
            vec![
                ArgValue::Int(1024),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[1024])),
            ],
            &ExecOptions::default(),
        );
        let broadcast = "perfect void t(int n, float[n] a, float[n] b) {
  foreach (int i in n threads) {
    b[i] = a[0];
  }
}";
        diff(
            broadcast,
            vec![
                ArgValue::Int(64),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[64])),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[64])),
            ],
            &ExecOptions::default(),
        );
    }

    #[test]
    fn integer_bit_ops_match_tree() {
        let src = "perfect void t(int n, int[n] s) {
  foreach (int i in n threads) {
    int x = s[i];
    x = x ^ (x << 13);
    x = x ^ (x >> 7);
    x = x ^ (x << 17);
    s[i] = x & 2147483647;
  }
}";
        let args = vec![
            ArgValue::Int(4),
            ArgValue::Array(ArrayArg::int(&[4], vec![1, 2, 3, 4])),
        ];
        diff(src, args, &ExecOptions::default());
    }

    #[test]
    fn builtins_match_tree() {
        let src = "perfect void t(int n, float[n] a, int[n] b) {
  foreach (int i in n threads) {
    a[i] = sqrt(a[i]) + exp(a[i] * 0.01) + pow(a[i], 2.0) + clamp(a[i], 0.5, 2.5);
    b[i] = min(b[i], 7) + max(b[i], 2) + abs(b[i] - 5) + clamp(b[i], 1, 6);
  }
}";
        let n = 33u64;
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::float(
                &[n],
                (0..n).map(|i| i as f64 * 0.3 - 2.0).collect(),
            )),
            ArgValue::Array(ArrayArg::int(&[n], (0..n).map(|i| i as i64 - 9).collect())),
        ];
        diff(src, args, &ExecOptions::default());
    }

    #[test]
    fn global_and_scratch_rmw_match_tree() {
        let src = "gpu void t(int n, float[n] a, int[n] c) {
  foreach (int b in 1 blocks) {
    local float acc[4];
    foreach (int i in n threads) {
      acc[i % 4] += a[i];
      a[i] *= 1.5;
      a[i] -= 0.25;
      a[i] /= 2.0;
      c[i] += i;
      acc[i % 4] = acc[i % 4] / 2.0;
    }
  }
}";
        let n = 32u64;
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::float(
                &[n],
                (0..n).map(|i| i as f64 * 0.5).collect(),
            )),
            ArgValue::Array(ArrayArg::int(&[n], (0..n).map(|i| i as i64).collect())),
        ];
        diff(src, args, &ExecOptions::default());
    }

    #[test]
    fn dynamic_retyping_matches_tree() {
        // Assignments do not coerce to the declared type at runtime — the
        // VM must replicate the tree walker's dynamic typing exactly.
        let src = "perfect void t(int n, float[n] a) {
  foreach (int i in n threads) {
    float x = 0.0;
    x = 5;
    x = x + i;
    a[i] = x;
  }
}";
        let args = vec![
            ArgValue::Int(16),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[16])),
        ];
        diff(src, args, &ExecOptions::default());
    }

    #[test]
    fn errors_match_tree() {
        // Data race.
        let race = "gpu void t(int n, float[n] a) {
  foreach (int b in 1 blocks) {
    float s = 0.0;
    foreach (int t in 64 threads) {
      s = (float) t;
      a[t] = s;
    }
  }
}";
        diff(
            race,
            vec![
                ArgValue::Int(64),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[64])),
            ],
            &ExecOptions::default(),
        );
        // Out of bounds.
        let oob = "perfect void t(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i + 1] = 0.0;
  }
}";
        diff(
            oob,
            vec![
                ArgValue::Int(4),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[4])),
            ],
            &ExecOptions::default(),
        );
        // Wrong argument count / dims (single array param: deterministic).
        let saxpy_short = vec![ArgValue::Int(4)];
        diff(SAXPY, saxpy_short, &ExecOptions::default());
        let oob_dims = vec![
            ArgValue::Int(8),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[4])),
        ];
        diff(oob, oob_dims, &ExecOptions::default());
        // Negative foreach count.
        let neg = "perfect void t(int n, float[n] a) {
  foreach (int i in n - 10 threads) {
    a[i] = 0.0;
  }
}";
        diff(
            neg,
            vec![
                ArgValue::Int(4),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[4])),
            ],
            &ExecOptions::default(),
        );
    }

    fn float_args(n: u64) -> Vec<ArgValue> {
        vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[n])),
            ArgValue::Array(ArrayArg::float(
                &[n],
                // Not f32-representable: stores must round.
                (0..n).map(|i| (i as f64 * 0.3) - 7.1).collect(),
            )),
        ]
    }

    /// Full, sampled and narrow-warp runs of one kernel on both engines.
    fn diff_modes(src: &str, args: Vec<ArgValue>) {
        diff(src, args.clone(), &ExecOptions::default());
        diff(src, args.clone(), &sampled());
        let narrow = ExecOptions {
            simd_width: 8,
            group_size: 16,
            sampled: false,
        };
        diff(src, args, &narrow);
    }

    #[test]
    fn loop_bound_from_variable_matches_tree() {
        // `ForTest` against a uniform parameter, a lane-varying local and
        // an operand computed before the test (the guard stays folded).
        let src = "perfect void t(int n, float[n] out, float[n] xs) {
  foreach (int i in n threads) {
    float s = 0.0;
    int m = i % 5 + 1;
    for (int k = 0; k < n; k++) { s += 1.0; }
    for (int k = 0; k < m; k++) { s += xs[k]; }
    for (int k = 0; k < m * 2 - 1; k += 2) { s -= 0.5; }
    for (int k = m; k >= 0; k--) { s *= 1.25; }
    out[i] = s;
  }
}";
        diff_modes(src, float_args(37));
    }

    #[test]
    fn loop_variable_written_in_body_matches_tree() {
        // Divergent writes to the loop variable make it lanes-wide; the
        // step-and-branch (`AssignJump`) then merges under the mask, and a
        // body that ends in an assignment takes the back edge itself.
        let src = "perfect void t(int n, float[n] out, float[n] xs) {
  foreach (int i in n threads) {
    float s = 0.0;
    for (int k = 0; k < 12; k++) {
      if (i % 3 == 0) { k = k + 2; }
      s += xs[k];
    }
    int j = 0;
    for (; j < i % 7;) { j = j + 1; }
    out[i] = s + (float) j;
  }
}";
        diff_modes(src, float_args(41));
    }

    #[test]
    fn scratch_rmw_under_divergent_mask_matches_tree() {
        // `ScratchRmw` on private and `local` arrays with `+=`, `-=`, `*=`
        // and `/=`: lanes own their slots in the private array and share
        // them in the local one (every old value is read before any store).
        let src = "gpu void t(int n, float[n] out, float[n] xs) {
  foreach (int b in 1 blocks) {
    local float sh[8];
    local int cnt[2];
    foreach (int i in n threads) {
      float acc[4];
      int hits[2];
      for (int r = 0; r < 4; r++) { acc[r] = 1.0; }
      if (i % 3 != 0) {
        for (int r = 0; r < 4; r++) {
          acc[r] += xs[i];
          acc[r] -= 0.5;
          acc[r] *= 1.5;
          acc[r] /= 3;
          sh[r] += xs[i];
          sh[r + 4] -= (float) i;
          sh[r] *= 0.5;
        }
        hits[0] += i;
        hits[1] -= 2;
        hits[1] *= 3;
        cnt[0] += 1;
        cnt[1] += i;
      }
      for (int r = 0; r < 4; r++) { acc[r] += xs[i]; }
      int zero = 0;
      acc[zero] += 0.25;
      out[i] = acc[i % 4] + sh[i % 8] + (float) (hits[0] + hits[1] + cnt[0] + cnt[1]);
    }
  }
}";
        let n = 48u64;
        for group in [16, 64] {
            let opts = ExecOptions {
                group_size: group,
                simd_width: 8,
                sampled: false,
            };
            diff(src, float_args(n), &opts);
        }
        diff(src, float_args(n), &ExecOptions::default());
    }

    #[test]
    fn int_immediate_meets_float_register_matches_tree() {
        // Constant registers are typed by their literal: an int immediate
        // against a float value takes the float paths, and a declaration
        // fused into its producing instruction still coerces.
        let src = "perfect void t(int n, float[n] out, float[n] xs) {
  foreach (int i in n threads) {
    float x = xs[i];
    x = x + 1;
    x = 2 * x;
    x += 3;
    x *= 2;
    float y = 3;
    float z = i * 2;
    int k = (int) x;
    int w = i / 2 + k % 3;
    if (x > 4) { y = y - 1; } else { y = y + 1; }
    if (z < 10) { z = 10; }
    out[i] = x + y + z + (float) (k + w);
  }
}";
        diff_modes(src, float_args(29));
    }

    #[test]
    fn declaration_coerces_dynamic_float_matches_tree() {
        // An `int[n]` parameter fed a float buffer loads floats at run
        // time: `int v = c[i] + 1` must truncate exactly like `Decl`.
        let src = "perfect void t(int n, int[n] c, float[n] out) {
  foreach (int i in n threads) {
    int v = c[i] + 1;
    int u = c[i] * 3 - i;
    out[i] = (float) (v + u);
  }
}";
        let n = 20u64;
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::float(
                &[n],
                (0..n).map(|i| i as f64 * 1.7 - 5.0).collect(),
            )),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[n])),
        ];
        diff(src, args, &ExecOptions::default());
    }

    #[test]
    fn divide_by_immediate_zero_matches_tree() {
        let src = "perfect void t(int n, float[n] out, float[n] xs) {
  foreach (int i in n threads) {
    int q = i / 0;
    int r = i % 0;
    int s = 7 / 0 + 7 % 0;
    float f = xs[i] / 0;
    float g = 1.0 / 0.0;
    if (i / 0 == 0) { q = q + 1; }
    if (g > 1.0) { r = r + 2; }
    out[i] = (float) (q + r + s) + f;
  }
}";
        diff_modes(src, float_args(19));
    }

    #[test]
    fn uniform_global_access_under_mask_matches_tree() {
        // Indices that agree on every active lane address one element: a
        // lanes-wide `j` that is 2 on all lanes past 4, and uniform
        // indices under divergent masks. The active lanes store in order,
        // so the last active lane's value must win.
        let src = "perfect void t(int n, float[n] out, float[n] xs) {
  foreach (int i in n threads) {
    if (i % 3 == 1) { out[0] = xs[i]; out[1] += xs[i]; }
    int j = 2;
    if (i < 5) { j = 3; }
    if (i > 3) { out[j] = xs[j] + xs[i]; }
    if (i > 6) { out[j + 1] -= xs[j] * xs[i]; }
    out[i] += xs[j];
  }
}";
        diff_modes(src, float_args(40));
    }

    #[test]
    fn runaway_loop_error_line_matches_tree() {
        // The runaway guard folded into `ForTest`, kept separate before a
        // fallible loop bound, and the condition-less loop.
        let folded = "perfect void t(int n, float[n] out, float[n] xs) {
  foreach (int i in n threads) {
    float s = 0.0;
    for (int k = 0; k < 1; k = k) {
      s += 1.0;
    }
    out[i] = s;
  }
}";
        let fallible = "perfect void t(int n, float[n] out, float[n] xs) {
  foreach (int i in n threads) {
    float s = 0.0;
    for (int k = 0; k < xs[0] + 100.0; k = k) { s += 1.0; }
    out[i] = s;
  }
}";
        let endless = "perfect void t(int n, float[n] out, float[n] xs) {
  foreach (int i in n threads) {
    float s = 0.0;
    for (int k = 0; ; k++) { s += 1.0; }
    out[i] = s;
  }
}";
        for src in [folded, fallible, endless] {
            diff(src, float_args(2), &ExecOptions::default());
        }
        let h = standard_hierarchy();
        let ck = check(&parse(folded).expect("parse"), &h).expect("check");
        let e = execute(&ck, float_args(2), &ExecOptions::default()).expect_err("runaway");
        assert_eq!(e.line, 4);
        assert_eq!(e.message, "loop exceeded 1e9 iterations (runaway?)");
    }

    #[test]
    fn fused_scratch_multiply_matches_tree() {
        // `arr[i] op= a * b` as one `ScratchRmw` carrying `Rhs::Mul`. The
        // one-pass path: a private float array, uniform index, full mask,
        // float operands with a lanes-wide product (uniform × lanes,
        // lanes × uniform, lanes × lanes, and one lane in the `blocks`
        // loop). Every other shape takes the multiply and the three steps:
        // a shared `local` target (also with one lane), a divergent mask,
        // int elements, int operands, a uniform × uniform product, `-=`,
        // `*=` and `/=`, a lanes-wide index.
        let src = "gpu void t(int n, float[n] out, float[n] xs) {
  foreach (int b in 1 blocks) {
    local float sh[4];
    float once[2];
    once[0] += xs[1] * xs[2];
    sh[1] += xs[1] * xs[2];
    foreach (int i in n threads) {
      float acc[4];
      int hits[4];
      float u = 1.5;
      float x = xs[i];
      for (int r = 0; r < 4; r++) {
        acc[r] += xs[r] * x;
        acc[r] += x * 0.75;
        acc[r] += x * x;
        sh[r] += x * xs[r];
        acc[r] += u * 0.5;
        acc[r] += i * r;
        hits[r] += i * 3;
        hits[r] *= r * 2 + 1;
        acc[r] -= x * 0.5;
        acc[r] *= x * 0.25;
        acc[r] /= u * 2.0;
        if (i % 3 != 0) { acc[r] += x * xs[r]; hits[r] -= r * i; }
      }
      float lanes[64];
      lanes[i % 64] += x * u;
      out[i] = acc[i % 4] + sh[i % 4] + once[0] + lanes[i % 64] + (float) hits[i % 4];
    }
  }
}";
        let n = 48u64;
        for group in [16, 64] {
            let opts = ExecOptions {
                group_size: group,
                simd_width: 8,
                sampled: false,
            };
            diff(src, float_args(n), &opts);
        }
        diff_modes(src, float_args(n));
    }

    #[test]
    fn fused_scratch_multiply_errors_match_tree() {
        // An out-of-bounds index, on the one-pass path (uniform index,
        // full mask) and on the step-by-step path (divergent mask,
        // lanes-wide index): same line, same message.
        let uniform = "perfect void t(int n, float[n] out, float[n] xs) {
  foreach (int i in n threads) {
    float acc[4];
    int k = 4;
    acc[k] += xs[i] * 2.0;
    out[i] = acc[0];
  }
}";
        let masked = "perfect void t(int n, float[n] out, float[n] xs) {
  foreach (int i in n threads) {
    float acc[4];
    if (i > 2) {
      acc[i] += xs[i] * xs[i];
    }
    out[i] = acc[0];
  }
}";
        for (src, line, message) in [
            (uniform, 5, "scratch index 4 out of bounds for dim 4"),
            (masked, 5, "scratch index 4 out of bounds for dim 4"),
        ] {
            diff(src, float_args(8), &ExecOptions::default());
            let h = standard_hierarchy();
            let ck = check(&parse(src).expect("parse"), &h).expect("check");
            let e =
                execute(&ck, float_args(8), &ExecOptions::default()).expect_err("out of bounds");
            assert_eq!((e.line, e.message.as_str()), (line, message));
        }
    }

    #[test]
    fn l1_keys_one_address_alike_on_every_path() {
        // One site loads address 3 twice per chunk: through a uniform
        // index, then through a lanes-wide index that wraps to 3 on every
        // lane of the phantom `xs` (the per-lane address path). The second
        // load hits on both engines. The tail chunk has 8 lanes, not 32,
        // so its broadcast of address 3 is a new address vector: a miss.
        let src = "perfect void t(int n, float[n] out, float[8] xs) {
  foreach (int i in n threads) {
    out[i] = xs[3] + xs[i * 8 + 3];
  }
}";
        let n = 40u64;
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[n])),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[8])),
        ];
        let opts = ExecOptions {
            simd_width: 8,
            group_size: 32,
            sampled: false,
        };
        diff(src, args.clone(), &opts);
        let h = standard_hierarchy();
        let ck = check(&parse(src).expect("parse"), &h).expect("check");
        let r = execute(&ck, args, &opts).expect("runs");
        // Per chunk: one 4-byte broadcast miss and one hit on `xs`, then
        // the coalesced store of `out`: 4 + 4 × 32 for 32 lanes, 4 + 32
        // for the tail's 8.
        assert_eq!(r.stats.global_bytes, 168.0);
        let xs = SiteKey {
            line: 3,
            array: "xs".to_string(),
            is_store: false,
        };
        assert_eq!(r.stats.sites[&xs].transaction_bytes, 8.0);
        assert_eq!(r.stats.sites[&xs].broadcasts, 4.0);
    }

    #[test]
    fn fused_loop_dispatch_counts_pinned() {
        // The Fig. 6 MIC matmul inner loop: per iteration one test, two
        // index ops, compare-and-branch, the two loads, the scratch
        // multiply-read-modify-write, the branch end and step-and-branch.
        // (Nine per iteration and 682 in all while the multiply was its
        // own `Bin`, before `ScratchRmw` took it in as `Rhs::Mul`.)
        let src = "mic void t(int n, float[n,4] a, float[4,16] tb) {
  foreach (int rb in 1 cores) {
    foreach (int t in 16 threads) {
      float acc[16];
      for (int kk = 0; kk < 4; kk++) {
        for (int r = 0; r < 16; r++) {
          int row = rb * 16 + r;
          if (row < n) {
            acc[r] += a[row,kk] * tb[kk,t];
          }
        }
      }
    }
  }
}";
        let h = standard_hierarchy();
        let ck = check(&parse(src).expect("parse"), &h).expect("check");
        let n = 16u64;
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n, 4])),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[4, 16])),
        ];
        let opts = ExecOptions {
            simd_width: 16,
            group_size: 16,
            sampled: false,
        };
        diff(src, args.clone(), &opts);
        let prog = compile_program(&ck);
        let (_, counts, _) = execute_with(&prog, args, &opts, Split::Auto, true).expect("runs");
        // 64 iterations of the `r` loop: eight instructions run once per
        // iteration, the loop test once more per loop entry (4 × 17).
        let per_iter = counts.iter().filter(|&&c| c == 64).count();
        assert_eq!(per_iter, 8, "{:#?}", prog.instrs);
        assert_eq!(counts.iter().filter(|&&c| c == 68).count(), 1);
        assert_eq!(counts.iter().sum::<u64>(), 618);
    }

    #[test]
    fn deterministic_counters_pinned() {
        // Regression pin: exact counter values for SAXPY n=100 on the VM.
        // These must match the tree walker bit-for-bit; if this test fails
        // the instrumentation semantics changed and every calibrated
        // artifact is suspect.
        let h = standard_hierarchy();
        let k = parse(SAXPY).expect("parse");
        let ck = check(&k, &h).expect("check");
        let r = execute(&ck, saxpy_args(100), &ExecOptions::default()).unwrap();
        assert_eq!(r.stats.total_threads, 100.0);
        assert_eq!(r.stats.raw_lanes, 100.0);
        assert_eq!(r.stats.groups, 1.0);
        assert_eq!(r.stats.flops, 200.0);
        assert_eq!(r.stats.barriers, 0.0);
        let tree = crate::interp::execute(&ck, saxpy_args(100), &ExecOptions::default()).unwrap();
        assert_eq!(
            r.stats.issue_cycles.to_bits(),
            tree.stats.issue_cycles.to_bits()
        );
        assert_eq!(
            r.stats.global_bytes.to_bits(),
            tree.stats.global_bytes.to_bits()
        );
    }

    /// Run a kernel on the tree walker and on the VM made to split and
    /// made not to: all three agree (statistics bit for bit and argument
    /// buffers, or the exact error), and the two VM runs dispatch the same
    /// instructions. Returns what became of the split run's loops (the
    /// default when the kernel fails).
    fn split_diff(src: &str, args: Vec<ArgValue>, opts: &ExecOptions) -> SplitLog {
        let h = standard_hierarchy();
        let ck = check(&parse(src).expect("parse"), &h).expect("check");
        let prog = compile_program(&ck);
        let tree = crate::interp::execute(&ck, args.clone(), opts);
        let mut log = SplitLog::default();
        let mut counts = Vec::new();
        for split in [Split::Always, Split::Never] {
            match (&tree, execute_with(&prog, args.clone(), opts, split, true)) {
                (Ok(t), Ok((v, c, l))) => {
                    assert_eq!(
                        format!("{:?}", t.stats),
                        format!("{:?}", v.stats),
                        "{split:?}: stats differ"
                    );
                    assert_eq!(t.args, v.args, "{split:?}: argument buffers differ");
                    counts.push(c);
                    if split == Split::Always {
                        log = l;
                    } else {
                        assert_eq!(l, SplitLog::default(), "split while told not to");
                    }
                }
                (Err(te), Err(ve)) => assert_eq!(te, &ve, "{split:?}: errors differ"),
                (t, v) => panic!("{split:?}: engines disagree: tree={t:?} vm={v:?}"),
            }
        }
        if let [a, b] = &counts[..] {
            assert!(a == b, "dispatch counts differ");
        }
        log
    }

    fn blocks_of_64() -> ExecOptions {
        ExecOptions {
            group_size: 64,
            ..sampled()
        }
    }

    const MERGED: SplitLog = SplitLog {
        merged: 1,
        fell_back: 0,
    };
    const FELL_BACK: SplitLog = SplitLog {
        merged: 0,
        fell_back: 1,
    };

    #[test]
    fn independent_blocks_split_and_merge() {
        let src = "gpu void t(int n, float[n] a, float[n] out) {
  foreach (int b in n / 64 blocks) {
    local float tile[64];
    foreach (int t in 64 threads) {
      tile[t] = a[b * 64 + t];
      barrier();
      float s = 0.0;
      for (int k = 0; k < 4; k++) { s += tile[(t + k) % 64] * 0.5; }
      if (t % 3 == 0) { out[b * 64 + t] = s; }
    }
  }
}";
        let n = 64 * 5;
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
        ];
        assert_eq!(split_diff(src, args, &blocks_of_64()), MERGED);
    }

    /// The k-means pattern: every block loads the same centroids, which
    /// the first block leaves in the L1 model. The helper, starting cold,
    /// would miss where the sequential run hits, so its result is dropped.
    #[test]
    fn loads_repeated_across_blocks_fall_back() {
        let src = "gpu void t(int n, int k, float[n] pts, float[k] cent, int[n] label) {
  foreach (int b in n / 64 blocks) {
    foreach (int t in 64 threads) {
      float best = 1000000.0;
      int bi = 0;
      for (int c = 0; c < k; c++) {
        float d = pts[b * 64 + t] - cent[c];
        if (d * d < best) { best = d * d; bi = c; }
      }
      label[b * 64 + t] = bi;
    }
  }
}";
        let n = 64 * 4;
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Int(4),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[4])),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Int, &[n])),
        ];
        assert_eq!(split_diff(src, args, &blocks_of_64()), FELL_BACK);
    }

    /// A load whose keys cycle through more than eight addresses misses in
    /// both runs even though the first block leaves some of them resident:
    /// the earlier misses evict them before they are looked up.
    #[test]
    fn loads_that_thrash_the_l1_model_still_merge() {
        let src = "gpu void t(int n, float[n] out, float[9] scene) {
  foreach (int b in n / 64 blocks) {
    foreach (int t in 64 threads) {
      float s = 0.0;
      for (int k = 0; k < 9; k++) { s += scene[k]; }
      out[b * 64 + t] = s;
    }
  }
}";
        let n = 64 * 2;
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ArgValue::Array(ArrayArg::float(&[9], (0..9).map(f64::from).collect())),
        ];
        assert_eq!(split_diff(src, args, &blocks_of_64()), MERGED);
    }

    #[test]
    fn bodies_writing_outer_state_are_refused() {
        let outer_scalar = "gpu void t(int n, float[n] out) {
  float s = 0.0;
  foreach (int b in n / 64 blocks) {
    s += 1.0;
    foreach (int t in 64 threads) { out[b * 64 + t] = s; }
  }
}";
        let outer_array = "gpu void t(int n, float[n] out) {
  float acc[2];
  foreach (int b in n / 64 blocks) {
    acc[b % 2] = acc[(b + 1) % 2] + 1.0;
    foreach (int t in 64 threads) { out[b * 64 + t] = acc[0]; }
  }
}";
        let n = 64 * 4;
        for src in [outer_scalar, outer_array] {
            let args = vec![
                ArgValue::Int(n as i64),
                ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ];
            assert_eq!(split_diff(src, args, &blocks_of_64()), SplitLog::default());
            let h = standard_hierarchy();
            let ck = check(&parse(src).unwrap(), &h).unwrap();
            let prog = compile_program(&ck);
            assert!(prog
                .instrs
                .iter()
                .any(|i| matches!(i, Instr::ForeachSeq { split: false, .. })));
        }
    }

    #[test]
    fn stores_to_a_real_array_are_refused() {
        let src = "gpu void t(int n, float[n] out) {
  foreach (int b in n / 64 blocks) {
    foreach (int t in 64 threads) { out[b * 64 + t] = (float) (b + t); }
  }
}";
        let n = 64 * 4;
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[n])),
        ];
        assert_eq!(split_diff(src, args, &blocks_of_64()), SplitLog::default());
    }

    /// When both halves fail, the first half's error is the one reported;
    /// when only the second does, it is run again on the calling thread
    /// and reports the sequential error.
    #[test]
    fn errors_are_the_sequential_ones() {
        let src = |offset: &str| {
            format!(
                "gpu void t(int n, float[n] a, float[n] out) {{
  foreach (int b in 4 blocks) {{
    foreach (int t in 64 threads) {{
      for (int k = 0; k < 3; k++) {{ out[t] = a[b * {offset} + t]; }}
    }}
  }}
}}"
            )
        };
        let args = || {
            vec![
                ArgValue::Int(64),
                ArgValue::Array(ArrayArg::float(&[64], vec![1.0; 64])),
                ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[64])),
            ]
        };
        // `b * 1000 + t + 64` leaves the buffer in both blocks.
        split_diff(&src("1000 + 64"), args(), &blocks_of_64());
        // `b * 64 + t` leaves it only in block 1.
        split_diff(&src("64"), args(), &blocks_of_64());
        let h = standard_hierarchy();
        let ck = check(&parse(&src("1000 + 64")).unwrap(), &h).unwrap();
        let prog = compile_program(&ck);
        let e = execute_with(&prog, args(), &blocks_of_64(), Split::Always, false).unwrap_err();
        assert!(e.message.contains("index 64 out of bounds"), "{e}");
    }

    /// A scale that is not a multiple of 2^-10, in the helper's half or in
    /// a counter the first half ends with, makes the merge fall back.
    /// Eleven nested `foreach` loops over three blocks each, two of them
    /// sampled at every level, run their innermost body at scale
    /// 1.5^11 = 177147/2048.
    #[test]
    fn non_dyadic_scales_fall_back() {
        let nest = |body: &str| {
            (0..11).rev().fold(body.to_string(), |inner, k| {
                format!("foreach (int b{k} in 3 blocks) {{ {inner} }}")
            })
        };
        let in_helper = format!(
            "gpu void t(int n, float[n] out) {{
  foreach (int s in 2 blocks) {{
    {}
  }}
}}",
            nest("foreach (int t in n threads) { out[t] = (float) (s + t); }")
        );
        // One lane of the nest's 2^11 sampled bodies stores, so
        // `total_threads` ends the prefix at 177147/2048. The one-block
        // loop around the nest keeps the nest itself from splitting.
        let all_zero = (0..11).map(|k| format!("b{k}")).collect::<Vec<_>>();
        let in_prefix = format!(
            "gpu void t(int n, float[n] out) {{
  foreach (int s in 1 blocks) {{
    {}
  }}
  foreach (int j in 2 blocks) {{
    foreach (int t in n threads) {{ out[t] = 2.0; }}
  }}
}}",
            nest(&format!(
                "if ({} == 0) {{ foreach (int t in 1 threads) {{ out[t] = 1.0; }} }}",
                all_zero.join(" + ")
            ))
        );
        for src in [in_helper, in_prefix] {
            let n = 64;
            let args = vec![
                ArgValue::Int(n as i64),
                ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ];
            assert_eq!(split_diff(&src, args, &blocks_of_64()), FELL_BACK, "{src}");
        }
    }

    /// Three chunks sampled as two scale every counter by 1.5: the halves'
    /// sums still add up exactly.
    #[test]
    fn half_integer_scale_merges_exactly() {
        let src = "perfect void t(int n, float[n] out, float[n] xs) {
  foreach (int i in n threads) {
    float s = xs[i];
    for (int k = 0; k < i % 7; k++) { s = s * 1.5 + xs[(i + k) % n]; }
    if (s > 0.5) { out[i] = s; }
  }
}";
        let n = 64 * 3;
        let args = vec![
            ArgValue::Int(n as i64),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
        ];
        assert_eq!(split_diff(src, args, &blocks_of_64()), MERGED);
    }
}
