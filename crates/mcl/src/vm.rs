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
//! * values are reused buffers ([`VBuf`]) — uniform values stay length-1
//!   and are read through stride-0 indexing instead of being materialized
//!   as broadcast vectors, so the steady state allocates nothing;
//! * site keys and the L1-model cache lines are interned integers — no
//!   `String` hashing on every global access;
//! * control flow is explicit jumps over a linear instruction array.

use crate::ast::{AssignOp, BinOp, ElemTy, UnOp};
use crate::check::CheckedKernel;
use crate::compile::{compile_program, Builtin, Instr, Program};
use crate::exec::{ExecError, ExecOptions, ExecResult, Sampling};
use crate::stats::{KernelStats, SiteStats};
use crate::value::ArgValue;
use std::collections::VecDeque;
use std::mem;

// Instruction costs — must match crate::interp exactly.
const CYCLE_BASIC: f64 = 1.0;
const CYCLE_SPECIAL: f64 = 8.0;
const CYCLE_LOCAL: f64 = 2.0;
const CYCLE_GLOBAL: f64 = 4.0;
const CYCLE_BARRIER: f64 = 4.0;
const TRANSACTION_BYTES: u64 = 32;
const ELEM_BYTES: u64 = 4;

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

    fn set_uniform_i(&mut self, x: i64) {
        self.is_f = false;
        self.i.clear();
        self.f.clear();
        self.i.push(x);
    }

    fn set_uniform_f(&mut self, x: f64) {
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
    fn flat(&self, idx: &[i64], line: usize) -> Result<u64, ExecError> {
        let mut flat: u64 = 0;
        for (d, &i) in self.dims.iter().zip(idx) {
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

#[derive(Debug, Default)]
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

#[derive(Debug, Default)]
struct ForFrame {
    saved: Vec<bool>,
    cmask: Vec<bool>,
    guard: u64,
    /// The loop narrowed `mask` since entry (restore on exit).
    dirty: bool,
}

#[derive(Debug, Default)]
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
    sample: Option<Sampling>,
    scale: f64,
    st: KernelStats,
    acc: Vec<SiteAcc>,
    caches: Vec<VecDeque<u64>>,
    seg: Vec<u64>,
    addrs: Vec<u64>,
    sidx: Vec<i64>,
    dim_stack: Vec<i64>,
    t0: VBuf,
    t1: VBuf,
    if_stack: Vec<IfFrame>,
    if_depth: usize,
    for_stack: Vec<ForFrame>,
    for_depth: usize,
    fe_stack: Vec<FeFrame>,
    fe_depth: usize,
}

/// Pure value half of the tree walker's `apply_bin` (stats are recorded
/// separately by [`Vm::bin_stats`]).
fn bin_compute(op: BinOp, a: &VBuf, b: &VBuf, out: &mut VBuf) {
    let lanes = a.len().max(b.len());
    let anyf = a.is_f || b.is_f;
    let float = anyf && !op.int_only() && !op.is_comparison();
    if op.is_comparison() && anyf {
        let o = out.begin_i();
        for l in 0..lanes {
            let p = a.get_f(l);
            let q = b.get_f(l);
            o.push(i64::from(match op {
                BinOp::Eq => p == q,
                BinOp::Ne => p != q,
                BinOp::Lt => p < q,
                BinOp::Le => p <= q,
                BinOp::Gt => p > q,
                BinOp::Ge => p >= q,
                _ => unreachable!(),
            }));
        }
    } else if float {
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
        for l in 0..lanes {
            let p = a.get_f(l);
            let q = b.get_f(l);
            o.push(match op {
                BinOp::Add => p + q,
                BinOp::Sub => p - q,
                BinOp::Mul => p * q,
                BinOp::Div => p / q,
                _ => unreachable!("float op {op:?}"),
            });
        }
    } else if !a.is_f && !b.is_f {
        // Both int: hoist the stride/type resolution out of the loop; the
        // per-lane op dispatch is a single predictable jump.
        let o = out.begin_i();
        let (av, sa) = (&a.i, usize::from(a.i.len() > 1));
        let (bv, sb) = (&b.i, usize::from(b.i.len() > 1));
        for l in 0..lanes {
            let p = av[l * sa];
            let q = bv[l * sb];
            o.push(match op {
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
            });
        }
    } else {
        let o = out.begin_i();
        for l in 0..lanes {
            let p = a.get_i(l);
            let q = b.get_i(l);
            o.push(match op {
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
            });
        }
    }
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

    /// Per-lane flat addresses for a global access — fills `addrs` exactly
    /// like the tree walker's `global_addresses` (masked lanes get the
    /// first valid address). Returns `true` when the access is provably
    /// lane-uniform under a full mask: all index operands are uniform and
    /// every lane is active, so every entry of `addrs` holds the same flat
    /// address computed (and bounds-checked) once. The tree walker would
    /// produce the identical `addrs` vector lane by lane.
    fn global_addresses(
        &mut self,
        pidx: usize,
        idx: &[u32],
        line: usize,
        addrs: &mut Vec<u64>,
    ) -> Result<bool, ExecError> {
        let lanes = if self.lanes > 1 {
            self.lanes
        } else {
            idx.iter()
                .map(|&s| self.pool[s as usize].len())
                .max()
                .unwrap_or(1)
        };
        let ArgValue::Array(arr) = &self.args[pidx] else {
            unreachable!("entry validation checked array kinds")
        };
        let nd = idx.len();
        self.sidx.clear();
        self.sidx.resize(nd, 0);
        addrs.clear();
        if self.lanes > 1
            && self.active == self.lanes
            && idx.iter().all(|&s| self.pool[s as usize].len() == 1)
        {
            for (k, &s) in idx.iter().enumerate() {
                self.sidx[k] = self.pool[s as usize].get_i(0);
            }
            let flat = if arr.data.is_phantom() {
                arr.flat_index(&self.sidx)
            } else {
                let mut flat: u64 = 0;
                for (d, &i) in arr.dims.iter().zip(&self.sidx) {
                    if i < 0 || (i as u64) >= *d {
                        return Err(ExecError {
                            line,
                            message: format!(
                                "index {i} out of bounds for dim {d} (array rank {})",
                                arr.rank()
                            ),
                        });
                    }
                    flat = flat * d + i as u64;
                }
                flat
            };
            addrs.resize(lanes, flat);
            return Ok(true);
        }
        addrs.resize(lanes.max(1), 0);
        let full = lanes == self.lanes;
        let mut first_valid: Option<u64> = None;
        let mut sidx = mem::take(&mut self.sidx);
        for (lane, a) in addrs.iter_mut().enumerate() {
            let active = if full {
                *self.mask.get(lane).unwrap_or(&true)
            } else {
                true
            };
            if !active {
                continue;
            }
            sidx.clear();
            for &s in idx {
                sidx.push(self.pool[s as usize].get_i(lane));
            }
            let flat = if arr.data.is_phantom() {
                arr.flat_index(&sidx)
            } else {
                let mut flat: u64 = 0;
                for (d, &i) in arr.dims.iter().zip(&sidx) {
                    if i < 0 || (i as u64) >= *d {
                        self.sidx = sidx;
                        return Err(ExecError {
                            line,
                            message: format!(
                                "index {i} out of bounds for dim {d} (array rank {})",
                                arr.rank()
                            ),
                        });
                    }
                    flat = flat * d + i as u64;
                }
                flat
            };
            *a = flat;
            if first_valid.is_none() {
                first_valid = Some(flat);
            }
        }
        self.sidx = sidx;
        let fill = first_valid.unwrap_or(0);
        for (lane, a) in addrs.iter_mut().enumerate() {
            let active = if full {
                *self.mask.get(lane).unwrap_or(&true)
            } else {
                true
            };
            if !active {
                *a = fill;
            }
        }
        Ok(false)
    }

    /// Transaction/coalescing accounting — identical addend order to the
    /// tree walker's `account_global`. `cache` is `Some` for loads only.
    /// `uniform` is the flag from [`Vm::global_addresses`]: all entries of
    /// `addrs` equal under a full mask, so each warp coalesces to exactly
    /// one transaction and the per-warp segment scan can be skipped.
    fn account_global(&mut self, site: usize, cache: Option<usize>, addrs: &[u64], uniform: bool) {
        self.issue(CYCLE_GLOBAL);
        let (transactions, active_lanes, all_same) = if uniform {
            (self.warps as u64, self.active as u64, true)
        } else {
            let lanes = addrs.len();
            let mut transactions = 0u64;
            let mut active_lanes = 0u64;
            let mut all_same = true;
            let mut first_addr: Option<u64> = None;
            let full = lanes == self.lanes;
            for (w, warp_addrs) in addrs.chunks(self.simd).enumerate() {
                self.seg.clear();
                let mut sorted = true;
                for (l, &a) in warp_addrs.iter().enumerate() {
                    let lane = w * self.simd + l;
                    let active = if full {
                        *self.mask.get(lane).unwrap_or(&true)
                    } else {
                        true
                    };
                    if !active {
                        continue;
                    }
                    active_lanes += 1;
                    match first_addr {
                        None => first_addr = Some(a),
                        Some(fa) if fa != a => all_same = false,
                        _ => {}
                    }
                    let seg = a * ELEM_BYTES / TRANSACTION_BYTES;
                    if let Some(&last) = self.seg.last() {
                        sorted &= last <= seg;
                    }
                    self.seg.push(seg);
                }
                if !sorted {
                    self.seg.sort_unstable();
                }
                self.seg.dedup();
                transactions += self.seg.len() as u64;
            }
            (transactions, active_lanes, all_same)
        };
        if active_lanes == 0 {
            return;
        }
        let ideal = active_lanes * ELEM_BYTES;
        let mut cached = false;
        if let Some(cid) = cache {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for a in addrs {
                h ^= *a;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            let entry = &mut self.caches[cid];
            if entry.contains(&h) {
                cached = true;
            } else {
                if entry.len() >= 8 {
                    entry.pop_front();
                }
                entry.push_back(h);
            }
        }
        let moved = if cached {
            0
        } else if all_same && active_lanes > 1 {
            ELEM_BYTES
        } else {
            transactions * TRANSACTION_BYTES
        };
        self.st.global_bytes += moved as f64 * self.scale;
        self.st.ideal_global_bytes += ideal as f64 * self.scale;
        let a = &mut self.acc[site];
        a.touched = true;
        a.s.executions += self.scale;
        a.s.ideal_bytes += ideal as f64 * self.scale;
        a.s.transaction_bytes += moved as f64 * self.scale;
        if all_same && active_lanes > 1 {
            a.s.broadcasts += self.scale;
        }
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

    fn run(&mut self) -> Result<(), ExecError> {
        let prog = self.prog;
        let mut pc = 0usize;
        loop {
            let line = prog.lines[pc] as usize;
            match &prog.instrs[pc] {
                Instr::LitI { dst, v } => {
                    self.pool[*dst as usize].set_uniform_i(*v);
                    pc += 1;
                }
                Instr::LitF { dst, v } => {
                    self.pool[*dst as usize].set_uniform_f(*v);
                    pc += 1;
                }
                Instr::DeclI { dst, src } => {
                    match src {
                        Some(s) => {
                            let mut out = mem::take(&mut self.t0);
                            {
                                let v = &self.pool[*s as usize];
                                let o = out.begin_i();
                                if v.is_f {
                                    o.extend(v.f.iter().map(|&x| x as i64));
                                } else {
                                    o.extend_from_slice(&v.i);
                                }
                            }
                            mem::swap(&mut self.pool[*dst as usize], &mut out);
                            self.t0 = out;
                        }
                        None => self.pool[*dst as usize].set_uniform_i(0),
                    }
                    pc += 1;
                }
                Instr::DeclF { dst, src } => {
                    match src {
                        Some(s) => {
                            let mut out = mem::take(&mut self.t0);
                            {
                                let v = &self.pool[*s as usize];
                                let o = out.begin_f();
                                if v.is_f {
                                    o.extend_from_slice(&v.f);
                                } else {
                                    o.extend(v.i.iter().map(|&x| x as f64));
                                }
                            }
                            mem::swap(&mut self.pool[*dst as usize], &mut out);
                            self.t0 = out;
                        }
                        None => self.pool[*dst as usize].set_uniform_f(0.0),
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
                Instr::Bin { dst, a, b, op } => {
                    let af = self.pool[*a as usize].is_f;
                    let bf = self.pool[*b as usize].is_f;
                    self.bin_stats(*op, af, bf);
                    let mut out = mem::take(&mut self.t0);
                    bin_compute(
                        *op,
                        &self.pool[*a as usize],
                        &self.pool[*b as usize],
                        &mut out,
                    );
                    mem::swap(&mut self.pool[*dst as usize], &mut out);
                    self.t0 = out;
                    pc += 1;
                }
                Instr::FmaMul { dst, a, b } => {
                    let af = self.pool[*a as usize].is_f;
                    let bf = self.pool[*b as usize].is_f;
                    let mut out = mem::take(&mut self.t0);
                    if af || bf {
                        self.issue(CYCLE_BASIC);
                        self.count_flops(2.0);
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
                            for l in 0..lanes {
                                o.push(x.get_f(l) * y.get_f(l));
                            }
                        }
                    } else {
                        self.bin_stats(BinOp::Mul, false, false);
                        bin_compute(
                            BinOp::Mul,
                            &self.pool[*a as usize],
                            &self.pool[*b as usize],
                            &mut out,
                        );
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
                    {
                        let v = &self.pool[*src as usize];
                        match to {
                            ElemTy::Int => {
                                let o = out.begin_i();
                                if v.is_f {
                                    o.extend(v.f.iter().map(|&x| x as i64));
                                } else {
                                    o.extend_from_slice(&v.i);
                                }
                            }
                            ElemTy::Float => {
                                let o = out.begin_f();
                                if v.is_f {
                                    o.extend_from_slice(&v.f);
                                } else {
                                    o.extend(v.i.iter().map(|&x| x as f64));
                                }
                            }
                        }
                    }
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
                    let slot = *slot as usize;
                    let src = *src as usize;
                    let mut out = mem::take(&mut self.t0);
                    match op {
                        AssignOp::Set => out.copy_from(&self.pool[src]),
                        AssignOp::Add if *fused => {
                            let of = self.pool[slot].is_f;
                            let rf = self.pool[src].is_f;
                            if of || rf {
                                // FMA add: no extra issue, no extra flops.
                                let old = &self.pool[slot];
                                let rhs = &self.pool[src];
                                let lanes = old.len().max(rhs.len());
                                let o = out.begin_f();
                                for l in 0..lanes {
                                    o.push(old.get_f(l) + rhs.get_f(l));
                                }
                            } else {
                                self.bin_stats(BinOp::Add, false, false);
                                bin_compute(
                                    BinOp::Add,
                                    &self.pool[slot],
                                    &self.pool[src],
                                    &mut out,
                                );
                            }
                        }
                        _ => {
                            let bop = match op {
                                AssignOp::Add => BinOp::Add,
                                AssignOp::Sub => BinOp::Sub,
                                AssignOp::Mul => BinOp::Mul,
                                AssignOp::Div => BinOp::Div,
                                AssignOp::Set => unreachable!(),
                            };
                            let of = self.pool[slot].is_f;
                            let rf = self.pool[src].is_f;
                            self.bin_stats(bop, of, rf);
                            bin_compute(bop, &self.pool[slot], &self.pool[src], &mut out);
                        }
                    }
                    if self.lanes == 1 || self.active == self.lanes {
                        mem::swap(&mut self.pool[slot], &mut out);
                    } else {
                        // Masked update: inactive lanes keep the old value;
                        // the result type follows the old value's type.
                        let lanes = self.lanes;
                        let mut sel = mem::take(&mut self.t1);
                        {
                            let old = &self.pool[slot];
                            let mask = &self.mask;
                            if old.is_f {
                                let o = sel.begin_f();
                                for (l, &m) in mask.iter().enumerate().take(lanes) {
                                    o.push(if m { out.get_f(l) } else { old.get_f(l) });
                                }
                            } else {
                                let o = sel.begin_i();
                                for (l, &m) in mask.iter().enumerate().take(lanes) {
                                    o.push(if m { out.get_i(l) } else { old.get_i(l) });
                                }
                            }
                        }
                        mem::swap(&mut self.pool[slot], &mut sel);
                        self.t1 = sel;
                    }
                    self.t0 = out;
                    pc += 1;
                }
                Instr::GlobalLoad {
                    dst,
                    pidx,
                    idx,
                    site,
                    cache,
                } => {
                    let mut addrs = mem::take(&mut self.addrs);
                    let uniform = self.global_addresses(*pidx as usize, idx, line, &mut addrs)?;
                    self.account_global(*site as usize, Some(*cache as usize), &addrs, uniform);
                    let ArgValue::Array(arr) = &self.args[*pidx as usize] else {
                        unreachable!()
                    };
                    let mut out = mem::take(&mut self.t0);
                    if uniform {
                        // Every lane loads the same address under a full
                        // mask; a one-element buffer is value-identical to
                        // the broadcast the tree walker materializes.
                        match arr.data.elem() {
                            ElemTy::Float => out.set_uniform_f(arr.data.load_f(addrs[0])),
                            ElemTy::Int => out.set_uniform_i(arr.data.load_i(addrs[0])),
                        }
                    } else {
                        match arr.data.elem() {
                            ElemTy::Float => {
                                let o = out.begin_f();
                                o.extend(addrs.iter().map(|&a| arr.data.load_f(a)));
                            }
                            ElemTy::Int => {
                                let o = out.begin_i();
                                o.extend(addrs.iter().map(|&a| arr.data.load_i(a)));
                            }
                        }
                    }
                    mem::swap(&mut self.pool[*dst as usize], &mut out);
                    self.t0 = out;
                    self.addrs = addrs;
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
                    let mut addrs = mem::take(&mut self.addrs);
                    let uniform = self.global_addresses(pidx, idx, line, &mut addrs)?;
                    let mut out = mem::take(&mut self.t0);
                    let mut from_out = false;
                    if let Some((op, load_site, cache)) = rmw {
                        self.account_global(
                            *load_site as usize,
                            Some(*cache as usize),
                            &addrs,
                            uniform,
                        );
                        let mut old = mem::take(&mut self.t1);
                        {
                            let ArgValue::Array(arr) = &self.args[pidx] else {
                                unreachable!()
                            };
                            if uniform {
                                match arr.data.elem() {
                                    ElemTy::Float => old.set_uniform_f(arr.data.load_f(addrs[0])),
                                    ElemTy::Int => old.set_uniform_i(arr.data.load_i(addrs[0])),
                                }
                            } else {
                                match arr.data.elem() {
                                    ElemTy::Float => {
                                        let o = old.begin_f();
                                        o.extend(addrs.iter().map(|&a| arr.data.load_f(a)));
                                    }
                                    ElemTy::Int => {
                                        let o = old.begin_i();
                                        o.extend(addrs.iter().map(|&a| arr.data.load_i(a)));
                                    }
                                }
                            }
                        }
                        let of = old.is_f;
                        let rf = self.pool[src].is_f;
                        self.bin_stats(*op, of, rf);
                        bin_compute(*op, &old, &self.pool[src], &mut out);
                        self.t1 = old;
                        from_out = true;
                    }
                    self.account_global(*store_site as usize, None, &addrs, uniform);
                    {
                        let lanes = addrs.len();
                        let full = lanes == self.lanes;
                        let v: &VBuf = if from_out { &out } else { &self.pool[src] };
                        let mask = &self.mask;
                        let ArgValue::Array(arr) = &mut self.args[pidx] else {
                            unreachable!()
                        };
                        for (lane, &a) in addrs.iter().enumerate() {
                            let active = if full {
                                *mask.get(lane).unwrap_or(&true)
                            } else {
                                true
                            };
                            if !active {
                                continue;
                            }
                            if v.is_f {
                                arr.data.store_f(a, v.get_f(lane));
                            } else {
                                arr.data.store_i(a, v.get_i(lane));
                            }
                        }
                    }
                    self.t0 = out;
                    self.addrs = addrs;
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
                    let shared = self.arrays[ai].shared;
                    self.issue(if shared { CYCLE_LOCAL } else { CYCLE_BASIC });
                    let lanes = self.lanes;
                    let vec_lanes = if !shared && lanes > 1 {
                        lanes
                    } else {
                        idx.iter()
                            .map(|&s| self.pool[s as usize].len())
                            .max()
                            .unwrap_or(1)
                            .max(1)
                    };
                    if shared {
                        self.st.local_bytes +=
                            (self.active as u64 * ELEM_BYTES) as f64 * self.scale;
                    }
                    let nd = idx.len();
                    self.sidx.clear();
                    self.sidx.resize(nd, 0);
                    let mut out = mem::take(&mut self.t0);
                    {
                        let a = &self.arrays[ai];
                        match a.elem {
                            ElemTy::Float => {
                                out.begin_f();
                            }
                            ElemTy::Int => {
                                out.begin_i();
                            }
                        }
                        let full = vec_lanes == lanes && self.active == lanes;
                        let uniform_to = if full {
                            idx.iter()
                                .take_while(|&&s| self.pool[s as usize].len() == 1)
                                .count()
                        } else {
                            0
                        };
                        if full && uniform_to == nd {
                            // Uniform indices under a full mask: one bounds
                            // check, then a strided (often contiguous) copy —
                            // same per-lane slots and values as the generic
                            // walk.
                            for (k, &s) in idx.iter().enumerate() {
                                self.sidx[k] = self.pool[s as usize].get_i(0);
                            }
                            let flat = a.flat(&self.sidx, line)?;
                            let al = a.lanes.max(1);
                            if !a.shared && al == vec_lanes {
                                let base = flat as usize * al;
                                match a.elem {
                                    ElemTy::Float => {
                                        out.f.extend_from_slice(&a.fdata[base..base + vec_lanes])
                                    }
                                    ElemTy::Int => {
                                        out.i.extend_from_slice(&a.idata[base..base + vec_lanes])
                                    }
                                }
                            } else {
                                match a.elem {
                                    ElemTy::Float => out.f.extend(
                                        (0..vec_lanes).map(|l| a.fdata[a.slot(flat, l % al)]),
                                    ),
                                    ElemTy::Int => out.i.extend(
                                        (0..vec_lanes).map(|l| a.idata[a.slot(flat, l % al)]),
                                    ),
                                }
                            }
                        } else if full && nd >= 1 && uniform_to == nd - 1 && a.dims.len() == nd && {
                            let lv = &self.pool[idx[nd - 1] as usize];
                            !lv.is_f && lv.i.len() == vec_lanes
                        } {
                            // Uniform index prefix with a lanes-varying last
                            // index (the shared-tile pattern `tb[kk, t]`):
                            // bounds-check the prefix once, then walk the
                            // last dimension lane by lane. Same flat slots,
                            // values, and error order as the generic walk —
                            // under a full mask lane 0 is checked first
                            // either way.
                            let mut prefix: u64 = 0;
                            for (k, &s) in idx[..nd - 1].iter().enumerate() {
                                let i = self.pool[s as usize].get_i(0);
                                let d = a.dims[k];
                                if i < 0 || (i as u64) >= d {
                                    return Err(ExecError {
                                        line,
                                        message: format!(
                                            "scratch index {i} out of bounds for dim {d}"
                                        ),
                                    });
                                }
                                prefix = prefix * d + i as u64;
                            }
                            let dl = a.dims[nd - 1];
                            let base = prefix * dl;
                            let lv = &self.pool[idx[nd - 1] as usize].i;
                            let al = a.lanes.max(1);
                            if a.shared && a.elem == ElemTy::Float {
                                let bu = base as usize;
                                for &i in lv {
                                    if i < 0 || (i as u64) >= dl {
                                        return Err(ExecError {
                                            line,
                                            message: format!(
                                                "scratch index {i} out of bounds for dim {dl}"
                                            ),
                                        });
                                    }
                                    out.f.push(a.fdata[bu + i as usize]);
                                }
                            } else {
                                for (lane, &i) in lv.iter().enumerate() {
                                    if i < 0 || (i as u64) >= dl {
                                        return Err(ExecError {
                                            line,
                                            message: format!(
                                                "scratch index {i} out of bounds for dim {dl}"
                                            ),
                                        });
                                    }
                                    let flat = base + i as u64;
                                    let sl = if a.shared {
                                        flat as usize
                                    } else {
                                        flat as usize * al + lane % al
                                    };
                                    match a.elem {
                                        ElemTy::Float => out.f.push(a.fdata[sl]),
                                        ElemTy::Int => out.i.push(a.idata[sl]),
                                    }
                                }
                            }
                        } else {
                            for lane in 0..vec_lanes {
                                let lane_active = if vec_lanes == lanes {
                                    *self.mask.get(lane).unwrap_or(&true)
                                } else {
                                    true
                                };
                                for (k, &s) in idx.iter().enumerate() {
                                    self.sidx[k] = self.pool[s as usize].get_i(lane);
                                }
                                if !lane_active {
                                    match a.elem {
                                        ElemTy::Float => out.f.push(0.0),
                                        ElemTy::Int => out.i.push(0),
                                    }
                                    continue;
                                }
                                let flat = a.flat(&self.sidx, line)?;
                                let sl = a.slot(flat, lane % a.lanes.max(1));
                                match a.elem {
                                    ElemTy::Float => out.f.push(a.fdata[sl]),
                                    ElemTy::Int => out.i.push(a.idata[sl]),
                                }
                            }
                        }
                    }
                    mem::swap(&mut self.pool[*dst as usize], &mut out);
                    self.t0 = out;
                    pc += 1;
                }
                Instr::ScratchStore { arr, idx, src } => {
                    let ai = *arr as usize;
                    let src = *src as usize;
                    let shared = self.arrays[ai].shared;
                    self.issue(if shared { CYCLE_LOCAL } else { CYCLE_BASIC });
                    let lanes = self.lanes;
                    let vec_lanes = if !shared && lanes > 1 {
                        lanes
                    } else {
                        idx.iter()
                            .map(|&s| self.pool[s as usize].len())
                            .max()
                            .unwrap_or(1)
                            .max(1)
                            .max(self.pool[src].len())
                    };
                    if shared {
                        self.st.local_bytes +=
                            (self.active as u64 * ELEM_BYTES) as f64 * self.scale;
                    }
                    let nd = idx.len();
                    self.sidx.clear();
                    self.sidx.resize(nd, 0);
                    // Split borrows: arrays (mut) vs pool/mask/sidx.
                    let mut a = mem::take(&mut self.arrays[ai]);
                    let res = (|| -> Result<(), ExecError> {
                        let v = &self.pool[src];
                        let full = vec_lanes == lanes && self.active == lanes;
                        let uniform_to = if full {
                            idx.iter()
                                .take_while(|&&s| self.pool[s as usize].len() == 1)
                                .count()
                        } else {
                            0
                        };
                        if full && uniform_to == nd {
                            // Uniform indices under a full mask: one bounds
                            // check, then strided stores lane by lane.
                            for (k, &s) in idx.iter().enumerate() {
                                self.sidx[k] = self.pool[s as usize].get_i(0);
                            }
                            let flat = a.flat(&self.sidx, line)?;
                            let al = a.lanes.max(1);
                            if !a.shared && al == vec_lanes && v.is_f && a.elem == ElemTy::Float {
                                let base = flat as usize * al;
                                let (vf, sv) = (&v.f, usize::from(v.f.len() > 1));
                                for lane in 0..vec_lanes {
                                    a.fdata[base + lane] = vf[lane * sv] as f32 as f64;
                                }
                                return Ok(());
                            }
                            for lane in 0..vec_lanes {
                                let sl = a.slot(flat, lane % al);
                                match (v.is_f, a.elem) {
                                    (true, ElemTy::Float) => {
                                        a.fdata[sl] = v.get_f(lane) as f32 as f64
                                    }
                                    (false, ElemTy::Int) => a.idata[sl] = v.get_i(lane),
                                    (false, ElemTy::Float) => a.fdata[sl] = v.get_i(lane) as f64,
                                    (true, ElemTy::Int) => a.idata[sl] = v.get_f(lane) as i64,
                                }
                            }
                            return Ok(());
                        }
                        if full && nd >= 1 && uniform_to == nd - 1 && a.dims.len() == nd && {
                            let lv = &self.pool[idx[nd - 1] as usize];
                            !lv.is_f && lv.i.len() == vec_lanes
                        } {
                            // Uniform prefix, lanes-varying last index (the
                            // shared-tile store `tb[kk, t] = ...`): prefix
                            // checked once, last dimension walked per lane.
                            let mut prefix: u64 = 0;
                            for (k, &s) in idx[..nd - 1].iter().enumerate() {
                                let i = self.pool[s as usize].get_i(0);
                                let d = a.dims[k];
                                if i < 0 || (i as u64) >= d {
                                    return Err(ExecError {
                                        line,
                                        message: format!(
                                            "scratch index {i} out of bounds for dim {d}"
                                        ),
                                    });
                                }
                                prefix = prefix * d + i as u64;
                            }
                            let dl = a.dims[nd - 1];
                            let base = prefix * dl;
                            let lv = &self.pool[idx[nd - 1] as usize].i;
                            let al = a.lanes.max(1);
                            for (lane, &i) in lv.iter().enumerate() {
                                if i < 0 || (i as u64) >= dl {
                                    return Err(ExecError {
                                        line,
                                        message: format!(
                                            "scratch index {i} out of bounds for dim {dl}"
                                        ),
                                    });
                                }
                                let flat = base + i as u64;
                                let sl = if a.shared {
                                    flat as usize
                                } else {
                                    flat as usize * al + lane % al
                                };
                                match (v.is_f, a.elem) {
                                    (true, ElemTy::Float) => {
                                        a.fdata[sl] = v.get_f(lane) as f32 as f64
                                    }
                                    (false, ElemTy::Int) => a.idata[sl] = v.get_i(lane),
                                    (false, ElemTy::Float) => a.fdata[sl] = v.get_i(lane) as f64,
                                    (true, ElemTy::Int) => a.idata[sl] = v.get_f(lane) as i64,
                                }
                            }
                            return Ok(());
                        }
                        for lane in 0..vec_lanes {
                            let lane_active = if vec_lanes == lanes {
                                *self.mask.get(lane).unwrap_or(&true)
                            } else {
                                true
                            };
                            for (k, &s) in idx.iter().enumerate() {
                                self.sidx[k] = self.pool[s as usize].get_i(lane);
                            }
                            if !lane_active {
                                continue;
                            }
                            let flat = a.flat(&self.sidx, line)?;
                            let sl = a.slot(flat, lane % a.lanes.max(1));
                            match (v.is_f, a.elem) {
                                (true, ElemTy::Float) => a.fdata[sl] = v.get_f(lane) as f32 as f64,
                                (false, ElemTy::Int) => a.idata[sl] = v.get_i(lane),
                                (false, ElemTy::Float) => a.fdata[sl] = v.get_i(lane) as f64,
                                (true, ElemTy::Int) => a.idata[sl] = v.get_f(lane) as i64,
                            }
                        }
                        Ok(())
                    })();
                    self.arrays[ai] = a;
                    res?;
                    pc += 1;
                }
                Instr::IfCond {
                    src,
                    predicated,
                    then_empty,
                    else_at,
                } => {
                    let d = self.if_depth;
                    if self.if_stack.len() == d {
                        self.if_stack.push(IfFrame::default());
                    }
                    self.if_depth += 1;
                    let v = &self.pool[*src as usize];
                    if v.len() == 1 {
                        // Lane-uniform condition: the then-mask is either the
                        // current mask (c true) or empty (c false), so the
                        // mask never changes. Branch accounting collapses to
                        // one `+= scale` per warp with any active lane —
                        // identical addend order to `record_branch` (a
                        // uniform condition can never diverge).
                        let c = if v.is_f {
                            v.get_f(0) != 0.0
                        } else {
                            v.get_i(0) != 0
                        };
                        if !*predicated {
                            for _ in 0..self.warps {
                                self.st.branch_events += self.scale;
                            }
                        }
                        let fr = &mut self.if_stack[d];
                        fr.cond_uniform = Some(c);
                        fr.any_not = !c && self.active > 0;
                        fr.dirty = false;
                        if c && self.active > 0 && !*then_empty {
                            pc += 1;
                        } else {
                            pc = *else_at as usize;
                        }
                    } else {
                        // Varying condition: one fused pass builds the cmask,
                        // does warp-level branch accounting, and discovers
                        // whether any/all active lanes take the branch.
                        let mut any_taken = false;
                        let mut any_not = false;
                        {
                            let fr = &mut self.if_stack[d];
                            fr.cond_uniform = None;
                            fr.cmask.clear();
                            if v.is_f {
                                fr.cmask.extend((0..self.lanes).map(|l| v.get_f(l) != 0.0));
                            } else {
                                fr.cmask.extend((0..self.lanes).map(|l| v.get_i(l) != 0));
                            }
                            for (w, warp) in self.mask.chunks(self.simd).enumerate() {
                                let lo = w * self.simd;
                                let mut taken = 0usize;
                                let mut not_taken = 0usize;
                                for (l, &active) in warp.iter().enumerate() {
                                    if !active {
                                        continue;
                                    }
                                    if fr.cmask[lo + l] {
                                        taken += 1;
                                    } else {
                                        not_taken += 1;
                                    }
                                }
                                if taken + not_taken == 0 {
                                    continue;
                                }
                                if !*predicated {
                                    self.st.branch_events += self.scale;
                                    if taken > 0 && not_taken > 0 {
                                        self.st.divergent_branches += self.scale;
                                    }
                                }
                                any_taken |= taken > 0;
                                any_not |= not_taken > 0;
                            }
                            fr.any_not = any_not;
                        }
                        if any_taken && !*then_empty {
                            if any_not {
                                let fr = &mut self.if_stack[d];
                                fr.saved.clear();
                                fr.saved.extend_from_slice(&self.mask);
                                fr.dirty = true;
                                for (m, &c) in self.mask.iter_mut().zip(&fr.cmask) {
                                    *m = *m && c;
                                }
                                self.refresh();
                            } else {
                                // Every active lane takes the branch: the
                                // narrowed mask equals the current mask.
                                self.if_stack[d].dirty = false;
                            }
                            pc += 1;
                        } else {
                            self.if_stack[d].dirty = false;
                            pc = *else_at as usize;
                        }
                    }
                }
                Instr::IfElse { else_empty, end_at } => {
                    let d = self.if_depth - 1;
                    let run_else = self.if_stack[d].any_not && !*else_empty;
                    if run_else {
                        match self.if_stack[d].cond_uniform {
                            Some(_) => {
                                // Uniform-false condition: the else-mask is
                                // the saved mask, which is still current
                                // (the then branch never ran).
                            }
                            None => {
                                let fr = &mut self.if_stack[d];
                                if !fr.dirty {
                                    // Then branch left the mask untouched, so
                                    // the current mask *is* the saved mask.
                                    fr.saved.clear();
                                    fr.saved.extend_from_slice(&self.mask);
                                    fr.dirty = true;
                                }
                                for ((m, &s), &c) in
                                    self.mask.iter_mut().zip(&fr.saved).zip(&fr.cmask)
                                {
                                    *m = s && !c;
                                }
                                self.refresh();
                            }
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
                    // narrowing ForCond — loops with lane-uniform trip
                    // counts never touch the mask at all.
                    fr.dirty = false;
                    self.for_depth += 1;
                    pc += 1;
                }
                Instr::ForGuard => {
                    let fr = &mut self.for_stack[self.for_depth - 1];
                    fr.guard += 1;
                    if fr.guard > 1_000_000_000 {
                        return Err(
                            self.fail(line, "loop exceeded 1e9 iterations (runaway?)".into())
                        );
                    }
                    pc += 1;
                }
                Instr::ForCond { src, exit } => {
                    let d = self.for_depth - 1;
                    let v = &self.pool[*src as usize];
                    if v.len() == 1 {
                        // Lane-uniform loop condition: every active lane
                        // agrees, so the mask never narrows. Accounting is
                        // one `+= scale` per warp with any active lane,
                        // exactly as `record_branch` would add them.
                        let c = if v.is_f {
                            v.get_f(0) != 0.0
                        } else {
                            v.get_i(0) != 0
                        };
                        if self.lanes > 1 {
                            for _ in 0..self.warps {
                                self.st.branch_events += self.scale;
                            }
                        }
                        if !c || self.active == 0 {
                            pc = *exit as usize;
                        } else {
                            pc += 1;
                        }
                    } else {
                        // Varying condition: fused cmask build + warp-level
                        // accounting + any/all discovery in one pass.
                        let record = self.lanes > 1;
                        let mut any_taken = false;
                        let mut any_not = false;
                        {
                            let fr = &mut self.for_stack[d];
                            fr.cmask.clear();
                            if v.is_f {
                                fr.cmask.extend((0..self.lanes).map(|l| v.get_f(l) != 0.0));
                            } else {
                                fr.cmask.extend((0..self.lanes).map(|l| v.get_i(l) != 0));
                            }
                            for (w, warp) in self.mask.chunks(self.simd).enumerate() {
                                let lo = w * self.simd;
                                let mut taken = 0usize;
                                let mut not_taken = 0usize;
                                for (l, &active) in warp.iter().enumerate() {
                                    if !active {
                                        continue;
                                    }
                                    if fr.cmask[lo + l] {
                                        taken += 1;
                                    } else {
                                        not_taken += 1;
                                    }
                                }
                                if taken + not_taken == 0 {
                                    continue;
                                }
                                if record {
                                    self.st.branch_events += self.scale;
                                    if taken > 0 && not_taken > 0 {
                                        self.st.divergent_branches += self.scale;
                                    }
                                }
                                any_taken |= taken > 0;
                                any_not |= not_taken > 0;
                            }
                        }
                        if !any_taken {
                            pc = *exit as usize;
                        } else {
                            if any_not {
                                let fr = &mut self.for_stack[d];
                                if !fr.dirty {
                                    // First narrowing: the current mask is
                                    // still the loop-entry mask.
                                    fr.saved.clear();
                                    fr.saved.extend_from_slice(&self.mask);
                                    fr.dirty = true;
                                }
                                for (m, &c) in self.mask.iter_mut().zip(&fr.cmask) {
                                    *m = *m && c;
                                }
                                self.refresh();
                            }
                            pc += 1;
                        }
                    }
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
                Instr::ForeachVec { src, var, end } => {
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
                    let run_chunks = match self.sample {
                        Some(s) => chunks.min(s.max_chunks as u64),
                        None => chunks,
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
                    }
                    self.enter_chunk(d);
                    pc += 1;
                }
                Instr::ForeachVecNext { head } => {
                    let d = self.fe_depth - 1;
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
                Instr::ForeachSeq { src, var, end } => {
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
                    let run = match self.sample {
                        Some(s) => n.min(s.max_outer_iters as u64),
                        None => n,
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
                    }
                    self.pool[*var as usize].set_uniform_i(0);
                    pc += 1;
                }
                Instr::ForeachSeqNext { head } => {
                    let d = self.fe_depth - 1;
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
                    if arr.dims != expect {
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
                Instr::Halt => return Ok(()),
            }
        }
    }
}

/// Execute a compiled program. Entry validation (argument count, kinds,
/// ranks) mirrors the tree walker's `execute`; declared-dim validation runs
/// in the program prelude.
pub fn execute_compiled(
    prog: &Program,
    args: Vec<ArgValue>,
    opts: &ExecOptions,
) -> Result<ExecResult, ExecError> {
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
        sample: opts.sample,
        scale: 1.0,
        st: KernelStats::default(),
        acc: vec![SiteAcc::default(); prog.sites.len()],
        caches: vec![VecDeque::new(); prog.n_caches],
        seg: Vec::new(),
        addrs: Vec::new(),
        sidx: Vec::new(),
        dim_stack: Vec::new(),
        t0: VBuf::default(),
        t1: VBuf::default(),
        if_stack: Vec::new(),
        if_depth: 0,
        for_stack: Vec::new(),
        for_depth: 0,
        fe_stack: Vec::new(),
        fe_depth: 0,
    };
    vm.refresh();
    vm.run()?;
    let mut stats = mem::take(&mut vm.st);
    for (i, a) in vm.acc.iter().enumerate() {
        if a.touched {
            stats.sites.insert(prog.sites[i].clone(), a.s.clone());
        }
    }
    Ok(ExecResult {
        args: vm.args,
        stats,
    })
}

/// Compile and execute a checked kernel on the VM — the one execution
/// route every launch takes. Observably identical to the reference
/// [`crate::interp::execute`].
pub fn execute(
    ck: &CheckedKernel,
    args: Vec<ArgValue>,
    par_units: &[String],
    opts: &ExecOptions,
) -> Result<ExecResult, ExecError> {
    let prog = compile_program(ck, par_units);
    execute_compiled(&prog, args, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parse::parse;
    use crate::value::ArrayArg;
    use cashmere_hwdesc::standard_hierarchy;

    /// Run a kernel on both engines and require identical outcomes:
    /// bit-identical stats (including per-site records) and identical
    /// argument buffers, or the exact same error.
    fn diff(src: &str, args: Vec<ArgValue>, opts: &ExecOptions) {
        let h = standard_hierarchy();
        let k = parse(src).expect("parse");
        let ck = check(&k, &h).expect("check");
        let units: Vec<String> = h
            .effective_params(ck.level)
            .par_units
            .iter()
            .map(|p| p.name.clone())
            .collect();
        let t = crate::interp::execute(&ck, args.clone(), &units, opts);
        let v = execute(&ck, args, &units, opts);
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

    fn sampled() -> ExecOptions {
        ExecOptions {
            sample: Some(Sampling::default()),
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

    #[test]
    fn deterministic_counters_pinned() {
        // Regression pin: exact counter values for SAXPY n=100 on the VM.
        // These must match the tree walker bit-for-bit; if this test fails
        // the instrumentation semantics changed and every calibrated
        // artifact is suspect.
        let h = standard_hierarchy();
        let k = parse(SAXPY).expect("parse");
        let ck = check(&k, &h).expect("check");
        let units: Vec<String> = h
            .effective_params(ck.level)
            .par_units
            .iter()
            .map(|p| p.name.clone())
            .collect();
        let r = execute(&ck, saxpy_args(100), &units, &ExecOptions::default()).unwrap();
        assert_eq!(r.stats.total_threads, 100.0);
        assert_eq!(r.stats.raw_lanes, 100.0);
        assert_eq!(r.stats.groups, 1.0);
        assert_eq!(r.stats.flops, 200.0);
        assert_eq!(r.stats.barriers, 0.0);
        let tree =
            crate::interp::execute(&ck, saxpy_args(100), &units, &ExecOptions::default()).unwrap();
        assert_eq!(
            r.stats.issue_cycles.to_bits(),
            tree.stats.issue_cycles.to_bits()
        );
        assert_eq!(
            r.stats.global_bytes.to_bits(),
            tree.stats.global_bytes.to_bits()
        );
    }
}
