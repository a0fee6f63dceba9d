//! Warp-synchronous (SIMT) tree-walking interpreter for MCPL kernels —
//! the reference semantics of the kernel VM.
//!
//! Every launch in the simulator runs on the register-bytecode VM
//! ([`crate::vm`]). This module walks the checked AST directly and is the
//! oracle the VM is tested against: the differential tests in
//! [`crate::vm`] and `tests/mcl_language.rs`, the property tests in
//! `tests/properties.rs`, and the fig6-corpus equivalence test in
//! `crates/bench/tests/kernel_engines.rs`. It is not reachable from any
//! run option.
//!
//! The interpreter executes a kernel the way a many-core device would:
//! the *innermost* thread-level `foreach` is vectorized — all lanes of a
//! work-group advance through the statement list in lockstep under an
//! activity mask — while outer `foreach` statements (`blocks`, `cores`,
//! outer `threads` domains) iterate sequentially. Lockstep execution makes
//! `barrier()` and cooperative `local`-memory patterns functionally correct
//! by construction, and it lets us *measure* what the hardware would do:
//!
//! * each executed vector instruction counts issue cycles per active warp;
//! * `if`/`for` with lane-varying conditions record branch divergence;
//! * global loads/stores are grouped into 32-byte transactions per warp,
//!   which is exactly the coalescing behaviour the paper's optimized
//!   kernels exploit.
//!
//! Two modes:
//!
//! * **full** — every group and every lane executes; array arguments are
//!   mutated;
//! * **sampled** — only the first [`SAMPLED_ITERS`] iterations or vector
//!   chunks of each `foreach` run and all counters are scaled up, so
//!   paper-scale launches (billions of threads) are measured in
//!   milliseconds. Combined with phantom buffers
//!   nothing big is ever allocated.

use crate::ast::*;
use crate::check::CheckedKernel;
use crate::exec::{
    ExecError, ExecOptions, ExecResult, L1Key, L1Site, CYCLE_BARRIER, CYCLE_BASIC, CYCLE_GLOBAL,
    CYCLE_LOCAL, CYCLE_SPECIAL, ELEM_BYTES, SAMPLED_ITERS, TRANSACTION_BYTES,
};
use crate::stats::{KernelStats, SiteKey};
use crate::value::ArgValue;
use std::collections::HashMap;

/// A lane-varying value: length is 1 (uniform) or the current lane count.
#[derive(Debug, Clone, PartialEq)]
enum V {
    I(Vec<i64>),
    F(Vec<f64>),
}

impl V {
    fn len(&self) -> usize {
        match self {
            V::I(v) => v.len(),
            V::F(v) => v.len(),
        }
    }

    fn uniform_i(x: i64) -> V {
        V::I(vec![x])
    }

    fn broadcast(&self, lanes: usize) -> V {
        if self.len() == lanes {
            return self.clone();
        }
        debug_assert_eq!(self.len(), 1, "broadcast from non-uniform");
        match self {
            V::I(v) => V::I(vec![v[0]; lanes]),
            V::F(v) => V::F(vec![v[0]; lanes]),
        }
    }

    fn as_i(&self) -> V {
        match self {
            V::I(_) => self.clone(),
            V::F(v) => V::I(v.iter().map(|&x| x as i64).collect()),
        }
    }

    fn as_f(&self) -> V {
        match self {
            V::F(_) => self.clone(),
            V::I(v) => V::F(v.iter().map(|&x| x as f64).collect()),
        }
    }

    fn is_float(&self) -> bool {
        matches!(self, V::F(_))
    }
}

/// Storage for a `local` (work-group shared) or private array.
#[derive(Debug, Clone)]
struct ArrayStore {
    dims: Vec<u64>,
    /// `true` → one copy shared by all lanes; `false` → per-lane storage
    /// laid out `[elem * lanes + lane]`.
    shared: bool,
    lanes: usize,
    fdata: Vec<f64>,
    idata: Vec<i64>,
    elem: ElemTy,
}

impl ArrayStore {
    fn new(elem: ElemTy, dims: Vec<u64>, shared: bool, lanes: usize) -> ArrayStore {
        let n: u64 = dims.iter().product();
        let slots = if shared {
            n as usize
        } else {
            n as usize * lanes
        };
        ArrayStore {
            dims,
            shared,
            lanes,
            fdata: if elem == ElemTy::Float {
                vec![0.0; slots]
            } else {
                Vec::new()
            },
            idata: if elem == ElemTy::Int {
                vec![0; slots]
            } else {
                Vec::new()
            },
            elem,
        }
    }

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

    fn slot(&self, flat: u64, lane: usize) -> usize {
        if self.shared {
            flat as usize
        } else {
            flat as usize * self.lanes + lane
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Scalar(V),
    Array(ArrayStore),
}

struct Frame {
    vars: HashMap<String, Slot>,
}

pub struct Interp {
    args: Vec<ArgValue>,
    /// Parameter name → index into `args`.
    param_index: HashMap<String, usize>,
    env: Vec<Frame>,
    lanes: usize,
    mask: Vec<bool>,
    /// Cached: number of active lanes / warps with ≥1 active lane.
    active_count: usize,
    warps_active: usize,
    /// Frame index where the current vector context began.
    vector_base: Option<usize>,
    simd: usize,
    group_size: usize,
    sampled: bool,
    scale: f64,
    stats: KernelStats,
    /// The kernel level's innermost parallelism unit.
    innermost_unit: String,
    /// Scratch for transaction counting.
    seg_scratch: Vec<u64>,
    /// Tiny L1 model: per load site, the recently issued address patterns.
    site_cache: HashMap<(usize, String), L1Site>,
}

impl Interp {
    fn err(&self, line: usize, msg: impl Into<String>) -> ExecError {
        ExecError {
            line,
            message: msg.into(),
        }
    }

    fn refresh_mask_cache(&mut self) {
        self.active_count = self.mask.iter().filter(|b| **b).count();
        self.warps_active = self
            .mask
            .chunks(self.simd)
            .filter(|w| w.iter().any(|b| *b))
            .count();
    }

    /// Record one vector instruction of the given cycle cost.
    #[inline]
    fn issue(&mut self, cost: f64) {
        let w = self.warps_active as f64;
        self.stats.issue_cycles += cost * w * self.scale;
        self.stats.issue_slots += w * self.simd as f64 * self.scale;
        self.stats.active_slots += self.active_count as f64 * self.scale;
    }

    #[inline]
    fn count_flops(&mut self, per_lane: f64) {
        self.stats.flops += per_lane * self.active_count as f64 * self.scale;
    }

    fn push_frame(&mut self) {
        self.env.push(Frame {
            vars: HashMap::new(),
        });
    }

    fn pop_frame(&mut self) {
        self.env.pop();
    }

    fn declare(&mut self, name: &str, slot: Slot) {
        self.env
            .last_mut()
            .expect("env never empty")
            .vars
            .insert(name.to_string(), slot);
    }

    fn lookup(&self, name: &str) -> Option<(usize, &Slot)> {
        for (i, f) in self.env.iter().enumerate().rev() {
            if let Some(s) = f.vars.get(name) {
                return Some((i, s));
            }
        }
        None
    }

    fn lookup_frame_idx(&self, name: &str) -> Option<usize> {
        self.lookup(name).map(|(i, _)| i)
    }

    // ---------------------------------------------------------------- eval

    fn eval(&mut self, e: &Expr, line: usize) -> Result<V, ExecError> {
        match e {
            Expr::IntLit(v) => Ok(V::uniform_i(*v)),
            Expr::FloatLit(v) => Ok(V::F(vec![*v])),
            Expr::Var(name) => match self.lookup(name) {
                Some((_, Slot::Scalar(v))) => Ok(v.clone()),
                Some((_, Slot::Array(_))) => {
                    Err(self.err(line, format!("`{name}` is an array, not a scalar")))
                }
                None => Err(self.err(line, format!("unbound variable `{name}`"))),
            },
            Expr::Index { array, indices } => self.eval_load(array, indices, line),
            Expr::Unary { op, operand } => {
                let v = self.eval(operand, line)?;
                self.issue(CYCLE_BASIC);
                Ok(match (op, v) {
                    (UnOp::Neg, V::F(v)) => {
                        self.count_flops(1.0);
                        V::F(v.into_iter().map(|x| -x).collect())
                    }
                    (UnOp::Neg, V::I(v)) => V::I(v.into_iter().map(|x| x.wrapping_neg()).collect()),
                    (UnOp::Not, V::I(v)) => {
                        V::I(v.into_iter().map(|x| i64::from(x == 0)).collect())
                    }
                    (UnOp::BitNot, V::I(v)) => V::I(v.into_iter().map(|x| !x).collect()),
                    (op, v) => return Err(self.err(line, format!("bad unary {op:?} on {v:?}"))),
                })
            }
            Expr::Binary { op, lhs, rhs } => {
                let a = self.eval(lhs, line)?;
                let b = self.eval(rhs, line)?;
                self.apply_bin(*op, a, b, line)
            }
            Expr::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, line)?);
                }
                self.eval_call(name, vals, line)
            }
            Expr::Cast { to, operand } => {
                let v = self.eval(operand, line)?;
                self.issue(CYCLE_BASIC);
                Ok(match to {
                    ElemTy::Int => v.as_i(),
                    ElemTy::Float => v.as_f(),
                })
            }
        }
    }

    fn apply_bin(&mut self, op: BinOp, a: V, b: V, line: usize) -> Result<V, ExecError> {
        let lanes = a.len().max(b.len());
        let a = a.broadcast(lanes);
        let b = b.broadcast(lanes);
        let float = (a.is_float() || b.is_float()) && !op.int_only() && !op.is_comparison();
        let cost = match op {
            BinOp::Div | BinOp::Mod => CYCLE_SPECIAL,
            _ => CYCLE_BASIC,
        };
        self.issue(cost);
        if float || (op.is_comparison() && (a.is_float() || b.is_float())) {
            let x = a.as_f();
            let y = b.as_f();
            let (V::F(x), V::F(y)) = (x, y) else {
                unreachable!()
            };
            if op.is_comparison() {
                let f = |p: f64, q: f64| -> i64 {
                    i64::from(match op {
                        BinOp::Eq => p == q,
                        BinOp::Ne => p != q,
                        BinOp::Lt => p < q,
                        BinOp::Le => p <= q,
                        BinOp::Gt => p > q,
                        BinOp::Ge => p >= q,
                        _ => unreachable!(),
                    })
                };
                return Ok(V::I(x.iter().zip(&y).map(|(&p, &q)| f(p, q)).collect()));
            }
            self.count_flops(1.0);
            let f = |p: f64, q: f64| -> f64 {
                match op {
                    BinOp::Add => p + q,
                    BinOp::Sub => p - q,
                    BinOp::Mul => p * q,
                    BinOp::Div => p / q,
                    _ => unreachable!("float op {op:?}"),
                }
            };
            Ok(V::F(x.iter().zip(&y).map(|(&p, &q)| f(p, q)).collect()))
        } else {
            let x = a.as_i();
            let y = b.as_i();
            let (V::I(x), V::I(y)) = (x, y) else {
                unreachable!()
            };
            let f = |p: i64, q: i64| -> i64 {
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
            };
            let _ = line;
            Ok(V::I(x.iter().zip(&y).map(|(&p, &q)| f(p, q)).collect()))
        }
    }

    fn eval_call(&mut self, name: &str, mut vals: Vec<V>, line: usize) -> Result<V, ExecError> {
        let special = matches!(
            name,
            "sqrt" | "rsqrt" | "pow" | "exp" | "log" | "sin" | "cos" | "tan"
        );
        self.issue(if special { CYCLE_SPECIAL } else { CYCLE_BASIC });
        self.count_flops(1.0);
        let lanes = vals.iter().map(V::len).max().unwrap_or(1);
        // min/max/abs/clamp stay int when all args are int.
        let all_int = vals.iter().all(|v| !v.is_float());
        if all_int && matches!(name, "min" | "max" | "abs" | "clamp") {
            let vs: Vec<Vec<i64>> = vals
                .iter()
                .map(|v| match v.broadcast(lanes).as_i() {
                    V::I(x) => x,
                    V::F(_) => unreachable!(),
                })
                .collect();
            let out: Vec<i64> = (0..lanes)
                .map(|l| match name {
                    "min" => vs[0][l].min(vs[1][l]),
                    "max" => vs[0][l].max(vs[1][l]),
                    "abs" => vs[0][l].abs(),
                    "clamp" => vs[0][l].clamp(vs[1][l].min(vs[2][l]), vs[2][l].max(vs[1][l])),
                    _ => unreachable!(),
                })
                .collect();
            return Ok(V::I(out));
        }
        let vs: Vec<Vec<f64>> = vals
            .drain(..)
            .map(|v| match v.broadcast(lanes).as_f() {
                V::F(x) => x,
                V::I(_) => unreachable!(),
            })
            .collect();
        let out: Vec<f64> = (0..lanes)
            .map(|l| match name {
                "sqrt" => vs[0][l].max(0.0).sqrt(),
                "rsqrt" => 1.0 / vs[0][l].max(f64::MIN_POSITIVE).sqrt(),
                "fabs" | "abs" => vs[0][l].abs(),
                "floor" => vs[0][l].floor(),
                "exp" => vs[0][l].exp(),
                "log" => vs[0][l].max(f64::MIN_POSITIVE).ln(),
                "sin" => vs[0][l].sin(),
                "cos" => vs[0][l].cos(),
                "tan" => vs[0][l].tan(),
                "pow" => vs[0][l].powf(vs[1][l]),
                "min" => vs[0][l].min(vs[1][l]),
                "max" => vs[0][l].max(vs[1][l]),
                "clamp" => {
                    let (lo, hi) = (vs[1][l].min(vs[2][l]), vs[2][l].max(vs[1][l]));
                    vs[0][l].clamp(lo, hi)
                }
                other => unreachable!("checker validated builtin `{other}`"),
            })
            .collect();
        let _ = line;
        Ok(V::F(out))
    }

    // ------------------------------------------------------------- memory

    /// Evaluate index expressions into per-lane flat addresses for a global
    /// array parameter, then account transactions and return loaded values.
    fn eval_load(&mut self, array: &str, indices: &[Expr], line: usize) -> Result<V, ExecError> {
        // Scratch (local/private) array?
        if let Some(frame) = self.lookup_frame_idx(array) {
            let _ = frame;
            return self.scratch_access(array, indices, line, None);
        }
        let &pidx = self
            .param_index
            .get(array)
            .ok_or_else(|| self.err(line, format!("unbound array `{array}`")))?;
        let addrs = self.global_addresses(pidx, indices, line)?;
        self.account_global(line, array, false, &addrs);
        let ArgValue::Array(arr) = &self.args[pidx] else {
            return Err(self.err(line, format!("`{array}` is not an array argument")));
        };
        let elem = arr.data.elem();
        let out = match elem {
            ElemTy::Float => V::F(addrs.iter().map(|&a| arr.data.load_f(a)).collect()),
            ElemTy::Int => V::I(addrs.iter().map(|&a| arr.data.load_i(a)).collect()),
        };
        Ok(out)
    }

    /// Compute per-lane flat addresses (for all lanes; masked lanes get the
    /// address of lane 0 to stay in bounds without affecting transactions).
    fn global_addresses(
        &mut self,
        pidx: usize,
        indices: &[Expr],
        line: usize,
    ) -> Result<Vec<u64>, ExecError> {
        let mut idx_vecs = Vec::with_capacity(indices.len());
        for ix in indices {
            let v = self.eval(ix, line)?.as_i();
            idx_vecs.push(match v {
                V::I(x) => x,
                V::F(_) => unreachable!(),
            });
        }
        // In a vector context even a uniform index is issued by every active
        // lane (a warp-wide broadcast), so widen to the full lane count.
        let lanes = if self.lanes > 1 {
            self.lanes
        } else {
            idx_vecs.iter().map(Vec::len).max().unwrap_or(1)
        };
        let ArgValue::Array(arr) = &self.args[pidx] else {
            return Err(self.err(line, "not an array"));
        };
        let mut addrs = vec![0u64; lanes.max(1)];
        let mut scratch_idx = vec![0i64; indices.len()];
        let mut first_valid: Option<u64> = None;
        for (lane, addr) in addrs.iter_mut().enumerate() {
            let active = if lanes == self.lanes {
                *self.mask.get(lane).unwrap_or(&true)
            } else {
                true
            };
            if !active {
                // Placeholder; fixed up below.
                continue;
            }
            for (k, iv) in idx_vecs.iter().enumerate() {
                scratch_idx[k] = if iv.len() == 1 { iv[0] } else { iv[lane] };
            }
            let flat = if arr.data.is_phantom() {
                arr.flat_index(&scratch_idx)
            } else {
                // Bounds check with a proper error instead of a panic.
                let mut flat: u64 = 0;
                for (d, &i) in arr.dims.iter().zip(&scratch_idx) {
                    if i < 0 || (i as u64) >= *d {
                        return Err(self.err(
                            line,
                            format!(
                                "index {i} out of bounds for dim {d} (array rank {})",
                                arr.rank()
                            ),
                        ));
                    }
                    flat = flat * d + i as u64;
                }
                flat
            };
            *addr = flat;
            if first_valid.is_none() {
                first_valid = Some(flat);
            }
        }
        let fill = first_valid.unwrap_or(0);
        for (lane, addr) in addrs.iter_mut().enumerate() {
            let active = if lanes == self.lanes {
                *self.mask.get(lane).unwrap_or(&true)
            } else {
                true
            };
            if !active {
                *addr = fill;
            }
        }
        Ok(addrs)
    }

    /// Account a global access: per warp, count distinct 32-byte segments.
    fn account_global(&mut self, line: usize, array: &str, is_store: bool, addrs: &[u64]) {
        self.issue(CYCLE_GLOBAL);
        let lanes = addrs.len();
        let mut transactions = 0u64;
        let mut active_lanes = 0u64;
        let mut all_same = true;
        let mut first_addr: Option<u64> = None;
        let full_vector = lanes == self.lanes;
        for (w, warp_addrs) in addrs.chunks(self.simd).enumerate() {
            self.seg_scratch.clear();
            for (l, &a) in warp_addrs.iter().enumerate() {
                let lane = w * self.simd + l;
                let active = if full_vector {
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
                    Some(f) if f != a => all_same = false,
                    _ => {}
                }
                self.seg_scratch.push(a * ELEM_BYTES / TRANSACTION_BYTES);
            }
            self.seg_scratch.sort_unstable();
            self.seg_scratch.dedup();
            transactions += self.seg_scratch.len() as u64;
        }
        if active_lanes == 0 {
            return;
        }
        let ideal = active_lanes * ELEM_BYTES;
        // L1 model for loads: a warp re-issuing a recently seen address
        // pattern (loop-invariant loads, repeated broadcasts) hits the
        // cache and moves no DRAM bytes. Stores write through.
        let cached = !is_store
            && self
                .site_cache
                .entry((line, array.to_string()))
                .or_default()
                .hit(L1Key::of(addrs));
        let moved = if cached {
            0
        } else if all_same && active_lanes > 1 {
            // First touch of a warp-wide broadcast: a single element.
            ELEM_BYTES
        } else {
            transactions * TRANSACTION_BYTES
        };
        self.stats.global_bytes += moved as f64 * self.scale;
        self.stats.ideal_global_bytes += ideal as f64 * self.scale;
        let site = self
            .stats
            .sites
            .entry(SiteKey {
                line,
                array: array.to_string(),
                is_store,
            })
            .or_default();
        site.executions += self.scale;
        site.ideal_bytes += ideal as f64 * self.scale;
        site.transaction_bytes += moved as f64 * self.scale;
        if all_same && active_lanes > 1 {
            site.broadcasts += self.scale;
        }
    }

    /// Load from or store to a scratch (local/private) array.
    /// `store = Some(value)` performs a store; `None` a load.
    fn scratch_access(
        &mut self,
        name: &str,
        indices: &[Expr],
        line: usize,
        store: Option<V>,
    ) -> Result<V, ExecError> {
        let mut idx_vecs = Vec::with_capacity(indices.len());
        for ix in indices {
            let v = self.eval(ix, line)?.as_i();
            idx_vecs.push(match v {
                V::I(x) => x,
                V::F(_) => unreachable!(),
            });
        }
        // Shared (work-group local) memory costs more than thread-private
        // storage, which real compilers keep in registers.
        let mut idx_shared_probe = false;
        if let Some((_, Slot::Array(a))) = self.lookup(name) {
            idx_shared_probe = a.shared;
        }
        self.issue(if idx_shared_probe {
            CYCLE_LOCAL
        } else {
            CYCLE_BASIC
        });
        let lanes = self.lanes;
        let scale = self.scale;
        let active = self.active_count;
        let mask = self.mask.clone();
        let (_, slot) = self
            .lookup(name)
            .ok_or_else(|| self.err(line, format!("unbound array `{name}`")))?;
        let Slot::Array(_) = slot else {
            return Err(self.err(line, format!("`{name}` is not an array")));
        };
        // Re-borrow mutably by locating the frame.
        let fidx = self.lookup_frame_idx(name).expect("just found");
        let err_line = line;
        // Temporarily move the store out to avoid aliasing self.
        let mut arr = match self.env[fidx].vars.remove(name).expect("slot present") {
            Slot::Array(a) => a,
            Slot::Scalar(_) => unreachable!(),
        };
        // Private (per-lane) arrays are accessed by every lane even when the
        // index expression is uniform; shared arrays with uniform indices are
        // a broadcast and can stay uniform.
        let shared = arr.shared;
        let vec_lanes = if !shared && self.lanes > 1 {
            self.lanes
        } else {
            idx_vecs
                .iter()
                .map(Vec::len)
                .max()
                .unwrap_or(1)
                .max(store.as_ref().map_or(1, V::len))
        };
        if shared {
            self.stats.local_bytes += (active as u64 * ELEM_BYTES) as f64 * scale;
        }
        let mut scratch_idx = vec![0i64; indices.len()];
        let store = store.map(|v| v.broadcast(vec_lanes));
        let result = (|| -> Result<V, ExecError> {
            let mut out_f = Vec::new();
            let mut out_i = Vec::new();
            for lane in 0..vec_lanes {
                let lane_active = if vec_lanes == lanes {
                    *mask.get(lane).unwrap_or(&true)
                } else {
                    true
                };
                for (k, iv) in idx_vecs.iter().enumerate() {
                    scratch_idx[k] = if iv.len() == 1 { iv[0] } else { iv[lane] };
                }
                if !lane_active {
                    // Inactive lanes produce a dummy value / skip the store.
                    match arr.elem {
                        ElemTy::Float => out_f.push(0.0),
                        ElemTy::Int => out_i.push(0),
                    }
                    continue;
                }
                let flat = arr.flat(&scratch_idx, err_line)?;
                let s = arr.slot(flat, lane % arr.lanes.max(1));
                match &store {
                    Some(v) => {
                        match (v, arr.elem) {
                            (V::F(x), ElemTy::Float) => arr.fdata[s] = x[lane] as f32 as f64,
                            (V::I(x), ElemTy::Int) => arr.idata[s] = x[lane],
                            (V::I(x), ElemTy::Float) => arr.fdata[s] = x[lane] as f64,
                            (V::F(x), ElemTy::Int) => arr.idata[s] = x[lane] as i64,
                        }
                        match arr.elem {
                            ElemTy::Float => out_f.push(0.0),
                            ElemTy::Int => out_i.push(0),
                        }
                    }
                    None => match arr.elem {
                        ElemTy::Float => out_f.push(arr.fdata[s]),
                        ElemTy::Int => out_i.push(arr.idata[s]),
                    },
                }
            }
            Ok(match arr.elem {
                ElemTy::Float => V::F(out_f),
                ElemTy::Int => V::I(out_i),
            })
        })();
        self.env[fidx]
            .vars
            .insert(name.to_string(), Slot::Array(arr));
        result
    }

    // ---------------------------------------------------------- statements

    fn exec_block(&mut self, body: &[Stmt]) -> Result<(), ExecError> {
        self.push_frame();
        let r = self.exec_stmts(body);
        self.pop_frame();
        r
    }

    fn exec_stmts(&mut self, body: &[Stmt]) -> Result<(), ExecError> {
        for s in body {
            self.exec_stmt(s)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<(), ExecError> {
        let line = s.line;
        match &s.kind {
            StmtKind::DeclScalar { ty, name, init } => {
                let v = match init {
                    Some(e) => {
                        let v = self.eval(e, line)?;
                        match ty {
                            ElemTy::Int => v.as_i(),
                            ElemTy::Float => v.as_f(),
                        }
                    }
                    None => match ty {
                        ElemTy::Int => V::uniform_i(0),
                        ElemTy::Float => V::F(vec![0.0]),
                    },
                };
                self.declare(name, Slot::Scalar(v));
                Ok(())
            }
            StmtKind::DeclArray {
                space,
                ty,
                name,
                dims,
            } => {
                let mut sizes = Vec::with_capacity(dims.len());
                for d in dims {
                    let v = self.uniform_int(d, line, "array dimension")?;
                    if v <= 0 {
                        return Err(self.err(line, format!("array `{name}` has dim {v} <= 0")));
                    }
                    sizes.push(v as u64);
                }
                let shared = *space == Space::Local;
                let lanes = if shared { 1 } else { self.lanes.max(1) };
                self.declare(
                    name,
                    Slot::Array(ArrayStore::new(*ty, sizes, shared, lanes)),
                );
                Ok(())
            }
            StmtKind::Assign { target, op, value } => self.exec_assign(target, *op, value, line),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => self.exec_if(cond, then_branch, else_branch, line),
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => self.exec_for(init.as_deref(), cond.as_ref(), step.as_deref(), body, line),
            StmtKind::Foreach {
                var,
                count,
                unit,
                body,
            } => self.exec_foreach(var, count, unit, body, line),
            StmtKind::Barrier => {
                self.issue(CYCLE_BARRIER);
                self.stats.barriers += self.scale;
                Ok(())
            }
        }
    }

    fn exec_assign(
        &mut self,
        target: &LValue,
        op: AssignOp,
        value: &Expr,
        line: usize,
    ) -> Result<(), ExecError> {
        // FMA fusion: `x += a * b` on a scalar target issues once for 2 flops.
        let fused = if op == AssignOp::Add && target.indices.is_empty() {
            if let Expr::Binary {
                op: BinOp::Mul,
                lhs,
                rhs,
            } = value
            {
                let a = self.eval(lhs, line)?;
                let b = self.eval(rhs, line)?;
                if a.is_float() || b.is_float() {
                    let lanes = a.len().max(b.len());
                    let (V::F(x), V::F(y)) = (a.broadcast(lanes).as_f(), b.broadcast(lanes).as_f())
                    else {
                        unreachable!()
                    };
                    self.issue(CYCLE_BASIC);
                    self.count_flops(2.0);
                    Some(V::F(x.iter().zip(&y).map(|(&p, &q)| p * q).collect()))
                } else {
                    let v = self.apply_bin(BinOp::Mul, a, b, line)?;
                    Some(v)
                }
            } else {
                None
            }
        } else {
            None
        };

        let was_fused = fused.is_some();

        if target.indices.is_empty() {
            // Scalar target.
            let (fidx, slot) = self
                .lookup(&target.name)
                .ok_or_else(|| self.err(line, format!("unbound variable `{}`", target.name)))?;
            let Slot::Scalar(old) = slot else {
                return Err(self.err(line, format!("`{}` is an array", target.name)));
            };
            let old = old.clone();
            if let Some(base) = self.vector_base {
                if fidx < base && self.lanes > 1 {
                    return Err(self.err(
                        line,
                        format!(
                            "write to `{}` from parallel context (declared outside the vectorized foreach) — a data race on real hardware",
                            target.name
                        ),
                    ));
                }
            }
            let rhs = match fused {
                Some(v) => v,
                None => self.eval(value, line)?,
            };
            let new = self.combine(op, old, rhs, was_fused, line)?;
            // Masked update.
            let new = self.masked_scalar_update(&target.name, fidx, new)?;
            if let Some(Slot::Scalar(v)) = self.env[fidx].vars.get_mut(&target.name) {
                *v = new;
            }
            Ok(())
        } else if self.lookup(&target.name).is_some() {
            // Scratch array element.
            let rhs = match fused {
                Some(v) => v,
                None => self.eval(value, line)?,
            };
            let final_v = if op == AssignOp::Set && !was_fused {
                rhs
            } else {
                let old = self.scratch_access(&target.name, &target.indices, line, None)?;
                self.combine(op, old, rhs, was_fused, line)?
            };
            self.scratch_access(&target.name, &target.indices, line, Some(final_v))?;
            Ok(())
        } else {
            // Global array element.
            let &pidx = self
                .param_index
                .get(&target.name)
                .ok_or_else(|| self.err(line, format!("unbound array `{}`", target.name)))?;
            let rhs = match fused {
                Some(v) => v,
                None => self.eval(value, line)?,
            };
            let addrs = self.global_addresses(pidx, &target.indices, line)?;
            let final_v = if op == AssignOp::Set && !was_fused {
                rhs
            } else {
                // read-modify-write
                self.account_global(line, &target.name, false, &addrs);
                let ArgValue::Array(arr) = &self.args[pidx] else {
                    unreachable!()
                };
                let elem = arr.data.elem();
                let old = match elem {
                    ElemTy::Float => V::F(addrs.iter().map(|&a| arr.data.load_f(a)).collect()),
                    ElemTy::Int => V::I(addrs.iter().map(|&a| arr.data.load_i(a)).collect()),
                };
                self.combine(op, old, rhs, was_fused, line)?
            };
            self.account_global(line, &target.name, true, &addrs);
            let lanes = addrs.len();
            let full_vector = lanes == self.lanes;
            let mask = self.mask.clone();
            let ArgValue::Array(arr) = &mut self.args[pidx] else {
                unreachable!()
            };
            let v = final_v.broadcast(lanes);
            for (lane, &a) in addrs.iter().enumerate() {
                let active = if full_vector {
                    *mask.get(lane).unwrap_or(&true)
                } else {
                    true
                };
                if !active {
                    continue;
                }
                match &v {
                    V::F(x) => arr.data.store_f(a, x[lane]),
                    V::I(x) => arr.data.store_i(a, x[lane]),
                }
            }
            Ok(())
        }
    }

    /// Combine old and rhs according to the assignment operator. `fused`
    /// means the add was already accounted as part of an FMA.
    fn combine(
        &mut self,
        op: AssignOp,
        old: V,
        rhs: V,
        fused: bool,
        line: usize,
    ) -> Result<V, ExecError> {
        let v = match op {
            AssignOp::Set => rhs,
            AssignOp::Add => {
                if fused {
                    // fma: old + (a*b), no extra issue
                    let lanes = old.len().max(rhs.len());
                    if old.is_float() || rhs.is_float() {
                        let (V::F(x), V::F(y)) =
                            (old.broadcast(lanes).as_f(), rhs.broadcast(lanes).as_f())
                        else {
                            unreachable!()
                        };
                        V::F(x.iter().zip(&y).map(|(&p, &q)| p + q).collect())
                    } else {
                        self.apply_bin(BinOp::Add, old, rhs, line)?
                    }
                } else {
                    self.apply_bin(BinOp::Add, old, rhs, line)?
                }
            }
            AssignOp::Sub => self.apply_bin(BinOp::Sub, old, rhs, line)?,
            AssignOp::Mul => self.apply_bin(BinOp::Mul, old, rhs, line)?,
            AssignOp::Div => self.apply_bin(BinOp::Div, old, rhs, line)?,
        };
        Ok(v)
    }

    /// Apply the activity mask to a scalar update: inactive lanes keep their
    /// old value.
    fn masked_scalar_update(&mut self, name: &str, fidx: usize, new: V) -> Result<V, ExecError> {
        if self.lanes == 1 || self.active_count == self.lanes {
            return Ok(new);
        }
        let Some(Slot::Scalar(old)) = self.env[fidx].vars.get(name) else {
            return Ok(new);
        };
        let lanes = self.lanes;
        let old = old.broadcast(lanes);
        let new = new.broadcast(lanes);
        Ok(match (old, new) {
            (V::F(o), nv) => {
                let V::F(n) = nv.as_f() else { unreachable!() };
                V::F(
                    (0..lanes)
                        .map(|l| if self.mask[l] { n[l] } else { o[l] })
                        .collect(),
                )
            }
            (V::I(o), nv) => {
                let V::I(n) = nv.as_i() else { unreachable!() };
                V::I(
                    (0..lanes)
                        .map(|l| if self.mask[l] { n[l] } else { o[l] })
                        .collect(),
                )
            }
        })
    }

    fn to_mask(&self, v: &V) -> Vec<bool> {
        let lanes = self.lanes;
        let v = v.broadcast(lanes);
        match v {
            V::I(x) => x.iter().map(|&b| b != 0).collect(),
            V::F(x) => x.iter().map(|&b| b != 0.0).collect(),
        }
    }

    /// Record warp-level branch statistics for a condition mask.
    fn record_branch(&mut self, cond_mask: &[bool]) {
        for (w, warp) in self.mask.chunks(self.simd).enumerate() {
            let lo = w * self.simd;
            let mut taken = 0usize;
            let mut not_taken = 0usize;
            for (l, &active) in warp.iter().enumerate() {
                if !active {
                    continue;
                }
                if cond_mask[lo + l] {
                    taken += 1;
                } else {
                    not_taken += 1;
                }
            }
            if taken + not_taken == 0 {
                continue;
            }
            self.stats.branch_events += self.scale;
            if taken > 0 && not_taken > 0 {
                self.stats.divergent_branches += self.scale;
            }
        }
    }

    /// A branch whose bodies only assign scalars compiles to predicated
    /// select instructions on real hardware — no warp divergence. Anything
    /// with loops, arrays, barriers or nesting takes a real branch.
    fn is_predicatable(body: &[Stmt]) -> bool {
        body.len() <= 4
            && body.iter().all(|s| {
                matches!(
                    &s.kind,
                    StmtKind::Assign { target, .. } if target.indices.is_empty()
                )
            })
    }

    fn exec_if(
        &mut self,
        cond: &Expr,
        then_branch: &[Stmt],
        else_branch: &[Stmt],
        line: usize,
    ) -> Result<(), ExecError> {
        let c = self.eval(cond, line)?;
        let cmask = self.to_mask(&c);
        let predicated = Self::is_predicatable(then_branch) && Self::is_predicatable(else_branch);
        if !predicated {
            self.record_branch(&cmask);
        }
        let saved = self.mask.clone();
        // then
        let tmask: Vec<bool> = saved.iter().zip(&cmask).map(|(&m, &c)| m && c).collect();
        if tmask.iter().any(|&b| b) && !then_branch.is_empty() {
            self.mask = tmask;
            self.refresh_mask_cache();
            self.exec_block(then_branch)?;
        }
        // else
        let emask: Vec<bool> = saved.iter().zip(&cmask).map(|(&m, &c)| m && !c).collect();
        if emask.iter().any(|&b| b) && !else_branch.is_empty() {
            self.mask = emask;
            self.refresh_mask_cache();
            self.exec_block(else_branch)?;
        }
        self.mask = saved;
        self.refresh_mask_cache();
        Ok(())
    }

    fn exec_for(
        &mut self,
        init: Option<&Stmt>,
        cond: Option<&Expr>,
        step: Option<&Stmt>,
        body: &[Stmt],
        line: usize,
    ) -> Result<(), ExecError> {
        self.push_frame();
        let saved = self.mask.clone();
        let result = (|| -> Result<(), ExecError> {
            if let Some(i) = init {
                self.exec_stmt(i)?;
            }
            let mut guard: u64 = 0;
            loop {
                guard += 1;
                if guard > crate::exec::LOOP_LIMIT {
                    return Err(self.err(line, "loop exceeded 1e9 iterations (runaway?)"));
                }
                if let Some(c) = cond {
                    let v = self.eval(c, line)?;
                    let cmask = self.to_mask(&v);
                    if self.lanes > 1 {
                        self.record_branch(&cmask);
                    }
                    let new_mask: Vec<bool> = self
                        .mask
                        .iter()
                        .zip(&cmask)
                        .map(|(&m, &c)| m && c)
                        .collect();
                    if !new_mask.iter().any(|&b| b) {
                        break;
                    }
                    self.mask = new_mask;
                    self.refresh_mask_cache();
                }
                self.exec_block(body)?;
                if let Some(st) = step {
                    self.exec_stmt(st)?;
                }
                if cond.is_none() {
                    return Err(self.err(line, "for loop without condition never terminates"));
                }
            }
            Ok(())
        })();
        self.mask = saved;
        self.refresh_mask_cache();
        self.pop_frame();
        result
    }

    /// Evaluate an expression that must be lane-uniform, returning the int.
    fn uniform_int(&mut self, e: &Expr, line: usize, what: &str) -> Result<i64, ExecError> {
        let v = self.eval(e, line)?.as_i();
        let V::I(x) = v else { unreachable!() };
        let first = x[0];
        if x.iter().any(|&y| y != first) {
            return Err(self.err(line, format!("{what} must be lane-uniform")));
        }
        Ok(first)
    }

    fn exec_foreach(
        &mut self,
        var: &str,
        count: &Expr,
        unit: &str,
        body: &[Stmt],
        line: usize,
    ) -> Result<(), ExecError> {
        if self.lanes != 1 {
            return Err(self.err(line, "foreach inside a vectorized foreach"));
        }
        let n = self.uniform_int(count, line, "foreach count")?;
        if n < 0 {
            return Err(self.err(line, format!("foreach count {n} < 0")));
        }
        let n = n as u64;
        if n == 0 {
            return Ok(());
        }
        // Vectorize iff this is the innermost parallelism unit and the body
        // contains no further foreach.
        let mut has_inner_foreach = false;
        walk_stmts(body, &mut |s| {
            if matches!(s.kind, StmtKind::Foreach { .. }) {
                has_inner_foreach = true;
            }
        });
        let vectorize = *unit == self.innermost_unit && !has_inner_foreach;

        if vectorize {
            let gs = self.group_size as u64;
            let chunks = n.div_ceil(gs);
            let run_chunks = if self.sampled {
                chunks.min(SAMPLED_ITERS)
            } else {
                chunks
            };
            let outer_scale = self.scale;
            if run_chunks < chunks {
                self.scale = outer_scale * chunks as f64 / run_chunks as f64;
            }
            for chunk in 0..run_chunks {
                let base = chunk * gs;
                let lanes = (n - base).min(gs) as usize;
                // Enter vector context.
                let saved_mask = std::mem::replace(&mut self.mask, vec![true; lanes]);
                let saved_lanes = std::mem::replace(&mut self.lanes, lanes);
                let saved_base = self.vector_base;
                self.vector_base = Some(self.env.len());
                self.refresh_mask_cache();
                self.stats.raw_lanes += lanes as f64;
                self.stats.total_threads += lanes as f64 * self.scale;
                self.stats.groups += self.scale;
                self.push_frame();
                self.declare(
                    var,
                    Slot::Scalar(V::I((0..lanes).map(|l| base as i64 + l as i64).collect())),
                );
                let r = self.exec_stmts(body);
                self.pop_frame();
                // Leave vector context.
                self.mask = saved_mask;
                self.lanes = saved_lanes;
                self.vector_base = saved_base;
                self.refresh_mask_cache();
                r?;
            }
            self.scale = outer_scale;
        } else {
            // Sequential-parallel: iterate (sampled) with a uniform index.
            let run = if self.sampled {
                n.min(SAMPLED_ITERS)
            } else {
                n
            };
            let outer_scale = self.scale;
            if run < n {
                self.scale = outer_scale * n as f64 / run as f64;
            }
            for it in 0..run {
                self.push_frame();
                self.declare(var, Slot::Scalar(V::uniform_i(it as i64)));
                let r = self.exec_stmts(body);
                self.pop_frame();
                r?;
            }
            self.scale = outer_scale;
        }
        Ok(())
    }
}

/// Execute a checked kernel.
pub fn execute(
    ck: &CheckedKernel,
    args: Vec<ArgValue>,
    opts: &ExecOptions,
) -> Result<ExecResult, ExecError> {
    if args.len() != ck.kernel.params.len() {
        return Err(ExecError {
            line: 1,
            message: format!(
                "kernel `{}` takes {} arguments, got {}",
                ck.kernel.name,
                ck.kernel.params.len(),
                args.len()
            ),
        });
    }
    let mut param_index = HashMap::new();
    let mut base = Frame {
        vars: HashMap::new(),
    };
    for (i, (p, a)) in ck.kernel.params.iter().zip(&args).enumerate() {
        match (p.is_array(), a) {
            (false, ArgValue::Int(v)) => {
                base.vars
                    .insert(p.name.clone(), Slot::Scalar(V::uniform_i(*v)));
            }
            (false, ArgValue::Float(v)) => {
                base.vars
                    .insert(p.name.clone(), Slot::Scalar(V::F(vec![*v])));
            }
            (true, ArgValue::Array(arr)) => {
                if arr.rank() != p.dims.len() {
                    return Err(ExecError {
                        line: 1,
                        message: format!(
                            "argument `{}`: rank {} expected, got {}",
                            p.name,
                            p.dims.len(),
                            arr.rank()
                        ),
                    });
                }
                param_index.insert(p.name.clone(), i);
            }
            _ => {
                return Err(ExecError {
                    line: 1,
                    message: format!("argument `{}` kind mismatch", p.name),
                })
            }
        }
    }

    let mut interp = Interp {
        args,
        param_index,
        env: vec![base],
        lanes: 1,
        mask: vec![true],
        active_count: 1,
        warps_active: 1,
        vector_base: None,
        simd: opts.simd_width.max(1),
        group_size: opts.group_size.max(1),
        sampled: opts.sampled,
        scale: 1.0,
        stats: KernelStats::default(),
        innermost_unit: ck.innermost_unit().name.clone(),
        seg_scratch: Vec::new(),
        site_cache: HashMap::new(),
    };
    interp.refresh_mask_cache();

    // Validate declared dims against actual buffers.
    for (p, i) in interp.param_index.clone() {
        let param = ck
            .kernel
            .params
            .iter()
            .find(|q| q.name == p)
            .expect("param exists");
        let mut expect = Vec::new();
        for d in &param.dims {
            expect.push(interp.uniform_int(d, 1, "array dimension")? as u64);
        }
        // Dimension expressions cost nothing at runtime; remove their issues.
        let ArgValue::Array(arr) = &interp.args[i] else {
            unreachable!()
        };
        if *arr.dims != *expect {
            return Err(ExecError {
                line: 1,
                message: format!(
                    "argument `{p}`: declared dims {expect:?} but buffer has {:?}",
                    arr.dims
                ),
            });
        }
    }
    // Dim validation above polluted the stats; reset before the real run.
    interp.stats = KernelStats::default();

    interp.exec_stmts(&ck.kernel.body)?;
    Ok(ExecResult {
        args: interp.args,
        stats: interp.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::parse::parse;
    use crate::value::ArrayArg;
    use cashmere_hwdesc::standard_hierarchy;

    fn run(src: &str, args: Vec<ArgValue>, opts: &ExecOptions) -> Result<ExecResult, ExecError> {
        let h = standard_hierarchy();
        let k = parse(src).expect("parse");
        let ck = check(&k, &h).expect("check");
        execute(&ck, args, opts)
    }

    const SAXPY: &str = "perfect void saxpy(int n, float alpha, float[n] y, float[n] x) {
  foreach (int i in n threads) {
    y[i] += alpha * x[i];
  }
}";

    #[test]
    fn saxpy_computes() {
        let n = 100u64;
        let x = ArrayArg::float(&[n], (0..n).map(|i| i as f64).collect());
        let y = ArrayArg::float(&[n], vec![1.0; n as usize]);
        let r = run(
            SAXPY,
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Float(2.0),
                ArgValue::Array(y),
                ArgValue::Array(x),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        let y = r.args[2].clone().array();
        for i in 0..n {
            assert_eq!(y.as_f64()[i as usize], 1.0 + 2.0 * i as f64, "i={i}");
        }
        assert_eq!(r.stats.total_threads, 100.0);
        assert!(r.stats.flops >= 200.0, "2 flops per element (fma)");
        // stride-1 loads/stores are coalesced
        assert!(r.stats.coalescing_efficiency() > 0.9);
    }

    #[test]
    fn fig3_matmul_matches_reference() {
        let (n, m, p) = (7u64, 5u64, 9u64);
        let a: Vec<f64> = (0..n * p).map(|i| (i % 13) as f64 * 0.5).collect();
        let b: Vec<f64> = (0..p * m).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut c_ref = vec![0.0f64; (n * m) as usize];
        for i in 0..n {
            for j in 0..m {
                let mut sum = 0.0;
                for k in 0..p {
                    sum += a[(i * p + k) as usize] * b[(k * m + j) as usize];
                }
                c_ref[(i * m + j) as usize] = f64::from((sum) as f32);
            }
        }
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
        let r = run(
            src,
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Int(m as i64),
                ArgValue::Int(p as i64),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[n, m])),
                ArgValue::Array(ArrayArg::float(&[n, p], a)),
                ArgValue::Array(ArrayArg::float(&[p, m], b)),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        let c = r.args[3].clone().array();
        for (got, want) in c.as_f64().iter().zip(&c_ref) {
            assert!((got - want).abs() < 1e-4, "{got} vs {want}");
        }
        assert_eq!(r.stats.total_threads, (n * m) as f64);
        // 2 flops per k-iteration per output element via FMA, plus the
        // final `c[i,j] += sum` add.
        let expect_flops = (2 * n * m * p + n * m) as f64;
        assert!(
            (r.stats.flops - expect_flops).abs() / expect_flops < 0.05,
            "flops {} vs {expect_flops}",
            r.stats.flops
        );
    }

    #[test]
    fn divergence_is_detected() {
        // Odd lanes take a different path than even lanes: every warp diverges.
        let src = "perfect void t(int n, float[n] a) {
  foreach (int i in n threads) {
    if (i % 2 == 0) { a[i] = 1.0; } else { a[i] = 2.0; }
  }
}";
        let r = run(
            src,
            vec![
                ArgValue::Int(64),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[64])),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(
            r.stats.divergence_rate() > 0.9,
            "{}",
            r.stats.divergence_rate()
        );
        let a = r.args[1].clone().array();
        assert_eq!(a.as_f64()[0], 1.0);
        assert_eq!(a.as_f64()[1], 2.0);
    }

    #[test]
    fn convergent_control_flow_has_no_divergence() {
        let src = "perfect void t(int n, float[n] a) {
  foreach (int i in n threads) {
    if (n > 10) { a[i] = 1.0; } else { a[i] = 2.0; }
  }
}";
        let r = run(
            src,
            vec![
                ArgValue::Int(64),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[64])),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.stats.divergence_rate(), 0.0);
    }

    #[test]
    fn strided_access_wastes_bandwidth() {
        // Lanes access a[i*16]: only one useful element per 32-byte segment.
        let src = "perfect void t(int n, float[n] a) {
  foreach (int i in n / 16 threads) {
    a[i * 16] = 1.0;
  }
}";
        let r = run(
            src,
            vec![
                ArgValue::Int(1024),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[1024])),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        assert!(
            r.stats.coalescing_efficiency() < 0.2,
            "{}",
            r.stats.coalescing_efficiency()
        );
        let key = r.stats.sites.keys().find(|k| k.is_store).unwrap();
        assert!(r.stats.sites[key].overhead() > 4.0);
    }

    #[test]
    fn local_memory_tiling_with_barrier() {
        // Reverse each 64-element tile through local memory — requires
        // working barrier + shared local array semantics.
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
        let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let r = run(
            src,
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Array(ArrayArg::float(&[n], data)),
            ],
            &ExecOptions {
                group_size: 64,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        let a = r.args[1].clone().array();
        // first tile reversed
        assert_eq!(a.as_f64()[0], 63.0);
        assert_eq!(a.as_f64()[63], 0.0);
        // second tile reversed
        assert_eq!(a.as_f64()[64], 127.0);
        assert!(r.stats.uses_local_memory());
        assert_eq!(r.stats.barriers, 2.0, "one barrier per block");
        assert_eq!(r.stats.groups, 2.0);
    }

    #[test]
    fn per_lane_private_arrays() {
        let src = "perfect void t(int n, float[n] out) {
  foreach (int i in n threads) {
    float acc[2];
    acc[0] = (float) i;
    acc[1] = acc[0] * 2.0;
    out[i] = acc[1];
  }
}";
        let r = run(
            src,
            vec![
                ArgValue::Int(8),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[8])),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        let out = r.args[1].clone().array();
        for i in 0..8 {
            assert_eq!(out.as_f64()[i], 2.0 * i as f64);
        }
    }

    #[test]
    fn varying_trip_count_loops() {
        // Each lane loops i times: masked loop execution must be correct.
        let src = "perfect void t(int n, float[n] out) {
  foreach (int i in n threads) {
    float s = 0.0;
    for (int k = 0; k < i; k++) { s += 1.0; }
    out[i] = s;
  }
}";
        let r = run(
            src,
            vec![
                ArgValue::Int(40),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[40])),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        let out = r.args[1].clone().array();
        for i in 0..40 {
            assert_eq!(out.as_f64()[i], i as f64, "lane {i}");
        }
        // lanes finish at different times ⇒ lane efficiency < 1
        assert!(r.stats.lane_efficiency() < 1.0);
    }

    #[test]
    fn write_to_outer_uniform_from_parallel_context_fails() {
        let src = "gpu void t(int n, float[n] a) {
  foreach (int b in 1 blocks) {
    float shared_scalar = 0.0;
    foreach (int t in 64 threads) {
      shared_scalar = (float) t;
      a[t] = shared_scalar;
    }
  }
}";
        let err = run(
            src,
            vec![
                ArgValue::Int(64),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[64])),
            ],
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert!(err.message.contains("data race"), "{err}");
    }

    #[test]
    fn sampled_mode_scales_counters() {
        let n = 4096u64;
        let full = run(
            SAXPY,
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Float(2.0),
                ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
                ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        let sampled = run(
            SAXPY,
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Float(2.0),
                ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
                ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ],
            &ExecOptions {
                sampled: true,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        // Sampled run interprets only 2 of 16 chunks but reports full totals.
        assert!(sampled.stats.raw_lanes < full.stats.raw_lanes);
        assert_eq!(sampled.stats.total_threads, full.stats.total_threads);
        let rel = |a: f64, b: f64| (a - b).abs() / b;
        assert!(rel(sampled.stats.flops, full.stats.flops) < 0.01);
        assert!(rel(sampled.stats.issue_cycles, full.stats.issue_cycles) < 0.01);
        assert!(rel(sampled.stats.global_bytes, full.stats.global_bytes) < 0.01);
        assert_eq!(sampled.stats.groups, full.stats.groups);
    }

    #[test]
    fn bad_argument_counts_and_dims() {
        let err = run(SAXPY, vec![ArgValue::Int(4)], &ExecOptions::default()).unwrap_err();
        assert!(err.message.contains("takes 4 arguments"));
        let err2 = run(
            SAXPY,
            vec![
                ArgValue::Int(8),
                ArgValue::Float(1.0),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[4])), // wrong size
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[8])),
            ],
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert!(err2.message.contains("declared dims"), "{err2}");
    }

    #[test]
    fn out_of_bounds_is_an_error_not_a_panic() {
        let src = "perfect void t(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i + 1] = 0.0;
  }
}";
        let err = run(
            src,
            vec![
                ArgValue::Int(4),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[4])),
            ],
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert!(err.message.contains("out of bounds"), "{err}");
    }

    #[test]
    fn broadcast_loads_detected() {
        let src = "perfect void t(int n, float[n] a, float[n] b) {
  foreach (int i in n threads) {
    b[i] = a[0];
  }
}";
        let r = run(
            src,
            vec![
                ArgValue::Int(64),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[64])),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[64])),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        let load_site = r
            .stats
            .sites
            .iter()
            .find(|(k, _)| !k.is_store)
            .map(|(_, v)| v)
            .unwrap();
        assert!(load_site.broadcast_fraction() > 0.9);
    }

    #[test]
    fn integer_bit_ops_work() {
        let src = "perfect void t(int n, int[n] s) {
  foreach (int i in n threads) {
    int x = s[i];
    x = x ^ (x << 13);
    x = x ^ (x >> 7);
    x = x ^ (x << 17);
    s[i] = x & 2147483647;
  }
}";
        let r = run(
            src,
            vec![
                ArgValue::Int(4),
                ArgValue::Array(ArrayArg::int(&[4], vec![1, 2, 3, 4])),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        let s = r.args[1].clone().array();
        // xorshift of distinct seeds gives distinct values
        let v = s.as_i64();
        assert!(v.iter().all(|&x| x >= 0));
        assert_ne!(v[0], v[1]);
    }

    #[test]
    fn phantom_run_produces_same_stats_as_real() {
        let n = 512u64;
        let mk_real = || {
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Float(2.0),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[n])),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[n])),
            ]
        };
        let mk_phantom = || {
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Float(2.0),
                ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
                ArgValue::Array(ArrayArg::phantom(ElemTy::Float, &[n])),
            ]
        };
        let a = run(SAXPY, mk_real(), &ExecOptions::default()).unwrap();
        let b = run(SAXPY, mk_phantom(), &ExecOptions::default()).unwrap();
        assert_eq!(a.stats.issue_cycles, b.stats.issue_cycles);
        assert_eq!(a.stats.global_bytes, b.stats.global_bytes);
        assert_eq!(a.stats.flops, b.stats.flops);
    }
}
