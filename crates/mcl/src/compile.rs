//! Bytecode compiler: lowers a [`CheckedKernel`] to a flat register program.
//!
//! The tree-walking interpreter ([`crate::interp`]) resolves variable names
//! through a stack of `HashMap` frames, allocates a fresh vector for every
//! expression node and builds site keys with string allocations on every
//! global access. All of that is static: MCPL has no functions and no
//! recursion, so lexical scoping *is* dynamic scoping, every variable can be
//! resolved to a fixed register slot at compile time, and every memory
//! access site / L1-model cache line can be interned to a small integer.
//!
//! `compile_program` performs that resolution once and emits a linear
//! [`Instr`] array that [`crate::vm`] executes with the same
//! warp-synchronous activity-mask semantics — and bit-identical
//! [`crate::stats::KernelStats`] — as the tree walker. Control flow
//! (`if`/`for`/`foreach`) becomes explicit jump targets patched after the
//! body is emitted; a side table maps every instruction back to its source
//! line for `ExecError` reporting.
//!
//! Peephole fusions cut the dispatch count of hot loops; each fused
//! instruction performs the statistics additions of the instructions it
//! replaces, in the same order (see DESIGN.md, "Kernel VM"):
//!
//! * literals live in constant registers loaded once at VM entry, so a
//!   literal operand costs no instruction (an immediate);
//! * a `Bin` feeding `IfCond`/`ForCond` becomes `IfTest`/`ForTest`
//!   (compare-and-branch; `ForTest` also carries the runaway guard);
//! * a loop's trailing `Assign` plus its back `Jump` is one `AssignJump`;
//! * an `if` without `else` emits no `IfElse`;
//! * a declaration whose initializer ends in a fresh `Bin`, `Cast` or
//!   `ScratchLoad` result writes straight into the variable's slot;
//! * `arr[i] op= e` on a scratch array with plain-slot indices is one
//!   `ScratchRmw`, and so is `arr[i] op= a * b`: the `Bin Mul` that
//!   computes the right-hand side rides along as [`Rhs::Mul`].
//!
//! Also resolved statically (all verified equivalent to the tree walker's
//! runtime decisions):
//!
//! * which `foreach` vectorizes (innermost parallelism unit, no nested
//!   `foreach` — both decidable from the AST and the unit order);
//! * which `if` is predicated (small scalar-assign-only branches);
//! * which scalar assignments are data races (target declared lexically
//!   outside the vectorized `foreach`);
//! * which `x += a*b` assignments are FMA-fusion candidates (the int/float
//!   dispatch stays dynamic, matching the tree walker's runtime typing).

use crate::ast::*;
use crate::check::CheckedKernel;
use crate::stats::SiteKey;
use std::collections::HashMap;

/// Temp-register flag: slots with this bit set index the temp region and are
/// rebased after the variable and constant counts are known.
const TMP: u32 = 1 << 31;
/// Constant-register flag: slots with this bit set index the literal pool,
/// which sits between the variables and the temps.
const CONST: u32 = 1 << 30;

/// A literal held in a constant register.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Lit {
    I(i64),
    F(f64),
}

/// Builtin functions, pre-resolved from call names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    Sqrt,
    Rsqrt,
    Fabs,
    Floor,
    Exp,
    Log,
    Sin,
    Cos,
    Tan,
    Pow,
    Min,
    Max,
    Abs,
    Clamp,
}

impl Builtin {
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "sqrt" => Builtin::Sqrt,
            "rsqrt" => Builtin::Rsqrt,
            "fabs" => Builtin::Fabs,
            "floor" => Builtin::Floor,
            "exp" => Builtin::Exp,
            "log" => Builtin::Log,
            "sin" => Builtin::Sin,
            "cos" => Builtin::Cos,
            "tan" => Builtin::Tan,
            "pow" => Builtin::Pow,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "abs" => Builtin::Abs,
            "clamp" => Builtin::Clamp,
            _ => return None,
        })
    }

    /// Transcendental/division-class builtins cost `CYCLE_SPECIAL`.
    pub fn is_special(self) -> bool {
        matches!(
            self,
            Builtin::Sqrt
                | Builtin::Rsqrt
                | Builtin::Pow
                | Builtin::Exp
                | Builtin::Log
                | Builtin::Sin
                | Builtin::Cos
                | Builtin::Tan
        )
    }

    /// `min`/`max`/`abs`/`clamp` stay int when every argument is int.
    pub fn int_capable(self) -> bool {
        matches!(
            self,
            Builtin::Min | Builtin::Max | Builtin::Abs | Builtin::Clamp
        )
    }
}

/// One bytecode instruction. Register operands (`dst`, `src`, `a`, `b`,
/// `idx` elements) index the VM's unified slot pool: variables first, then
/// expression temps. `site`/`cache` index interned instrumentation tables.
#[derive(Debug, Clone)]
pub enum Instr {
    /// `ty x = src;` — coerce to `ty` (or default 0) into the var slot.
    Decl {
        dst: u32,
        src: Option<u32>,
        ty: ElemTy,
    },
    /// Unary op. Issues `CYCLE_BASIC`; float negate counts one flop.
    Un {
        dst: u32,
        src: u32,
        op: UnOp,
    },
    /// Binary op with the tree walker's dynamic int/float dispatch. `cvt`
    /// is set when `dst` is a declared variable: the result is coerced like
    /// `Decl` would coerce it.
    Bin {
        dst: u32,
        a: u32,
        b: u32,
        op: BinOp,
        cvt: Option<ElemTy>,
    },
    /// The multiply of a fusable `x += a*b`: float operands issue once for
    /// two flops (FMA); int operands behave exactly like `Bin` `Mul`.
    FmaMul {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Builtin call; arguments are already-evaluated slots.
    Call {
        dst: u32,
        f: Builtin,
        args: Box<[u32]>,
    },
    /// `(int)` / `(float)` cast. Issues `CYCLE_BASIC`, no flops.
    Cast {
        dst: u32,
        src: u32,
        to: ElemTy,
    },
    /// Write to a scalar declared outside the vectorized `foreach`: a data
    /// race when more than one lane is live.
    RaceCheck {
        name: Box<str>,
    },
    /// Scalar assignment: combine `slot` (old) with `src` per `op`, apply
    /// the activity mask, store back. `fused` marks an FMA-accounted add.
    Assign {
        slot: u32,
        src: u32,
        op: AssignOp,
        fused: bool,
    },
    /// `Assign` followed by a jump to `to`: a loop's step (or trailing
    /// assignment) fused with its back edge.
    AssignJump {
        slot: u32,
        src: u32,
        op: AssignOp,
        fused: bool,
        to: u32,
    },
    /// Global-memory load: compute per-lane addresses from `idx` slots,
    /// account coalescing at `site` (L1 model entry `cache`), load.
    GlobalLoad {
        dst: u32,
        pidx: u32,
        idx: Box<[u32]>,
        site: u32,
        cache: u32,
    },
    /// Global-memory store or read-modify-write. `rmw` carries the combine
    /// op plus the load-side site and cache ids; addresses are computed
    /// once and shared by both accountings, exactly like the tree walker.
    GlobalAssign {
        pidx: u32,
        idx: Box<[u32]>,
        src: u32,
        rmw: Option<(BinOp, u32, u32)>,
        store_site: u32,
    },
    /// Scratch-array dimension: lane-uniform, positive; pushed for the
    /// following `ScratchDecl`.
    DimCheck {
        src: u32,
        name: Box<str>,
    },
    /// (Re-)initialize a local/private array. Runs — and re-zeroes — every
    /// time the declaration statement executes, like the tree walker.
    ScratchDecl {
        arr: u32,
        ndims: u32,
        ty: ElemTy,
        shared: bool,
    },
    /// Scratch (local/private) array load.
    ScratchLoad {
        dst: u32,
        arr: u32,
        idx: Box<[u32]>,
    },
    /// Scratch array store.
    ScratchStore {
        arr: u32,
        idx: Box<[u32]>,
        src: u32,
    },
    /// `arr[idx] op= rhs` with plain-slot indices: `ScratchLoad` + `Bin` +
    /// `ScratchStore` in one instruction, same statistics in the same order
    /// (after the multiply's, for [`Rhs::Mul`]).
    ScratchRmw {
        arr: u32,
        idx: Box<[u32]>,
        rhs: Rhs,
        op: BinOp,
    },
    /// Head of an `if`: computes the condition mask, records divergence
    /// (unless predicated), runs the then-branch masked or jumps to
    /// `else_at`.
    IfCond {
        src: u32,
        predicated: bool,
        then_empty: bool,
        else_at: u32,
    },
    /// `Bin` + `IfCond`: compares `a op b` and branches on the result
    /// without materializing it.
    IfTest {
        a: u32,
        b: u32,
        op: BinOp,
        predicated: bool,
        then_empty: bool,
        else_at: u32,
    },
    /// Between the branches: flips to the complement mask or jumps to the
    /// matching `IfEnd`. Not emitted for an `if` without `else`: `IfCond`
    /// then targets `IfEnd` directly.
    IfElse {
        end_at: u32,
    },
    /// Restores the pre-branch mask.
    IfEnd,
    /// `for` entry: saves the activity mask, resets the runaway guard.
    ForEnter,
    /// Top of every `for` iteration: the 1e9-iteration runaway check.
    ForGuard,
    /// `for` condition: records divergence in vector context, narrows the
    /// mask (loop-carried), exits to `exit` when no lane remains.
    ForCond {
        src: u32,
        exit: u32,
    },
    /// `[ForGuard +] Bin + ForCond`: the loop test `a op b` as one
    /// compare-and-branch. `guard` folds the runaway check in (set when the
    /// condition's operands needed no fallible instruction before it).
    ForTest {
        a: u32,
        b: u32,
        op: BinOp,
        guard: bool,
        exit: u32,
    },
    /// `for` exit: restores the saved mask.
    ForExit,
    Jump {
        to: u32,
    },
    /// A `for` without a condition ran its body once: never terminates.
    FailNoCond,
    /// Vectorized `foreach`: chunked lockstep execution of `var` over the
    /// count in `src`; `end` skips the body for zero-size domains. `split`
    /// marks a body that writes only state it owns (see `owns_writes`),
    /// so that a sampled launch may run two of its chunks on two threads.
    ForeachVec {
        src: u32,
        var: u32,
        end: u32,
        split: bool,
    },
    /// End of a vectorized chunk: next chunk or restore scalar context.
    ForeachVecNext {
        head: u32,
    },
    /// Sequential (outer) `foreach` with a uniform index; `split` as for
    /// [`Instr::ForeachVec`].
    ForeachSeq {
        src: u32,
        var: u32,
        end: u32,
        split: bool,
    },
    ForeachSeqNext {
        head: u32,
    },
    /// `barrier()`.
    Barrier,
    /// Prelude: parameter dimension expression (lane-uniform), pushed for
    /// `ValidateDims`.
    ParamDim {
        src: u32,
    },
    /// Prelude: compare declared dims against the actual buffer.
    ValidateDims {
        pidx: u32,
        ndims: u32,
        name: Box<str>,
    },
    /// Prelude/body boundary: dimension validation cost is not charged, so
    /// zero every counter (the L1 cache model is deliberately *not* reset,
    /// matching the tree walker).
    ResetStats,
    /// Unconditional runtime error. Emitted for constructs the checker
    /// rejects (unbound names, array/scalar confusion) so that — like the
    /// tree walker — they only fail if actually executed.
    Fail {
        msg: Box<str>,
    },
    Halt,
}

/// The right-hand side of a [`Instr::ScratchRmw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rhs {
    /// A register.
    Slot(u32),
    /// `a * b`: the `Bin Mul` (no coercion) that computed the right-hand
    /// side, fused in.
    Mul(u32, u32),
}

/// Kernel parameter info needed for entry validation.
#[derive(Debug, Clone)]
pub struct PInfo {
    pub name: String,
    /// Register slot for scalar parameters.
    pub slot: Option<u32>,
    /// Declared rank; 0 = scalar.
    pub rank: usize,
    pub is_array: bool,
}

/// A compiled kernel: linear instruction array plus the interned tables the
/// VM needs to reproduce the tree walker's statistics bit-for-bit.
#[derive(Debug, Clone)]
pub struct Program {
    pub kernel_name: String,
    pub params: Vec<PInfo>,
    pub instrs: Vec<Instr>,
    /// Source line per instruction (for `ExecError` and site keys).
    pub lines: Vec<u32>,
    /// Register pool size: variables, then constants, then expression temps.
    pub n_slots: usize,
    /// Constant registers and their literal values, loaded at VM entry.
    pub consts: Vec<(u32, Lit)>,
    /// Scratch (local/private) array storage count.
    pub n_arrays: usize,
    /// Interned global-access sites in first-use order.
    pub sites: Vec<SiteKey>,
    /// Interned L1-model cache lines (per line+array, loads only).
    pub n_caches: usize,
}

#[derive(Clone)]
enum Binding {
    Scalar { slot: u32, depth: usize },
    Scratch { arr: u32 },
    GlobalArr { pidx: u32 },
}

struct Compiler {
    instrs: Vec<Instr>,
    lines: Vec<u32>,
    scopes: Vec<HashMap<String, Binding>>,
    n_vars: u32,
    sp: u32,
    max_sp: u32,
    consts: Vec<Lit>,
    const_ids: HashMap<(bool, u64), u32>,
    /// Element type of each scratch array, by array id.
    scratch_ty: Vec<ElemTy>,
    sites: Vec<SiteKey>,
    site_ids: HashMap<(usize, String, bool), u32>,
    cache_ids: HashMap<(usize, String), u32>,
    innermost_unit: String,
    /// Scope depth where the vectorized `foreach` body begins (the slot of
    /// the tree walker's `vector_base` frame index), when inside one.
    vec_boundary: Option<usize>,
}

impl Compiler {
    fn emit(&mut self, line: usize, i: Instr) -> u32 {
        self.instrs.push(i);
        self.lines.push(line as u32);
        (self.instrs.len() - 1) as u32
    }

    fn alloc_var(&mut self) -> u32 {
        let s = self.n_vars;
        self.n_vars += 1;
        s
    }

    fn alloc_tmp(&mut self) -> u32 {
        let s = self.sp;
        self.sp += 1;
        self.max_sp = self.max_sp.max(self.sp);
        TMP | s
    }

    /// The constant register holding literal `v` (one per distinct value).
    fn konst(&mut self, v: Lit) -> u32 {
        let key = match v {
            Lit::I(x) => (false, x as u64),
            Lit::F(x) => (true, x.to_bits()),
        };
        let next = self.consts.len() as u32;
        let id = *self.const_ids.entry(key).or_insert(next);
        if id == next {
            self.consts.push(v);
        }
        CONST | id
    }

    fn insert(&mut self, at: usize, line: usize, i: Instr) {
        self.instrs.insert(at, i);
        self.lines.insert(at, line as u32);
    }

    /// If the instructions from `from` on end in the `Bin` that produced
    /// the fresh temp `src`, remove it and return its operands, so that
    /// the caller can fuse the operation into its consumer.
    fn take_bin(&mut self, from: usize, src: u32) -> Option<(u32, u32, BinOp)> {
        if src & TMP == 0 || self.instrs.len() <= from {
            return None;
        }
        match self.instrs.last() {
            Some(&Instr::Bin {
                dst,
                a,
                b,
                op,
                cvt: None,
            }) if dst == src => {
                self.instrs.pop();
                self.lines.pop();
                Some((a, b, op))
            }
            _ => None,
        }
    }

    /// Make the instruction that produced the fresh temp `src` write the
    /// declared variable `dst` directly, in place of a `Decl` copy. `Bin`
    /// takes the declaration's coercion along; `Cast` and `ScratchLoad`
    /// qualify only when their result type is statically `ty`.
    fn retarget(&mut self, from: usize, src: u32, dst: u32, ty: ElemTy) -> bool {
        if src & TMP == 0 || self.instrs.len() <= from {
            return false;
        }
        let scratch_ty = &self.scratch_ty;
        match self.instrs.last_mut() {
            Some(Instr::Bin { dst: d, cvt, .. }) if *d == src => {
                *d = dst;
                *cvt = Some(ty);
                true
            }
            Some(Instr::Cast { dst: d, to, .. }) if *d == src && *to == ty => {
                *d = dst;
                true
            }
            Some(Instr::ScratchLoad { dst: d, arr, .. })
                if *d == src && scratch_ty[*arr as usize] == ty =>
            {
                *d = dst;
                true
            }
            _ => false,
        }
    }

    fn bind(&mut self, name: &str, b: Binding) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), b);
    }

    fn resolve(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn site(&mut self, line: usize, array: &str, is_store: bool) -> u32 {
        if let Some(&id) = self.site_ids.get(&(line, array.to_string(), is_store)) {
            return id;
        }
        let id = self.sites.len() as u32;
        self.sites.push(SiteKey {
            line,
            array: array.to_string(),
            is_store,
        });
        self.site_ids
            .insert((line, array.to_string(), is_store), id);
        id
    }

    fn cache(&mut self, line: usize, array: &str) -> u32 {
        let next = self.cache_ids.len() as u32;
        *self
            .cache_ids
            .entry((line, array.to_string()))
            .or_insert(next)
    }

    fn fail(&mut self, line: usize, msg: String) -> u32 {
        self.emit(line, Instr::Fail { msg: msg.into() });
        self.alloc_tmp()
    }

    // ------------------------------------------------------------ exprs

    /// Compile an expression; returns the slot holding its value. Temps are
    /// stack-allocated: callers snapshot `self.sp` and roll back when the
    /// operand values are dead.
    fn expr(&mut self, e: &Expr, line: usize) -> u32 {
        match e {
            Expr::IntLit(v) => self.konst(Lit::I(*v)),
            Expr::FloatLit(v) => self.konst(Lit::F(*v)),
            Expr::Var(name) => match self.resolve(name) {
                Some(Binding::Scalar { slot, .. }) => *slot,
                Some(Binding::Scratch { .. }) => {
                    let msg = format!("`{name}` is an array, not a scalar");
                    self.fail(line, msg)
                }
                Some(Binding::GlobalArr { .. }) | None => {
                    let msg = format!("unbound variable `{name}`");
                    self.fail(line, msg)
                }
            },
            Expr::Index { array, indices } => {
                match self.resolve(array).cloned() {
                    Some(Binding::Scratch { arr }) => {
                        let sp0 = self.sp;
                        let idx: Box<[u32]> =
                            indices.iter().map(|ix| self.expr(ix, line)).collect();
                        self.sp = sp0;
                        let dst = self.alloc_tmp();
                        self.emit(line, Instr::ScratchLoad { dst, arr, idx });
                        dst
                    }
                    Some(Binding::GlobalArr { pidx }) => {
                        let sp0 = self.sp;
                        let idx: Box<[u32]> =
                            indices.iter().map(|ix| self.expr(ix, line)).collect();
                        self.sp = sp0;
                        let dst = self.alloc_tmp();
                        let site = self.site(line, array, false);
                        let cache = self.cache(line, array);
                        self.emit(
                            line,
                            Instr::GlobalLoad {
                                dst,
                                pidx,
                                idx,
                                site,
                                cache,
                            },
                        );
                        dst
                    }
                    // A scalar shadowing the name routes the tree walker
                    // into the scratch path, which rejects the slot kind.
                    Some(Binding::Scalar { .. }) => {
                        let msg = format!("`{array}` is not an array");
                        self.fail(line, msg)
                    }
                    None => {
                        let msg = format!("unbound array `{array}`");
                        self.fail(line, msg)
                    }
                }
            }
            Expr::Unary { op, operand } => {
                let sp0 = self.sp;
                let src = self.expr(operand, line);
                self.sp = sp0;
                let dst = self.alloc_tmp();
                self.emit(line, Instr::Un { dst, src, op: *op });
                dst
            }
            Expr::Binary { op, lhs, rhs } => {
                let sp0 = self.sp;
                let a = self.expr(lhs, line);
                let b = self.expr(rhs, line);
                self.sp = sp0;
                let dst = self.alloc_tmp();
                self.emit(
                    line,
                    Instr::Bin {
                        dst,
                        a,
                        b,
                        op: *op,
                        cvt: None,
                    },
                );
                dst
            }
            Expr::Call { name, args } => {
                let sp0 = self.sp;
                let argv: Box<[u32]> = args.iter().map(|a| self.expr(a, line)).collect();
                self.sp = sp0;
                let dst = self.alloc_tmp();
                match Builtin::from_name(name) {
                    Some(f) => {
                        self.emit(line, Instr::Call { dst, f, args: argv });
                    }
                    None => {
                        // Unreachable post-check; mirror a hard failure.
                        let msg = format!("unknown builtin `{name}`");
                        self.emit(line, Instr::Fail { msg: msg.into() });
                    }
                }
                dst
            }
            Expr::Cast { to, operand } => {
                let sp0 = self.sp;
                let src = self.expr(operand, line);
                self.sp = sp0;
                let dst = self.alloc_tmp();
                self.emit(line, Instr::Cast { dst, src, to: *to });
                dst
            }
        }
    }

    // ------------------------------------------------------- statements

    fn block(&mut self, body: &[Stmt]) {
        self.scopes.push(HashMap::new());
        self.stmts(body);
        self.scopes.pop();
    }

    fn stmts(&mut self, body: &[Stmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        let line = s.line;
        match &s.kind {
            StmtKind::DeclScalar { ty, name, init } => {
                let sp0 = self.sp;
                let from = self.instrs.len();
                let src = init.as_ref().map(|e| self.expr(e, line));
                let dst = self.alloc_var();
                if !src.is_some_and(|s| self.retarget(from, s, dst, *ty)) {
                    self.emit(line, Instr::Decl { dst, src, ty: *ty });
                }
                self.sp = sp0;
                self.bind(
                    name,
                    Binding::Scalar {
                        slot: dst,
                        depth: self.scopes.len() - 1,
                    },
                );
            }
            StmtKind::DeclArray {
                space,
                ty,
                name,
                dims,
            } => {
                let arr = self.scratch_ty.len() as u32;
                self.scratch_ty.push(*ty);
                for d in dims {
                    let sp0 = self.sp;
                    let src = self.expr(d, line);
                    self.emit(
                        line,
                        Instr::DimCheck {
                            src,
                            name: name.as_str().into(),
                        },
                    );
                    self.sp = sp0;
                }
                let shared = *space == Space::Local;
                self.emit(
                    line,
                    Instr::ScratchDecl {
                        arr,
                        ndims: dims.len() as u32,
                        ty: *ty,
                        shared,
                    },
                );
                self.bind(name, Binding::Scratch { arr });
            }
            StmtKind::Assign { target, op, value } => self.assign(target, *op, value, line),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let sp0 = self.sp;
                let from = self.instrs.len();
                let src = self.expr(cond, line);
                self.sp = sp0;
                let predicated = is_predicatable(then_branch) && is_predicatable(else_branch);
                let then_empty = then_branch.is_empty();
                let test = match self.take_bin(from, src) {
                    Some((a, b, op)) => Instr::IfTest {
                        a,
                        b,
                        op,
                        predicated,
                        then_empty,
                        else_at: 0,
                    },
                    None => Instr::IfCond {
                        src,
                        predicated,
                        then_empty,
                        else_at: 0,
                    },
                };
                let if_at = self.emit(line, test);
                self.block(then_branch);
                let else_at =
                    (!else_branch.is_empty()).then(|| self.emit(line, Instr::IfElse { end_at: 0 }));
                self.block(else_branch);
                let end_at = self.emit(line, Instr::IfEnd);
                match &mut self.instrs[if_at as usize] {
                    Instr::IfCond { else_at: t, .. } | Instr::IfTest { else_at: t, .. } => {
                        *t = else_at.unwrap_or(end_at);
                    }
                    _ => unreachable!(),
                }
                if let Some(at) = else_at {
                    let Instr::IfElse { end_at: t } = &mut self.instrs[at as usize] else {
                        unreachable!()
                    };
                    *t = end_at;
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                self.emit(line, Instr::ForEnter);
                if let Some(i) = init {
                    self.stmt(i);
                }
                let head = self.instrs.len();
                let cond_at = match cond {
                    None => {
                        self.emit(line, Instr::ForGuard);
                        None
                    }
                    Some(c) => {
                        let sp0 = self.sp;
                        let src = self.expr(c, line);
                        self.sp = sp0;
                        let test = match self.take_bin(head, src) {
                            Some((a, b, op)) => {
                                // The guard may move past operand code that
                                // cannot fail: it then precedes every error.
                                let guard = self.instrs[head..].iter().all(infallible);
                                if !guard {
                                    self.insert(head, line, Instr::ForGuard);
                                }
                                Instr::ForTest {
                                    a,
                                    b,
                                    op,
                                    guard,
                                    exit: 0,
                                }
                            }
                            None => {
                                self.insert(head, line, Instr::ForGuard);
                                Instr::ForCond { src, exit: 0 }
                            }
                        };
                        Some(self.emit(line, test))
                    }
                };
                self.block(body);
                if let Some(st) = step {
                    self.stmt(st);
                }
                if cond.is_some() {
                    let to = head as u32;
                    // Nothing targets the back edge itself, so a trailing
                    // `Assign` can take the jump over.
                    match self.instrs.last_mut() {
                        Some(Instr::Assign {
                            slot,
                            src,
                            op,
                            fused,
                        }) => {
                            let (slot, src, op, fused) = (*slot, *src, *op, *fused);
                            *self.instrs.last_mut().expect("just matched") = Instr::AssignJump {
                                slot,
                                src,
                                op,
                                fused,
                                to,
                            };
                        }
                        _ => {
                            self.emit(line, Instr::Jump { to });
                        }
                    }
                } else {
                    self.emit(line, Instr::FailNoCond);
                }
                let exit = self.emit(line, Instr::ForExit);
                if let Some(at) = cond_at {
                    match &mut self.instrs[at as usize] {
                        Instr::ForCond { exit: t, .. } | Instr::ForTest { exit: t, .. } => {
                            *t = exit;
                        }
                        _ => unreachable!(),
                    }
                }
                self.scopes.pop();
            }
            StmtKind::Foreach {
                var,
                count,
                unit,
                body,
            } => {
                let sp0 = self.sp;
                let src = self.expr(count, line);
                self.sp = sp0;
                let mut has_inner = false;
                walk_stmts(body, &mut |s| {
                    if matches!(s.kind, StmtKind::Foreach { .. }) {
                        has_inner = true;
                    }
                });
                let vectorize = *unit == self.innermost_unit && !has_inner;
                let saved_boundary = self.vec_boundary;
                if vectorize {
                    self.vec_boundary = Some(self.scopes.len());
                }
                self.scopes.push(HashMap::new());
                let vslot = self.alloc_var();
                let arrays = self.scratch_ty.len() as u32;
                self.bind(
                    var,
                    Binding::Scalar {
                        slot: vslot,
                        depth: self.scopes.len() - 1,
                    },
                );
                let head = if vectorize {
                    self.emit(
                        line,
                        Instr::ForeachVec {
                            src,
                            var: vslot,
                            end: 0,
                            split: false,
                        },
                    )
                } else {
                    self.emit(
                        line,
                        Instr::ForeachSeq {
                            src,
                            var: vslot,
                            end: 0,
                            split: false,
                        },
                    )
                };
                self.stmts(body);
                let next = if vectorize {
                    self.emit(line, Instr::ForeachVecNext { head })
                } else {
                    self.emit(line, Instr::ForeachSeqNext { head })
                };
                let end = next + 1;
                let owned = owns_writes(
                    &self.instrs[head as usize + 1..next as usize],
                    vslot,
                    arrays,
                );
                match &mut self.instrs[head as usize] {
                    Instr::ForeachVec { end: t, split, .. }
                    | Instr::ForeachSeq { end: t, split, .. } => {
                        *t = end;
                        *split = owned;
                    }
                    _ => unreachable!(),
                }
                self.scopes.pop();
                self.vec_boundary = saved_boundary;
            }
            StmtKind::Barrier => {
                self.emit(line, Instr::Barrier);
            }
        }
    }

    fn assign(&mut self, target: &LValue, op: AssignOp, value: &Expr, line: usize) {
        let sp0 = self.sp;
        // FMA fusion candidate: `x += a * b` on a scalar target. The
        // multiply is evaluated first, before the target is even resolved —
        // exactly the tree walker's order.
        let fused = if op == AssignOp::Add && target.indices.is_empty() {
            if let Expr::Binary {
                op: BinOp::Mul,
                lhs,
                rhs,
            } = value
            {
                let a = self.expr(lhs, line);
                let b = self.expr(rhs, line);
                self.sp = sp0;
                let dst = self.alloc_tmp();
                self.emit(line, Instr::FmaMul { dst, a, b });
                Some(dst)
            } else {
                None
            }
        } else {
            None
        };
        let was_fused = fused.is_some();

        if target.indices.is_empty() {
            // Scalar target.
            let binding = self.resolve(&target.name).cloned();
            let (slot, depth) = match binding {
                Some(Binding::Scalar { slot, depth }) => (slot, depth),
                Some(Binding::Scratch { .. }) => {
                    let msg = format!("`{}` is an array", target.name);
                    self.fail(line, msg);
                    self.sp = sp0;
                    return;
                }
                Some(Binding::GlobalArr { .. }) | None => {
                    let msg = format!("unbound variable `{}`", target.name);
                    self.fail(line, msg);
                    self.sp = sp0;
                    return;
                }
            };
            if let Some(boundary) = self.vec_boundary {
                if depth < boundary {
                    let msg = format!(
                        "write to `{}` from parallel context (declared outside the vectorized foreach) — a data race on real hardware",
                        target.name
                    );
                    self.emit(line, Instr::RaceCheck { name: msg.into() });
                }
            }
            let src = match fused {
                Some(s) => s,
                None => self.expr(value, line),
            };
            self.emit(
                line,
                Instr::Assign {
                    slot,
                    src,
                    op,
                    fused: was_fused,
                },
            );
            self.sp = sp0;
        } else {
            match self.resolve(&target.name).cloned() {
                Some(Binding::Scratch { arr }) => {
                    // Scratch element. RMW evaluates the index expressions
                    // twice (load access + store access), like the tree.
                    let value_from = self.instrs.len();
                    let src = match fused {
                        Some(s) => s,
                        None => self.expr(value, line),
                    };
                    let from = self.instrs.len();
                    let idx: Box<[u32]> = target
                        .indices
                        .iter()
                        .map(|ix| self.expr(ix, line))
                        .collect();
                    if op == AssignOp::Set && !was_fused {
                        self.emit(line, Instr::ScratchStore { arr, idx, src });
                    } else if self.instrs.len() == from {
                        // Plain-slot indices: the second index evaluation
                        // would emit nothing, so load and store fuse, and
                        // so does a multiply that computed the value just
                        // before them.
                        let product = match self.instrs.last() {
                            Some(Instr::Bin { op: BinOp::Mul, .. }) => {
                                self.take_bin(value_from, src)
                            }
                            _ => None,
                        };
                        let rhs = product.map_or(Rhs::Slot(src), |(a, b, _)| Rhs::Mul(a, b));
                        let op = combine_op(op);
                        self.emit(line, Instr::ScratchRmw { arr, idx, rhs, op });
                    } else {
                        let old = self.alloc_tmp();
                        self.emit(line, Instr::ScratchLoad { dst: old, arr, idx });
                        let combined = self.alloc_tmp();
                        self.emit(
                            line,
                            Instr::Bin {
                                dst: combined,
                                a: old,
                                b: src,
                                op: combine_op(op),
                                cvt: None,
                            },
                        );
                        let idx2: Box<[u32]> = target
                            .indices
                            .iter()
                            .map(|ix| self.expr(ix, line))
                            .collect();
                        self.emit(
                            line,
                            Instr::ScratchStore {
                                arr,
                                idx: idx2,
                                src: combined,
                            },
                        );
                    }
                    self.sp = sp0;
                }
                Some(Binding::GlobalArr { pidx }) => {
                    let src = match fused {
                        Some(s) => s,
                        None => self.expr(value, line),
                    };
                    let idx: Box<[u32]> = target
                        .indices
                        .iter()
                        .map(|ix| self.expr(ix, line))
                        .collect();
                    let store_site = self.site(line, &target.name, true);
                    let rmw = if op == AssignOp::Set && !was_fused {
                        None
                    } else {
                        let load_site = self.site(line, &target.name, false);
                        let cache = self.cache(line, &target.name);
                        Some((combine_op(op), load_site, cache))
                    };
                    self.emit(
                        line,
                        Instr::GlobalAssign {
                            pidx,
                            idx,
                            src,
                            rmw,
                            store_site,
                        },
                    );
                    self.sp = sp0;
                }
                Some(Binding::Scalar { .. }) => {
                    // Scalar shadowing an array name: the tree walker's
                    // scratch path rejects the slot kind.
                    let msg = format!("`{}` is not an array", target.name);
                    self.fail(line, msg);
                    self.sp = sp0;
                }
                None => {
                    let msg = format!("unbound array `{}`", target.name);
                    self.fail(line, msg);
                    self.sp = sp0;
                }
            }
        }
    }
}

fn combine_op(op: AssignOp) -> BinOp {
    match op {
        AssignOp::Set => unreachable!("Set is not a combine"),
        AssignOp::Add => BinOp::Add,
        AssignOp::Sub => BinOp::Sub,
        AssignOp::Mul => BinOp::Mul,
        AssignOp::Div => BinOp::Div,
    }
}

/// Mirror of the tree walker's predication heuristic: small branches that
/// only assign scalars compile to select instructions — no divergence.
fn is_predicatable(body: &[Stmt]) -> bool {
    body.len() <= 4
        && body.iter().all(|s| {
            matches!(
                &s.kind,
                StmtKind::Assign { target, .. } if target.indices.is_empty()
            )
        })
}

/// Expression instructions that cannot raise an `ExecError`.
fn infallible(i: &Instr) -> bool {
    matches!(
        i,
        Instr::Bin { .. } | Instr::Cast { .. } | Instr::Call { .. }
    )
}

/// Whether a `foreach` body (the instructions between its head and its
/// `Next`, slots not yet rebased) writes only state it owns: expression
/// temps, the variables it declares (slots from `vars` on, the loop
/// variable first) and the scratch arrays it declares (ids from `arrays`
/// on). A write to anything declared outside would carry from one
/// iteration into the next. Global stores are left to the launch, which
/// knows whether their buffers are phantom.
fn owns_writes(body: &[Instr], vars: u32, arrays: u32) -> bool {
    let slot = |s: u32| s & TMP != 0 || (s & CONST == 0 && s >= vars);
    body.iter().all(|i| match i {
        Instr::Decl { dst, .. }
        | Instr::Un { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::FmaMul { dst, .. }
        | Instr::Call { dst, .. }
        | Instr::Cast { dst, .. }
        | Instr::GlobalLoad { dst, .. }
        | Instr::ScratchLoad { dst, .. } => slot(*dst),
        Instr::Assign { slot: s, .. } | Instr::AssignJump { slot: s, .. } => slot(*s),
        Instr::ForeachVec { var, .. } | Instr::ForeachSeq { var, .. } => slot(*var),
        Instr::ScratchDecl { arr, .. }
        | Instr::ScratchStore { arr, .. }
        | Instr::ScratchRmw { arr, .. } => *arr >= arrays,
        Instr::ParamDim { .. } | Instr::ValidateDims { .. } | Instr::ResetStats | Instr::Halt => {
            false
        }
        _ => true,
    })
}

/// Rebase constant- and temp-flagged slots once the variable count
/// (`n_vars`) and the constant count (`n_consts`) are known.
fn fixup_slot(s: &mut u32, n_vars: u32, n_consts: u32) {
    if *s & TMP != 0 {
        *s = n_vars + n_consts + (*s & !TMP);
    } else if *s & CONST != 0 {
        *s = n_vars + (*s & !CONST);
    }
}

fn fixup(i: &mut Instr, n_vars: u32, n_consts: u32) {
    let f = |s: &mut u32| fixup_slot(s, n_vars, n_consts);
    match i {
        Instr::Decl { dst, src, .. } => {
            f(dst);
            if let Some(s) = src {
                f(s);
            }
        }
        Instr::Un { dst, src, .. } | Instr::Cast { dst, src, .. } => {
            f(dst);
            f(src);
        }
        Instr::Bin { dst, a, b, .. } | Instr::FmaMul { dst, a, b } => {
            f(dst);
            f(a);
            f(b);
        }
        Instr::IfTest { a, b, .. } | Instr::ForTest { a, b, .. } => {
            f(a);
            f(b);
        }
        Instr::Call { dst, args, .. } => {
            f(dst);
            for a in args.iter_mut() {
                f(a);
            }
        }
        Instr::Assign { slot, src, .. } | Instr::AssignJump { slot, src, .. } => {
            f(slot);
            f(src);
        }
        Instr::GlobalLoad { dst, idx, .. } => {
            f(dst);
            for s in idx.iter_mut() {
                f(s);
            }
        }
        Instr::GlobalAssign { idx, src, .. } => {
            f(src);
            for s in idx.iter_mut() {
                f(s);
            }
        }
        Instr::DimCheck { src, .. } | Instr::ParamDim { src } => f(src),
        Instr::ScratchLoad { dst, idx, .. } => {
            f(dst);
            for s in idx.iter_mut() {
                f(s);
            }
        }
        Instr::ScratchStore { idx, src, .. } => {
            f(src);
            for s in idx.iter_mut() {
                f(s);
            }
        }
        Instr::ScratchRmw { idx, rhs, .. } => {
            match rhs {
                Rhs::Slot(s) => f(s),
                Rhs::Mul(a, b) => {
                    f(a);
                    f(b);
                }
            }
            for s in idx.iter_mut() {
                f(s);
            }
        }
        Instr::IfCond { src, .. } | Instr::ForCond { src, .. } => f(src),
        Instr::ForeachVec { src, var, .. } | Instr::ForeachSeq { src, var, .. } => {
            f(src);
            f(var);
        }
        _ => {}
    }
}

/// Compile a checked kernel; `foreach` loops over its level's innermost
/// parallelism unit vectorize.
pub fn compile_program(ck: &CheckedKernel) -> Program {
    let mut c = Compiler {
        instrs: Vec::new(),
        lines: Vec::new(),
        scopes: vec![HashMap::new()],
        n_vars: 0,
        sp: 0,
        max_sp: 0,
        consts: Vec::new(),
        const_ids: HashMap::new(),
        scratch_ty: Vec::new(),
        sites: Vec::new(),
        site_ids: HashMap::new(),
        cache_ids: HashMap::new(),
        innermost_unit: ck.innermost_unit().name.clone(),
        vec_boundary: None,
    };

    // Base scope: parameters. Scalars get register slots; arrays resolve to
    // their argument index.
    let mut params = Vec::with_capacity(ck.kernel.params.len());
    for (i, p) in ck.kernel.params.iter().enumerate() {
        if p.is_array() {
            c.bind(&p.name, Binding::GlobalArr { pidx: i as u32 });
            params.push(PInfo {
                name: p.name.clone(),
                slot: None,
                rank: p.dims.len(),
                is_array: true,
            });
        } else {
            let slot = c.alloc_var();
            c.bind(&p.name, Binding::Scalar { slot, depth: 0 });
            params.push(PInfo {
                name: p.name.clone(),
                slot: Some(slot),
                rank: 0,
                is_array: false,
            });
        }
    }

    // Prelude: validate declared dims against the actual buffers, in
    // parameter order, then reset the counters the validation polluted.
    // (The tree walker iterates a HashMap here — nondeterministic when
    // several params mismatch at once; declaration order is one of its
    // possible orders.)
    for (i, p) in ck.kernel.params.iter().enumerate() {
        if !p.is_array() {
            continue;
        }
        for d in &p.dims {
            let sp0 = c.sp;
            let src = c.expr(d, 1);
            c.emit(1, Instr::ParamDim { src });
            c.sp = sp0;
        }
        c.emit(
            1,
            Instr::ValidateDims {
                pidx: i as u32,
                ndims: p.dims.len() as u32,
                name: p.name.as_str().into(),
            },
        );
    }
    c.emit(1, Instr::ResetStats);

    c.stmts(&ck.kernel.body);
    c.emit(ck.kernel.body.last().map_or(1, |s| s.line), Instr::Halt);

    let n_vars = c.n_vars;
    let n_consts = c.consts.len() as u32;
    for i in &mut c.instrs {
        fixup(i, n_vars, n_consts);
    }
    let consts = (n_vars..).zip(c.consts).collect();

    Program {
        kernel_name: ck.kernel.name.clone(),
        params,
        instrs: c.instrs,
        lines: c.lines,
        n_slots: (n_vars + n_consts + c.max_sp) as usize,
        consts,
        n_arrays: c.scratch_ty.len(),
        sites: c.sites,
        n_caches: c.cache_ids.len(),
    }
}
