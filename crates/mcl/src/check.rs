//! Semantic analysis for MCPL kernels.
//!
//! The checker validates a parsed kernel against a hardware-description
//! level: names resolve, types agree (with implicit int→float widening, as
//! in C), array ranks match, `foreach` statements use parallelism units the
//! level actually defines and nest outer-before-inner, `barrier()` appears
//! only inside thread-level parallelism, and `local` arrays are declared in
//! group scope. The result, [`CheckedKernel`], records the level's
//! parallelism units; it is what the compiler, both executors, the launch
//! geometry, the code generator, the analyzer and the translator consume.

use crate::ast::*;
use cashmere_hwdesc::{Hierarchy, LevelId, ParUnit};
use std::collections::HashMap;
use std::fmt;

/// Semantic error, with the source line where known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MCPL check error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for CheckError {}

/// Type of an expression or variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    Int,
    Float,
    /// Array of `ElemTy` with the given rank; arrays are not first-class
    /// values — they only appear indexed or as call-free parameters.
    Array(ElemTy, usize),
}

impl Ty {
    fn scalar(e: ElemTy) -> Ty {
        match e {
            ElemTy::Int => Ty::Int,
            ElemTy::Float => Ty::Float,
        }
    }
}

/// A checked kernel, ready for interpretation/translation.
#[derive(Debug, Clone)]
pub struct CheckedKernel {
    pub kernel: Kernel,
    /// Level the kernel is written for, resolved in the hierarchy.
    pub level: LevelId,
    /// Parallelism units of that level, outer → inner; never empty.
    pub par_units: Vec<ParUnit>,
    /// Names of scalar int parameters (usable in array dims).
    pub scalar_params: Vec<String>,
    /// Array parameters with their element type and rank.
    pub array_params: Vec<(String, ElemTy, usize)>,
}

impl CheckedKernel {
    /// The innermost parallelism unit of the kernel's level: its
    /// `foreach` vectorizes, and its literal count pins the group size.
    pub fn innermost_unit(&self) -> &ParUnit {
        self.par_units
            .last()
            .expect("check rejects levels without parallelism units")
    }
}

/// Builtin function signatures: `(name, arity, float_result)`.
/// `min`/`max`/`abs` are polymorphic (int if all args int).
const BUILTINS: &[(&str, usize)] = &[
    ("sqrt", 1),
    ("rsqrt", 1),
    ("fabs", 1),
    ("floor", 1),
    ("exp", 1),
    ("log", 1),
    ("sin", 1),
    ("cos", 1),
    ("tan", 1),
    ("pow", 2),
    ("min", 2),
    ("max", 2),
    ("abs", 1),
    ("clamp", 3),
];

struct Scope {
    vars: Vec<HashMap<String, Ty>>,
}

impl Scope {
    fn new() -> Self {
        Scope {
            vars: vec![HashMap::new()],
        }
    }

    fn push(&mut self) {
        self.vars.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.vars.pop();
    }

    fn declare(&mut self, name: &str, ty: Ty, line: usize) -> Result<(), CheckError> {
        let top = self.vars.last_mut().expect("scope stack never empty");
        if top.contains_key(name) {
            return Err(CheckError {
                line,
                message: format!("`{name}` already declared in this scope"),
            });
        }
        top.insert(name.to_string(), ty);
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<Ty> {
        self.vars.iter().rev().find_map(|m| m.get(name).copied())
    }
}

struct Checker<'u> {
    /// Parallelism units the kernel's level exposes, outer → inner.
    par_units: &'u [ParUnit],
    scope: Scope,
    /// Stack of foreach unit indices currently open.
    foreach_stack: Vec<usize>,
}

impl Checker<'_> {
    fn err(&self, line: usize, msg: impl Into<String>) -> CheckError {
        CheckError {
            line,
            message: msg.into(),
        }
    }

    fn check_body(&mut self, body: &[Stmt]) -> Result<(), CheckError> {
        self.scope.push();
        for s in body {
            self.check_stmt(s)?;
        }
        self.scope.pop();
        Ok(())
    }

    fn check_stmt(&mut self, s: &Stmt) -> Result<(), CheckError> {
        let line = s.line;
        match &s.kind {
            StmtKind::DeclScalar { ty, name, init } => {
                if let Some(e) = init {
                    let ety = self.expr_ty(e, line)?;
                    self.check_assignable(Ty::scalar(*ty), ety, line, name)?;
                }
                self.scope.declare(name, Ty::scalar(*ty), line)
            }
            StmtKind::DeclArray {
                space,
                ty,
                name,
                dims,
            } => {
                if *space == Space::Local && self.foreach_stack.is_empty() {
                    return Err(self.err(line, "`local` arrays must be declared inside a foreach"));
                }
                for d in dims {
                    let dty = self.expr_ty(d, line)?;
                    if dty != Ty::Int {
                        return Err(self.err(line, format!("array `{name}` dimension must be int")));
                    }
                }
                self.scope.declare(name, Ty::Array(*ty, dims.len()), line)
            }
            StmtKind::Assign {
                target,
                op: _,
                value,
            } => {
                let tty = self.lvalue_ty(target, line)?;
                let vty = self.expr_ty(value, line)?;
                self.check_assignable(tty, vty, line, &target.name)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cty = self.expr_ty(cond, line)?;
                if matches!(cty, Ty::Array(..)) {
                    return Err(self.err(line, "if condition cannot be an array"));
                }
                self.check_body(then_branch)?;
                self.check_body(else_branch)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scope.push();
                if let Some(i) = init {
                    self.check_stmt(i)?;
                }
                if let Some(c) = cond {
                    let cty = self.expr_ty(c, line)?;
                    if matches!(cty, Ty::Array(..)) {
                        return Err(self.err(line, "for condition cannot be an array"));
                    }
                }
                if let Some(st) = step {
                    self.check_stmt(st)?;
                }
                self.check_body(body)?;
                self.scope.pop();
                Ok(())
            }
            StmtKind::Foreach {
                var,
                count,
                unit,
                body,
            } => {
                let cty = self.expr_ty(count, line)?;
                if cty != Ty::Int {
                    return Err(self.err(line, "foreach count must be int"));
                }
                let idx = self
                    .par_units
                    .iter()
                    .position(|u| u.name == *unit)
                    .ok_or_else(|| {
                        let available: Vec<&str> =
                            self.par_units.iter().map(|u| u.name.as_str()).collect();
                        self.err(
                            line,
                            format!(
                                "parallelism unit `{unit}` not defined at this level (available: {})",
                                available.join(", ")
                            ),
                        )
                    })?;
                if let Some(&outer) = self.foreach_stack.last() {
                    if idx < outer {
                        return Err(self.err(
                            line,
                            format!(
                                "foreach over `{unit}` cannot nest inside `{}` (outer units first)",
                                self.par_units[outer].name
                            ),
                        ));
                    }
                }
                self.foreach_stack.push(idx);
                self.scope.push();
                self.scope.declare(var, Ty::Int, line)?;
                for st in body {
                    self.check_stmt(st)?;
                }
                self.scope.pop();
                self.foreach_stack.pop();
                Ok(())
            }
            StmtKind::Barrier => {
                let innermost_is_threadlike = self
                    .foreach_stack
                    .last()
                    .map(|&i| i == self.par_units.len() - 1)
                    .unwrap_or(false);
                if !innermost_is_threadlike {
                    return Err(self.err(
                        line,
                        "barrier() only inside the innermost parallelism unit's foreach",
                    ));
                }
                Ok(())
            }
        }
    }

    fn check_assignable(
        &self,
        target: Ty,
        value: Ty,
        line: usize,
        name: &str,
    ) -> Result<(), CheckError> {
        match (target, value) {
            (Ty::Int, Ty::Int) | (Ty::Float, Ty::Float) | (Ty::Float, Ty::Int) => Ok(()),
            (Ty::Int, Ty::Float) => Err(self.err(
                line,
                format!("implicit float→int narrowing assigning to `{name}` (use a cast)"),
            )),
            _ => Err(self.err(line, format!("cannot assign to `{name}`: type mismatch"))),
        }
    }

    fn lvalue_ty(&mut self, lv: &LValue, line: usize) -> Result<Ty, CheckError> {
        let base = self
            .scope
            .lookup(&lv.name)
            .ok_or_else(|| self.err(line, format!("unknown variable `{}`", lv.name)))?;
        if lv.indices.is_empty() {
            if matches!(base, Ty::Array(..)) {
                return Err(self.err(line, format!("cannot assign whole array `{}`", lv.name)));
            }
            Ok(base)
        } else {
            match base {
                Ty::Array(elem, rank) => {
                    if lv.indices.len() != rank {
                        return Err(self.err(
                            line,
                            format!(
                                "`{}` has rank {rank}, indexed with {} indices",
                                lv.name,
                                lv.indices.len()
                            ),
                        ));
                    }
                    for ix in &lv.indices {
                        if self.expr_ty(ix, line)? != Ty::Int {
                            return Err(self.err(line, "array index must be int"));
                        }
                    }
                    Ok(Ty::scalar(elem))
                }
                _ => Err(self.err(line, format!("`{}` is not an array", lv.name))),
            }
        }
    }

    fn expr_ty(&self, e: &Expr, line: usize) -> Result<Ty, CheckError> {
        match e {
            Expr::IntLit(_) => Ok(Ty::Int),
            Expr::FloatLit(_) => Ok(Ty::Float),
            Expr::Var(name) => self
                .scope
                .lookup(name)
                .ok_or_else(|| self.err(line, format!("unknown variable `{name}`"))),
            Expr::Index { array, indices } => {
                let base = self
                    .scope
                    .lookup(array)
                    .ok_or_else(|| self.err(line, format!("unknown array `{array}`")))?;
                match base {
                    Ty::Array(elem, rank) => {
                        if indices.len() != rank {
                            return Err(self.err(
                                line,
                                format!(
                                    "`{array}` has rank {rank}, indexed with {} indices",
                                    indices.len()
                                ),
                            ));
                        }
                        for ix in indices {
                            if self.expr_ty(ix, line)? != Ty::Int {
                                return Err(self.err(line, "array index must be int"));
                            }
                        }
                        Ok(Ty::scalar(elem))
                    }
                    _ => Err(self.err(line, format!("`{array}` is not an array"))),
                }
            }
            Expr::Unary { op, operand } => {
                let t = self.expr_ty(operand, line)?;
                match op {
                    UnOp::Neg => match t {
                        Ty::Int | Ty::Float => Ok(t),
                        _ => Err(self.err(line, "cannot negate an array")),
                    },
                    UnOp::Not | UnOp::BitNot => {
                        if t == Ty::Int {
                            Ok(Ty::Int)
                        } else {
                            Err(self.err(line, "logical/bit operators need int operands"))
                        }
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let lt = self.expr_ty(lhs, line)?;
                let rt = self.expr_ty(rhs, line)?;
                if matches!(lt, Ty::Array(..)) || matches!(rt, Ty::Array(..)) {
                    return Err(self.err(line, "arrays are not scalar operands"));
                }
                if op.int_only() {
                    if lt != Ty::Int || rt != Ty::Int {
                        return Err(
                            self.err(line, format!("operator {op:?} requires int operands"))
                        );
                    }
                    return Ok(Ty::Int);
                }
                if op.is_comparison() {
                    return Ok(Ty::Int);
                }
                if lt == Ty::Float || rt == Ty::Float {
                    Ok(Ty::Float)
                } else {
                    Ok(Ty::Int)
                }
            }
            Expr::Call { name, args } => {
                let (_, arity) = BUILTINS
                    .iter()
                    .find(|(n, _)| n == name)
                    .ok_or_else(|| self.err(line, format!("unknown builtin `{name}`")))?;
                if args.len() != *arity {
                    return Err(self.err(
                        line,
                        format!("`{name}` takes {arity} arguments, got {}", args.len()),
                    ));
                }
                let mut all_int = true;
                for a in args {
                    match self.expr_ty(a, line)? {
                        Ty::Int => {}
                        Ty::Float => all_int = false,
                        Ty::Array(..) => {
                            return Err(self.err(line, "arrays are not call arguments"))
                        }
                    }
                }
                // min/max/abs/clamp are polymorphic; everything else is float.
                let poly = matches!(name.as_str(), "min" | "max" | "abs" | "clamp");
                if poly && all_int {
                    Ok(Ty::Int)
                } else {
                    Ok(Ty::Float)
                }
            }
            Expr::Cast { to, operand } => {
                let t = self.expr_ty(operand, line)?;
                if matches!(t, Ty::Array(..)) {
                    return Err(self.err(line, "cannot cast an array"));
                }
                Ok(Ty::scalar(*to))
            }
        }
    }
}

/// Check a kernel against the hierarchy. The kernel's `level` field names
/// the hardware description it is written for.
pub fn check(kernel: &Kernel, hierarchy: &Hierarchy) -> Result<CheckedKernel, CheckError> {
    let level = hierarchy.id(&kernel.level).ok_or_else(|| CheckError {
        line: 1,
        message: format!("unknown hardware description `{}`", kernel.level),
    })?;
    let par_units = hierarchy.effective_params(level).par_units;
    if par_units.is_empty() {
        return Err(CheckError {
            line: 1,
            message: format!("level `{}` defines no parallelism units", kernel.level),
        });
    }

    let mut checker = Checker {
        par_units: &par_units,
        scope: Scope::new(),
        foreach_stack: Vec::new(),
    };

    // Parameters: scalars first in scope, then arrays (dims may reference
    // any scalar parameter).
    let mut scalar_params = Vec::new();
    let mut array_params = Vec::new();
    for p in &kernel.params {
        if !p.is_array() {
            checker.scope.declare(&p.name, Ty::scalar(p.elem), 1)?;
            if p.elem == ElemTy::Int {
                scalar_params.push(p.name.clone());
            }
        }
    }
    for p in &kernel.params {
        if p.is_array() {
            for d in &p.dims {
                let t = checker.expr_ty(d, 1)?;
                if t != Ty::Int {
                    return Err(CheckError {
                        line: 1,
                        message: format!("array `{}` dims must be int expressions", p.name),
                    });
                }
            }
            checker
                .scope
                .declare(&p.name, Ty::Array(p.elem, p.dims.len()), 1)?;
            array_params.push((p.name.clone(), p.elem, p.dims.len()));
        }
    }

    checker.check_body(&kernel.body)?;

    Ok(CheckedKernel {
        kernel: kernel.clone(),
        level,
        par_units,
        scalar_params,
        array_params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use cashmere_hwdesc::standard_hierarchy;

    fn check_src(src: &str) -> Result<CheckedKernel, CheckError> {
        let h = standard_hierarchy();
        let k = parse(src).map_err(|e| CheckError {
            line: e.line,
            message: e.message,
        })?;
        check(&k, &h)
    }

    #[test]
    fn fig3_checks() {
        let ck = check_src(
            "perfect void matmul(int n, int m, int p, float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      float sum = 0.0;
      for (int k = 0; k < p; k++) { sum += a[i,k] * b[k,j]; }
      c[i,j] += sum;
    }
  }
}",
        )
        .unwrap();
        assert_eq!(ck.scalar_params, vec!["n", "m", "p"]);
        assert_eq!(ck.array_params.len(), 3);
    }

    #[test]
    fn kernels_record_their_levels_units_outer_to_inner() {
        let units = |ck: &CheckedKernel| -> Vec<(String, Option<u64>)> {
            ck.par_units
                .iter()
                .map(|u| (u.name.clone(), u.max))
                .collect()
        };
        let unit = |name: &str, max: Option<u64>| (name.to_string(), max);
        let perfect = check_src(
            "perfect void t(int n, float[n] a) { foreach (int i in n threads) { a[i] = 0.0; } }",
        )
        .unwrap();
        assert_eq!(units(&perfect), [unit("threads", None)]);
        assert_eq!(perfect.innermost_unit().name, "threads");
        let gpu = check_src(
            "gpu void t(int n, float[n] a) { foreach (int b in n blocks) { a[b] = 0.0; } }",
        )
        .unwrap();
        assert_eq!(
            units(&gpu),
            [unit("blocks", None), unit("threads", Some(1024))]
        );
        let mic = check_src("mic void t(int n) { }").unwrap();
        assert_eq!(
            units(&mic),
            [unit("cores", Some(61)), unit("threads", Some(64))]
        );
        let h = standard_hierarchy();
        for (target, want) in [("gpu", &gpu), ("xeon_phi", &mic), ("perfect", &perfect)] {
            let t = crate::translate::translate_to(&perfect, &h, target).unwrap();
            assert_eq!(units(&t), units(want), "{target}");
        }
    }

    #[test]
    fn unknown_level_rejected() {
        let err = check_src("nonsense void t(int n) { }").unwrap_err();
        assert!(err.message.contains("unknown hardware description"));
    }

    #[test]
    fn unknown_unit_rejected() {
        let err = check_src(
            "perfect void t(int n, float[n] a) { foreach (int i in n blocks) { a[i] = 0.0; } }",
        )
        .unwrap_err();
        assert!(err.message.contains("`blocks` not defined"), "{err}");
    }

    #[test]
    fn gpu_units_nest_outer_first() {
        // blocks-inside-threads is rejected…
        let err = check_src(
            "gpu void t(int n, float[n] a) {
  foreach (int t in 256 threads) {
    foreach (int b in n blocks) { a[b] = 0.0; }
  }
}",
        )
        .unwrap_err();
        assert!(err.message.contains("cannot nest"), "{err}");
        // …threads-inside-blocks is fine.
        assert!(check_src(
            "gpu void t(int n, float[n] a) {
  foreach (int b in n / 256 blocks) {
    foreach (int t in 256 threads) { a[b * 256 + t] = 0.0; }
  }
}",
        )
        .is_ok());
    }

    #[test]
    fn barrier_needs_thread_foreach() {
        let err = check_src("gpu void t(int n) { barrier(); }").unwrap_err();
        assert!(err.message.contains("barrier"), "{err}");
        let err2 = check_src(
            "gpu void t(int n, float[n] a) { foreach (int b in n blocks) { barrier(); } }",
        )
        .unwrap_err();
        assert!(err2.message.contains("barrier"), "{err2}");
    }

    #[test]
    fn narrowing_assignment_rejected() {
        let err = check_src(
            "perfect void t(int n, int[n] a) { foreach (int i in n threads) { a[i] = 1.5; } }",
        )
        .unwrap_err();
        assert!(err.message.contains("narrowing"), "{err}");
        // with a cast it is fine
        assert!(check_src(
            "perfect void t(int n, int[n] a) { foreach (int i in n threads) { a[i] = (int) 1.5; } }"
        )
        .is_ok());
    }

    #[test]
    fn rank_mismatch_rejected() {
        let err = check_src(
            "perfect void t(int n, float[n,n] a) { foreach (int i in n threads) { a[i] = 0.0; } }",
        )
        .unwrap_err();
        assert!(err.message.contains("rank 2"), "{err}");
    }

    #[test]
    fn unknown_variable_and_builtin() {
        let err = check_src(
            "perfect void t(int n, float[n] a) { foreach (int i in n threads) { a[i] = bogus; } }",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown variable"));
        let err2 = check_src(
            "perfect void t(int n, float[n] a) { foreach (int i in n threads) { a[i] = frob(1.0); } }",
        )
        .unwrap_err();
        assert!(err2.message.contains("unknown builtin"));
    }

    #[test]
    fn int_only_ops_reject_floats() {
        let err = check_src(
            "perfect void t(int n, float[n] a) { foreach (int i in n threads) { int x = i % 2; a[i] = 0.0; x = x << 1; float f = a[i]; x = x & (int) f; int y = i % (int) a[i]; } }",
        );
        assert!(err.is_ok(), "{err:?}");
        let err2 = check_src(
            "perfect void t(int n, float[n] a) { foreach (int i in n threads) { a[i] = a[i] % 2.0; } }",
        )
        .unwrap_err();
        assert!(err2.message.contains("requires int"), "{err2}");
    }

    #[test]
    fn local_outside_foreach_rejected() {
        let err = check_src("gpu void t(int n) { local float tile[16]; }").unwrap_err();
        assert!(err.message.contains("inside a foreach"), "{err}");
    }

    #[test]
    fn shadowing_in_same_scope_rejected() {
        let err = check_src(
            "perfect void t(int n, float[n] a) { foreach (int i in n threads) { float x = 0.0; float x = 1.0; a[i] = x; } }",
        )
        .unwrap_err();
        assert!(err.message.contains("already declared"), "{err}");
    }

    #[test]
    fn polymorphic_min_max() {
        let ck = check_src(
            "perfect void t(int n, int[n] a, float[n] b) { foreach (int i in n threads) { a[i] = min(a[i], 3); b[i] = max(b[i], 0.0); } }",
        );
        assert!(ck.is_ok(), "{ck:?}");
    }
}
