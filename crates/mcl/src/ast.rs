//! Abstract syntax tree of MCPL, the Many-Core Programming Language.
//!
//! MCPL is the C-like kernel language of the paper's Fig. 3: functions with
//! multi-dimensional arrays that carry their sizes, `foreach` statements that
//! express parallelism in terms of a hardware description's parallelism
//! units (`threads`, `blocks`, `cores`), `local` scratch arrays and
//! `barrier()` synchronization.

use serde::{Deserialize, Serialize};

/// Element type of scalars and arrays. MCPL floats are single precision
/// conceptually; the interpreter computes in `f64` for convenience.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElemTy {
    Int,
    Float,
}

impl ElemTy {
    pub fn name(self) -> &'static str {
        match self {
            ElemTy::Int => "int",
            ElemTy::Float => "float",
        }
    }
}

/// Where an array lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Space {
    /// Device global memory (kernel parameters live here).
    Global,
    /// Per-work-group scratch memory (`local float tile[16,16];`).
    Local,
    /// Thread-private (scalar declarations, private arrays).
    Private,
}

/// A kernel parameter: scalar when `dims` is empty, array otherwise. Array
/// dimensions are expressions over earlier scalar parameters, mirroring the
/// paper's `float[n,m] c` notation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    pub name: String,
    pub elem: ElemTy,
    pub dims: Vec<Expr>,
}

impl Param {
    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }
}

/// A complete kernel: written for hardware-description `level`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    pub level: String,
    pub name: String,
    pub params: Vec<Param>,
    pub body: Vec<Stmt>,
}

/// Statement with source line (1-based) for feedback messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stmt {
    pub line: usize,
    pub kind: StmtKind,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StmtKind {
    /// `float sum = 0.0;` / `int i;`
    DeclScalar {
        ty: ElemTy,
        name: String,
        init: Option<Expr>,
    },
    /// `local float tile[16,16];` / `float acc[4];`
    DeclArray {
        space: Space,
        ty: ElemTy,
        name: String,
        dims: Vec<Expr>,
    },
    /// `x = e;`, `a[i,j] += e;`
    Assign {
        target: LValue,
        op: AssignOp,
        value: Expr,
    },
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    },
    /// C-style `for (init; cond; step) { … }`.
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Box<Stmt>>,
        body: Vec<Stmt>,
    },
    /// `foreach (int i in n threads) { … }` — parallel domain of size
    /// `count`, mapped onto the parallelism unit named `unit`.
    Foreach {
        var: String,
        count: Expr,
        unit: String,
        body: Vec<Stmt>,
    },
    /// `barrier();` — work-group synchronization.
    Barrier,
}

/// Assignment target: scalar variable or array element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LValue {
    pub name: String,
    pub indices: Vec<Expr>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AssignOp {
    Set,
    Add,
    Sub,
    Mul,
    Div,
}

impl AssignOp {
    /// The operator's source symbol, the same in MCPL and OpenCL C.
    pub fn symbol(self) -> &'static str {
        match self {
            AssignOp::Set => "=",
            AssignOp::Add => "+=",
            AssignOp::Sub => "-=",
            AssignOp::Mul => "*=",
            AssignOp::Div => "/=",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    IntLit(i64),
    FloatLit(f64),
    Var(String),
    /// `a[i,j]`
    Index {
        array: String,
        indices: Vec<Expr>,
    },
    Unary {
        op: UnOp,
        operand: Box<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Builtin call: `sqrt(x)`, `min(a,b)`, …
    Call {
        name: String,
        args: Vec<Expr>,
    },
    /// `(int) e` / `(float) e`
    Cast {
        to: ElemTy,
        operand: Box<Expr>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnOp {
    Neg,
    Not,
    BitNot,
}

impl UnOp {
    /// The operator's source symbol, the same in MCPL and OpenCL C.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// The operator's source symbol, the same in MCPL and OpenCL C.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }

    /// Does this operator produce a boolean (represented as int 0/1)?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Is this operator only defined on integers?
    pub fn int_only(self) -> bool {
        matches!(
            self,
            BinOp::Mod
                | BinOp::BitAnd
                | BinOp::BitOr
                | BinOp::BitXor
                | BinOp::Shl
                | BinOp::Shr
                | BinOp::And
                | BinOp::Or
        )
    }
}

impl Expr {
    /// Convenience constructors used by the level translator.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    pub fn int(v: i64) -> Expr {
        Expr::IntLit(v)
    }

    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }
}

impl Stmt {
    pub fn new(line: usize, kind: StmtKind) -> Stmt {
        Stmt { line, kind }
    }
}

/// Walk all statements in a body (depth-first), calling `f` on each.
pub fn walk_stmts<'a>(body: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in body {
        f(s);
        match &s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                walk_stmts(then_branch, f);
                walk_stmts(else_branch, f);
            }
            StmtKind::For {
                init, step, body, ..
            } => {
                if let Some(i) = init {
                    f(i);
                }
                if let Some(st) = step {
                    f(st);
                }
                walk_stmts(body, f);
            }
            StmtKind::Foreach { body, .. } => walk_stmts(body, f),
            _ => {}
        }
    }
}

/// Count the nesting structure of `foreach` units used by a kernel, in
/// source order of first appearance (outer first).
pub fn foreach_units(kernel: &Kernel) -> Vec<String> {
    let mut units = Vec::new();
    walk_stmts(&kernel.body, &mut |s| {
        if let StmtKind::Foreach { unit, .. } = &s.kind {
            if !units.contains(unit) {
                units.push(unit.clone());
            }
        }
    });
    units
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::Shl.int_only());
        assert!(!BinOp::Mul.int_only());
    }

    #[test]
    fn walk_visits_nested() {
        let body = vec![Stmt::new(
            1,
            StmtKind::Foreach {
                var: "i".into(),
                count: Expr::var("n"),
                unit: "threads".into(),
                body: vec![Stmt::new(
                    2,
                    StmtKind::If {
                        cond: Expr::int(1),
                        then_branch: vec![Stmt::new(3, StmtKind::Barrier)],
                        else_branch: vec![],
                    },
                )],
            },
        )];
        let mut count = 0;
        walk_stmts(&body, &mut |_| count += 1);
        assert_eq!(count, 3);
    }

    #[test]
    fn foreach_units_ordered_outer_first() {
        let k = Kernel {
            level: "gpu".into(),
            name: "t".into(),
            params: vec![],
            body: vec![Stmt::new(
                1,
                StmtKind::Foreach {
                    var: "b".into(),
                    count: Expr::int(4),
                    unit: "blocks".into(),
                    body: vec![Stmt::new(
                        2,
                        StmtKind::Foreach {
                            var: "t".into(),
                            count: Expr::int(64),
                            unit: "threads".into(),
                            body: vec![],
                        },
                    )],
                },
            )],
        };
        assert_eq!(foreach_units(&k), vec!["blocks", "threads"]);
    }
}
