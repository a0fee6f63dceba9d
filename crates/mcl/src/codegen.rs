//! OpenCL code generation (paper Sec. III-A: "generating OpenCL code").
//!
//! For each leaf of the hierarchy MCL emits OpenCL C from whatever level the
//! kernel was written at. In this reproduction the *executed* artifact is
//! the interpreter (there is no OpenCL runtime in the simulation), but the
//! generator is still implemented faithfully so that the toolchain round
//! trip — MCPL in, OpenCL out — can be inspected and tested:
//!
//! * multi-dimensional array parameters become `__global` pointers plus
//!   explicit row-major linearization at every access;
//! * outer-unit `foreach` becomes a `get_group_id` grid-stride loop, the
//!   innermost-unit `foreach` a `get_local_id` loop;
//! * `local` arrays become `__local` declarations, `barrier()` becomes
//!   `barrier(CLK_LOCAL_MEM_FENCE)`.

use crate::ast::*;
use crate::check::CheckedKernel;
use std::collections::HashMap;
use std::fmt::Write as _;

struct Gen<'a> {
    out: String,
    indent: usize,
    /// Array name → dimension expressions, for index linearization.
    dims: HashMap<String, Vec<Expr>>,
    /// The kernel level's innermost parallelism unit.
    innermost: &'a str,
}

impl Gen<'_> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn expr(&self, e: &Expr) -> String {
        match e {
            Expr::IntLit(v) => v.to_string(),
            Expr::FloatLit(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}f")
                } else {
                    format!("{v}f")
                }
            }
            Expr::Var(n) => n.clone(),
            Expr::Index { array, indices } => {
                format!("{array}[{}]", self.linearize(array, indices))
            }
            Expr::Unary { op, operand } => {
                format!("{}({})", op.symbol(), self.expr(operand))
            }
            Expr::Binary { op, lhs, rhs } => {
                format!("({} {} {})", self.expr(lhs), op.symbol(), self.expr(rhs))
            }
            Expr::Call { name, args } => {
                let cl_name = name.as_str();
                let args: Vec<String> = args.iter().map(|a| self.expr(a)).collect();
                format!("{cl_name}({})", args.join(", "))
            }
            Expr::Cast { to, operand } => format!("({})({})", to.name(), self.expr(operand)),
        }
    }

    /// Row-major linearization of a multi-dim index.
    fn linearize(&self, array: &str, indices: &[Expr]) -> String {
        let dims = match self.dims.get(array) {
            Some(d) => d,
            None => {
                return indices
                    .iter()
                    .map(|i| self.expr(i))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        };
        let mut acc = self.expr(&indices[0]);
        for (k, idx) in indices.iter().enumerate().skip(1) {
            acc = format!("({acc}) * ({}) + ({})", self.expr(&dims[k]), self.expr(idx));
        }
        acc
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::DeclScalar { ty, name, init } => match init {
                Some(e) => {
                    let e = self.expr(e);
                    self.line(&format!("{} {name} = {e};", ty.name()));
                }
                None => self.line(&format!("{} {name};", ty.name())),
            },
            StmtKind::DeclArray {
                space,
                ty,
                name,
                dims,
            } => {
                let qual = match space {
                    Space::Local => "__local ",
                    _ => "",
                };
                let total = dims
                    .iter()
                    .map(|d| format!("({})", self.expr(d)))
                    .collect::<Vec<_>>()
                    .join(" * ");
                self.dims.insert(name.clone(), dims.clone());
                self.line(&format!("{qual}{} {name}[{total}];", ty.name()));
            }
            StmtKind::Assign { target, op, value } => {
                let t = if target.indices.is_empty() {
                    target.name.clone()
                } else {
                    format!(
                        "{}[{}]",
                        target.name,
                        self.linearize(&target.name, &target.indices)
                    )
                };
                let v = self.expr(value);
                self.line(&format!("{t} {} {v};", op.symbol()));
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.expr(cond);
                self.line(&format!("if ({c}) {{"));
                self.indent += 1;
                for st in then_branch {
                    self.stmt(st);
                }
                self.indent -= 1;
                if else_branch.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.indent += 1;
                    for st in else_branch {
                        self.stmt(st);
                    }
                    self.indent -= 1;
                    self.line("}");
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let i = init.as_ref().map_or(String::new(), |s| self.inline_stmt(s));
                let c = cond.as_ref().map_or(String::new(), |e| self.expr(e));
                let st = step.as_ref().map_or(String::new(), |s| self.inline_stmt(s));
                self.line(&format!("for ({i}; {c}; {st}) {{"));
                self.indent += 1;
                for b in body {
                    self.stmt(b);
                }
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::Foreach {
                var,
                count,
                unit,
                body,
            } => {
                let innermost = *unit == self.innermost;
                let mut has_inner = false;
                walk_stmts(body, &mut |t| {
                    if matches!(t.kind, StmtKind::Foreach { .. }) {
                        has_inner = true;
                    }
                });
                let c = self.expr(count);
                let (id_fn, size_fn) = if innermost && !has_inner {
                    ("get_local_id(0)", "get_local_size(0)")
                } else {
                    ("get_group_id(0)", "get_num_groups(0)")
                };
                self.line(&format!("/* foreach ({var} in {c} {unit}) */"));
                self.line(&format!(
                    "for (int {var} = {id_fn}; {var} < ({c}); {var} += {size_fn}) {{"
                ));
                self.indent += 1;
                for b in body {
                    self.stmt(b);
                }
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::Barrier => self.line("barrier(CLK_LOCAL_MEM_FENCE);"),
        }
    }

    /// Render a statement without indentation/newline (for `for` headers).
    fn inline_stmt(&mut self, s: &Stmt) -> String {
        let saved = std::mem::take(&mut self.out);
        let ind = std::mem::replace(&mut self.indent, 0);
        self.stmt(s);
        let mut rendered = std::mem::replace(&mut self.out, saved);
        self.indent = ind;
        // strip trailing ";\n"
        rendered.truncate(rendered.trim_end().trim_end_matches(';').len());
        rendered
    }
}

/// Generate OpenCL C source for a checked kernel.
pub fn generate_opencl(ck: &CheckedKernel) -> String {
    let mut g = Gen {
        out: String::new(),
        indent: 0,
        dims: HashMap::new(),
        innermost: &ck.innermost_unit().name,
    };

    let _ = writeln!(
        g.out,
        "// Generated by cashmere-mcl from level `{}`.",
        ck.kernel.level
    );
    let mut params = Vec::new();
    for p in &ck.kernel.params {
        if p.is_array() {
            g.dims.insert(p.name.clone(), p.dims.clone());
            params.push(format!("__global {}* {}", p.elem.name(), p.name));
        } else {
            params.push(format!("{} {}", p.elem.name(), p.name));
        }
    }
    let _ = writeln!(
        g.out,
        "__kernel void {}({}) {{",
        ck.kernel.name,
        params.join(", ")
    );
    g.indent = 1;
    for s in &ck.kernel.body {
        g.stmt(s);
    }
    g.indent = 0;
    g.line("}");
    g.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use cashmere_hwdesc::standard_hierarchy;

    #[test]
    fn fig3_generates_plausible_opencl() {
        let h = standard_hierarchy();
        let ck = compile(
            "perfect void matmul(int n, int m, int p, float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      float sum = 0.0;
      for (int k = 0; k < p; k++) { sum += a[i,k] * b[k,j]; }
      c[i,j] += sum;
    }
  }
}",
            &h,
        )
        .unwrap();
        let cl = generate_opencl(&ck);
        assert!(cl.contains("__kernel void matmul"));
        assert!(cl.contains("__global float* c"));
        // 2-D access linearized row-major: a[i,k] → a[(i) * (p) + (k)]
        assert!(cl.contains("a[(i) * (p) + (k)]"), "{cl}");
        assert!(cl.contains("get_local_id(0)"), "{cl}");
        assert!(cl.contains("get_group_id(0)"), "{cl}");
        assert!(cl.contains("for (int k = 0; (k < p); k += 1)"), "{cl}");
    }

    #[test]
    fn local_and_barrier_mapped() {
        let h = standard_hierarchy();
        let ck = compile(
            "gpu void t(int n, float[n] a) {
  foreach (int b in n / 64 blocks) {
    local float tile[64];
    foreach (int t in 64 threads) {
      tile[t] = a[b * 64 + t];
      barrier();
      a[b * 64 + t] = tile[63 - t];
    }
  }
}",
            &h,
        )
        .unwrap();
        let cl = generate_opencl(&ck);
        assert!(cl.contains("__local float tile[(64)];"), "{cl}");
        assert!(cl.contains("barrier(CLK_LOCAL_MEM_FENCE);"), "{cl}");
    }

    #[test]
    fn casts_and_builtins_render() {
        let h = standard_hierarchy();
        let ck = compile(
            "perfect void t(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = sqrt(fabs((float) i)) + min(a[i], 2.0);
  }
}",
            &h,
        )
        .unwrap();
        let cl = generate_opencl(&ck);
        assert!(cl.contains("sqrt("));
        assert!(cl.contains("(float)(i)"), "{cl}");
        assert!(cl.contains("min("));
    }
}
