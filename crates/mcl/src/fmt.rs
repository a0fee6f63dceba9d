//! MCPL pretty-printer: render an AST back to (canonical) MCPL source.
//!
//! Round-tripping `parse ∘ print` is the identity on ASTs — a property the
//! test suite checks both on the shipped application kernels and on
//! generated programs. The printer is also what the level translator's
//! output looks like when shown to a programmer continuing the
//! stepwise-refinement process at the lower level.

use crate::ast::*;
use std::fmt::Write as _;

/// Operator precedence used to minimize parentheses.
fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::BitOr => 3,
        BinOp::BitXor => 4,
        BinOp::BitAnd => 5,
        BinOp::Eq | BinOp::Ne => 6,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 7,
        BinOp::Shl | BinOp::Shr => 8,
        BinOp::Add | BinOp::Sub => 9,
        BinOp::Mul | BinOp::Div | BinOp::Mod => 10,
    }
}

/// Render an expression; parenthesize children of lower precedence.
pub fn expr_to_string(e: &Expr) -> String {
    fn go(e: &Expr, parent_prec: u8) -> String {
        match e {
            Expr::IntLit(v) => v.to_string(),
            Expr::FloatLit(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Expr::Var(n) => n.clone(),
            Expr::Index { array, indices } => {
                let idx: Vec<String> = indices.iter().map(|i| go(i, 0)).collect();
                format!("{array}[{}]", idx.join(","))
            }
            Expr::Unary { op, operand } => {
                // Unary binds tighter than any binary operator.
                format!("{}{}", op.symbol(), go(operand, 11))
            }
            Expr::Binary { op, lhs, rhs } => {
                let p = prec(*op);
                // Left-associative: the right child needs parens at equal
                // precedence.
                let s = format!("{} {} {}", go(lhs, p), op.symbol(), go(rhs, p + 1));
                if p < parent_prec {
                    format!("({s})")
                } else {
                    s
                }
            }
            Expr::Call { name, args } => {
                let a: Vec<String> = args.iter().map(|x| go(x, 0)).collect();
                format!("{name}({})", a.join(", "))
            }
            Expr::Cast { to, operand } => format!("({}) {}", to.name(), go(operand, 11)),
        }
    }
    go(e, 0)
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::DeclScalar { ty, name, init } => match init {
                Some(e) => self.line(&format!("{} {name} = {};", ty.name(), expr_to_string(e))),
                None => self.line(&format!("{} {name};", ty.name())),
            },
            StmtKind::DeclArray {
                space,
                ty,
                name,
                dims,
            } => {
                let qual = if *space == Space::Local { "local " } else { "" };
                let d: Vec<String> = dims.iter().map(expr_to_string).collect();
                self.line(&format!("{qual}{} {name}[{}];", ty.name(), d.join(",")));
            }
            StmtKind::Assign { target, op, value } => {
                let t = if target.indices.is_empty() {
                    target.name.clone()
                } else {
                    let idx: Vec<String> = target.indices.iter().map(expr_to_string).collect();
                    format!("{}[{}]", target.name, idx.join(","))
                };
                self.line(&format!("{t} {} {};", op.symbol(), expr_to_string(value)));
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.line(&format!("if ({}) {{", expr_to_string(cond)));
                self.indent += 1;
                for t in then_branch {
                    self.stmt(t);
                }
                self.indent -= 1;
                if else_branch.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.indent += 1;
                    for t in else_branch {
                        self.stmt(t);
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
                let i = init.as_ref().map_or(String::new(), |s| self.inline(s));
                let c = cond.as_ref().map_or(String::new(), expr_to_string);
                let st = step.as_ref().map_or(String::new(), |s| self.inline(s));
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
                self.line(&format!(
                    "foreach (int {var} in {} {unit}) {{",
                    expr_to_string(count)
                ));
                self.indent += 1;
                for b in body {
                    self.stmt(b);
                }
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::Barrier => self.line("barrier();"),
        }
    }

    /// A statement without indentation or trailing `;\n` (for `for` heads).
    fn inline(&mut self, s: &Stmt) -> String {
        let saved_out = std::mem::take(&mut self.out);
        let saved_ind = std::mem::replace(&mut self.indent, 0);
        self.stmt(s);
        let mut r = std::mem::replace(&mut self.out, saved_out);
        self.indent = saved_ind;
        r.truncate(r.trim_end().trim_end_matches(';').len());
        r
    }
}

/// Render a kernel to canonical MCPL source.
pub fn kernel_to_string(k: &Kernel) -> String {
    let mut p = Printer {
        out: String::new(),
        indent: 0,
    };
    let params: Vec<String> = k
        .params
        .iter()
        .map(|pa| {
            if pa.is_array() {
                let d: Vec<String> = pa.dims.iter().map(expr_to_string).collect();
                format!("{}[{}] {}", pa.elem.name(), d.join(","), pa.name)
            } else {
                format!("{} {}", pa.elem.name(), pa.name)
            }
        })
        .collect();
    let _ = writeln!(
        p.out,
        "{} void {}({}) {{",
        k.level,
        k.name,
        params.join(", ")
    );
    p.indent = 1;
    for s in &k.body {
        p.stmt(s);
    }
    p.indent = 0;
    p.line("}");
    p.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    /// Strip source lines so ASTs compare structurally.
    fn strip(k: &Kernel) -> Kernel {
        fn strip_body(body: &[Stmt]) -> Vec<Stmt> {
            body.iter()
                .map(|s| {
                    let kind = match &s.kind {
                        StmtKind::If {
                            cond,
                            then_branch,
                            else_branch,
                        } => StmtKind::If {
                            cond: cond.clone(),
                            then_branch: strip_body(then_branch),
                            else_branch: strip_body(else_branch),
                        },
                        StmtKind::For {
                            init,
                            cond,
                            step,
                            body,
                        } => StmtKind::For {
                            init: init.as_ref().map(|i| Box::new(strip_one(i))),
                            cond: cond.clone(),
                            step: step.as_ref().map(|i| Box::new(strip_one(i))),
                            body: strip_body(body),
                        },
                        StmtKind::Foreach {
                            var,
                            count,
                            unit,
                            body,
                        } => StmtKind::Foreach {
                            var: var.clone(),
                            count: count.clone(),
                            unit: unit.clone(),
                            body: strip_body(body),
                        },
                        other => other.clone(),
                    };
                    Stmt { line: 0, kind }
                })
                .collect()
        }
        fn strip_one(s: &Stmt) -> Stmt {
            strip_body(std::slice::from_ref(s)).pop().expect("one")
        }
        Kernel {
            level: k.level.clone(),
            name: k.name.clone(),
            params: k.params.clone(),
            body: strip_body(&k.body),
        }
    }

    fn roundtrip(src: &str) {
        let k1 = parse(src).expect("original parses");
        let printed = kernel_to_string(&k1);
        let k2 =
            parse(&printed).unwrap_or_else(|e| panic!("printed source reparses: {e}\n{printed}"));
        assert_eq!(
            strip(&k1),
            strip(&k2),
            "AST changed through print/parse:\n{printed}"
        );
        // And printing is a fixed point after one round.
        assert_eq!(printed, kernel_to_string(&k2));
    }

    #[test]
    fn roundtrips_all_shipped_kernels() {
        // The Fig. 3 kernel and representative optimized shapes.
        roundtrip(
            "perfect void matmul(int n, int m, int p, float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      float sum = 0.0;
      for (int k = 0; k < p; k++) { sum += a[i,k] * b[k,j]; }
      c[i,j] += sum;
    }
  }
}",
        );
        roundtrip(
            "gpu void t(int n, float[n] a) {
  foreach (int b in (n + 255) / 256 blocks) {
    local float tile[256];
    foreach (int t in 256 threads) {
      tile[t] = a[b * 256 + t];
      barrier();
      if (t % 2 == 0) { a[b * 256 + t] = tile[255 - t]; }
      else if (t < 128) { a[b * 256 + t] = -tile[t]; }
      else { a[b * 256 + t] = sqrt(fabs(tile[t])) + (float) t; }
    }
  }
}",
        );
    }

    #[test]
    fn precedence_preserved_without_redundant_parens() {
        let k = parse(
            "perfect void t(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = (a[i] + 1.0) * 2.0 - a[i] / 4.0;
  }
}",
        )
        .unwrap();
        let printed = kernel_to_string(&k);
        assert!(
            printed.contains("(a[i] + 1.0) * 2.0 - a[i] / 4.0"),
            "{printed}"
        );
        roundtrip(&printed);
    }

    #[test]
    fn left_associativity_kept() {
        // a - b - c must not become a - (b - c).
        roundtrip(
            "perfect void t(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = a[i] - 1.0 - 2.0 - 3.0;
  }
}",
        );
        let k = parse(
            "perfect void t(int n, int[n] s) {
  foreach (int i in n threads) {
    s[i] = i - (1 - 2);
  }
}",
        )
        .unwrap();
        let printed = kernel_to_string(&k);
        assert!(printed.contains("i - (1 - 2)"), "{printed}");
        roundtrip(&printed);
    }

    #[test]
    fn bit_ops_and_casts_roundtrip() {
        roundtrip(
            "perfect void t(int n, int[n] s) {
  foreach (int i in n threads) {
    int x = s[i];
    x = (x ^ (x << 13)) & 4294967295;
    x = x ^ (x >> 17);
    float f = (float) (x & 8388607) / 8388608.0;
    s[i] = (int) (f * 2.0);
  }
}",
        );
    }

    #[test]
    fn translated_kernels_print_and_reparse() {
        use crate::translate::translate_to;
        use cashmere_hwdesc::standard_hierarchy;
        let h = standard_hierarchy();
        let ck = crate::compile(
            "perfect void saxpy(int n, float alpha, float[n] y, float[n] x) {
  foreach (int i in n threads) { y[i] += alpha * x[i]; }
}",
            &h,
        )
        .unwrap();
        for target in ["gpu", "mic", "host_cpu"] {
            let t = translate_to(&ck, &h, target).unwrap();
            let printed = kernel_to_string(&t.kernel);
            let re = parse(&printed).expect("translated output reparses");
            assert_eq!(re.level, target);
        }
    }
}
