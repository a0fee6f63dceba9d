//! Translation between abstraction levels (paper Sec. III-A).
//!
//! "MCL can automatically translate kernels written for the programming
//! abstractions of hardware description *x* to the programming abstractions
//! of a child level *y*. […] During this translation process the compiler
//! does not apply optimizations."
//!
//! The implemented rules:
//!
//! * same parallelism units (e.g. `gpu` → `nvidia` → `gtx480`): the kernel
//!   is re-targeted verbatim;
//! * one flat unit → two-level units (`perfect` → `gpu`/`mic`): the
//!   innermost `threads` domain is split into groups of the child's thread
//!   capacity with a bounds guard, outer `threads` domains become the
//!   child's outer unit;
//! * one flat unit → one flat unit (`perfect` → `host_cpu`): unit renaming.
//!
//! The result is deliberately *unoptimized* — it is the starting point for
//! another round of stepwise refinement at the lower level.

use crate::ast::*;
use crate::check::{check, CheckError, CheckedKernel};
use cashmere_hwdesc::{Hierarchy, ParUnit};

/// Default group size used when splitting a flat thread domain and the
/// child's thread unit declares no maximum.
const DEFAULT_SPLIT: u64 = 256;

/// Translate `ck` to `target`, which must be a descendant of the kernel's
/// current level. Returns the checked kernel at the new level.
pub fn translate_to(
    ck: &CheckedKernel,
    h: &Hierarchy,
    target: &str,
) -> Result<CheckedKernel, CheckError> {
    let tgt = h.id(target).ok_or_else(|| CheckError {
        line: 1,
        message: format!("unknown target level `{target}`"),
    })?;
    if !h.is_ancestor_or_self(ck.level, tgt) {
        return Err(CheckError {
            line: 1,
            message: format!(
                "cannot translate from `{}` to `{target}`: target is not a descendant",
                h.name(ck.level)
            ),
        });
    }

    let names =
        |units: &[ParUnit]| -> Vec<String> { units.iter().map(|u| u.name.clone()).collect() };
    let src_units = names(&ck.par_units);
    let tgt_params = h.effective_params(tgt);
    let tgt_units = names(&tgt_params.par_units);

    let mut kernel = ck.kernel.clone();
    kernel.level = target.to_string();

    if src_units == tgt_units {
        // Same abstractions, only the level name changes.
        return check(&kernel, h);
    }

    if src_units.len() == 1 {
        let src_unit = &src_units[0];
        match tgt_units.len() {
            1 => {
                rename_unit(&mut kernel.body, src_unit, &tgt_units[0]);
                return check(&kernel, h);
            }
            2 => {
                let inner_max = tgt_params
                    .par_units
                    .last()
                    .and_then(|u| u.max)
                    .unwrap_or(DEFAULT_SPLIT)
                    .min(DEFAULT_SPLIT);
                let mut counter = 0usize;
                kernel.body = split_body(
                    kernel.body,
                    src_unit,
                    &tgt_units[0],
                    &tgt_units[1],
                    inner_max,
                    &mut counter,
                );
                return check(&kernel, h);
            }
            _ => {}
        }
    }

    Err(CheckError {
        line: 1,
        message: format!("no translation rule from units {src_units:?} to {tgt_units:?}"),
    })
}

fn rename_unit(body: &mut [Stmt], from: &str, to: &str) {
    for s in body {
        match &mut s.kind {
            StmtKind::Foreach { unit, body, .. } => {
                if unit == from {
                    *unit = to.to_string();
                }
                rename_unit(body, from, to);
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                rename_unit(then_branch, from, to);
                rename_unit(else_branch, from, to);
            }
            StmtKind::For { body, .. } => rename_unit(body, from, to),
            _ => {}
        }
    }
}

/// Rewrite a statement list: innermost `foreach … in src_unit` domains are
/// split into `outer × inner` with a bounds guard; non-innermost ones are
/// mapped to the outer unit.
fn split_body(
    body: Vec<Stmt>,
    src_unit: &str,
    outer: &str,
    inner: &str,
    chunk: u64,
    counter: &mut usize,
) -> Vec<Stmt> {
    body.into_iter()
        .map(|s| split_stmt(s, src_unit, outer, inner, chunk, counter))
        .collect()
}

fn split_stmt(
    mut s: Stmt,
    src_unit: &str,
    outer: &str,
    inner: &str,
    chunk: u64,
    counter: &mut usize,
) -> Stmt {
    let line = s.line;
    match s.kind {
        StmtKind::Foreach {
            var,
            count,
            unit,
            body,
        } if unit == src_unit => {
            let mut has_inner = false;
            walk_stmts(&body, &mut |t| {
                if matches!(t.kind, StmtKind::Foreach { .. }) {
                    has_inner = true;
                }
            });
            if has_inner {
                // Outer parallel domain → child's outer unit, recurse inside.
                let body = split_body(body, src_unit, outer, inner, chunk, counter);
                Stmt::new(
                    line,
                    StmtKind::Foreach {
                        var,
                        count,
                        unit: outer.to_string(),
                        body,
                    },
                )
            } else {
                // Innermost domain → outer×inner split with a guard:
                //   foreach (__g in (count + chunk-1)/chunk outer) {
                //     foreach (__l in chunk inner) {
                //       int var = __g*chunk + __l;
                //       if (var < count) { body }
                //     }
                //   }
                let id = *counter;
                *counter += 1;
                let gvar = format!("__g{id}");
                let lvar = format!("__l{id}");
                let groups = Expr::bin(
                    BinOp::Div,
                    Expr::bin(BinOp::Add, count.clone(), Expr::int(chunk as i64 - 1)),
                    Expr::int(chunk as i64),
                );
                let recover = Stmt::new(
                    line,
                    StmtKind::DeclScalar {
                        ty: ElemTy::Int,
                        name: var.clone(),
                        init: Some(Expr::bin(
                            BinOp::Add,
                            Expr::bin(BinOp::Mul, Expr::var(&gvar), Expr::int(chunk as i64)),
                            Expr::var(&lvar),
                        )),
                    },
                );
                let guard = Stmt::new(
                    line,
                    StmtKind::If {
                        cond: Expr::bin(BinOp::Lt, Expr::var(&var), count),
                        then_branch: body,
                        else_branch: vec![],
                    },
                );
                Stmt::new(
                    line,
                    StmtKind::Foreach {
                        var: gvar.clone(),
                        count: groups,
                        unit: outer.to_string(),
                        body: vec![Stmt::new(
                            line,
                            StmtKind::Foreach {
                                var: lvar,
                                count: Expr::int(chunk as i64),
                                unit: inner.to_string(),
                                body: vec![recover, guard],
                            },
                        )],
                    },
                )
            }
        }
        StmtKind::Foreach {
            var,
            count,
            unit,
            body,
        } => {
            let body = split_body(body, src_unit, outer, inner, chunk, counter);
            s.kind = StmtKind::Foreach {
                var,
                count,
                unit,
                body,
            };
            s
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            s.kind = StmtKind::If {
                cond,
                then_branch: split_body(then_branch, src_unit, outer, inner, chunk, counter),
                else_branch: split_body(else_branch, src_unit, outer, inner, chunk, counter),
            };
            s
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            s.kind = StmtKind::For {
                init,
                cond,
                step,
                body: split_body(body, src_unit, outer, inner, chunk, counter),
            };
            s
        }
        other => {
            s.kind = other;
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::exec::ExecOptions;
    use crate::value::{ArgValue, ArrayArg};
    use crate::vm::execute;
    use cashmere_hwdesc::standard_hierarchy;

    const SAXPY: &str = "perfect void saxpy(int n, float alpha, float[n] y, float[n] x) {
  foreach (int i in n threads) {
    y[i] += alpha * x[i];
  }
}";

    fn run_kernel(ck: &CheckedKernel, n: u64) -> Vec<f64> {
        let x = ArrayArg::float(&[n], (0..n).map(|i| i as f64).collect());
        let y = ArrayArg::float(&[n], vec![1.0; n as usize]);
        let r = execute(
            ck,
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Float(2.0),
                ArgValue::Array(y),
                ArgValue::Array(x),
            ],
            &ExecOptions {
                group_size: 64,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        r.args[2].clone().array().as_f64().to_vec()
    }

    #[test]
    fn identity_translation_down_same_units() {
        let h = standard_hierarchy();
        let src = "gpu void t(int n, float[n] a) {
  foreach (int b in n / 64 blocks) {
    foreach (int t in 64 threads) { a[b * 64 + t] = 1.0; }
  }
}";
        let ck = compile(src, &h).unwrap();
        let t = translate_to(&ck, &h, "gtx480").unwrap();
        assert_eq!(t.kernel.level, "gtx480");
        assert_eq!(t.kernel.body, ck.kernel.body, "no rewriting needed");
    }

    #[test]
    fn perfect_to_gpu_splits_and_guards() {
        let h = standard_hierarchy();
        let ck = compile(SAXPY, &h).unwrap();
        let t = translate_to(&ck, &h, "gpu").unwrap();
        assert_eq!(t.kernel.level, "gpu");
        // Outer foreach over blocks, inner over threads, with a guard.
        let StmtKind::Foreach { unit, body, .. } = &t.kernel.body[0].kind else {
            panic!()
        };
        assert_eq!(unit, "blocks");
        let StmtKind::Foreach { unit, body, .. } = &body[0].kind else {
            panic!()
        };
        assert_eq!(unit, "threads");
        assert!(matches!(body[0].kind, StmtKind::DeclScalar { .. }));
        assert!(matches!(body[1].kind, StmtKind::If { .. }));
    }

    #[test]
    fn translated_kernel_computes_identical_results() {
        let h = standard_hierarchy();
        let ck = compile(SAXPY, &h).unwrap();
        // n deliberately not a multiple of the split so the guard matters.
        let n = 1000;
        let reference = run_kernel(&ck, n);
        for target in ["gpu", "mic", "host_cpu", "gtx480", "xeon_phi"] {
            let t = translate_to(&ck, &h, target).unwrap();
            let got = run_kernel(&t, n);
            assert_eq!(got, reference, "target {target}");
        }
    }

    #[test]
    fn nested_thread_domains_translate() {
        // Fig. 3-style nested foreach: outer becomes blocks, inner splits.
        let h = standard_hierarchy();
        let src = "perfect void t(int n, int m, float[n,m] a) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      a[i,j] = (float) (i + j);
    }
  }
}";
        let ck = compile(src, &h).unwrap();
        let t = translate_to(&ck, &h, "gpu").unwrap();
        let StmtKind::Foreach { unit, .. } = &t.kernel.body[0].kind else {
            panic!()
        };
        assert_eq!(unit, "blocks", "outer thread domain becomes blocks");
        // Functional check.
        let (n, m) = (5u64, 70u64);
        let r = execute(
            &t,
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Int(m as i64),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[n, m])),
            ],
            &ExecOptions::default(),
        )
        .unwrap();
        let a = r.args[2].clone().array();
        for i in 0..n {
            for j in 0..m {
                assert_eq!(a.as_f64()[(i * m + j) as usize], (i + j) as f64);
            }
        }
    }

    #[test]
    fn translation_to_host_cpu_renames_unit() {
        let h = standard_hierarchy();
        let ck = compile(SAXPY, &h).unwrap();
        let t = translate_to(&ck, &h, "host_cpu").unwrap();
        let StmtKind::Foreach { unit, .. } = &t.kernel.body[0].kind else {
            panic!()
        };
        assert_eq!(unit, "cores");
    }

    #[test]
    fn upward_translation_rejected() {
        let h = standard_hierarchy();
        let src = "gpu void t(int n, float[n] a) {
  foreach (int b in n blocks) { a[b] = 0.0; }
}";
        let ck = compile(src, &h).unwrap();
        let err = translate_to(&ck, &h, "perfect").unwrap_err();
        assert!(err.message.contains("descendant"), "{err}");
        let err2 = translate_to(&ck, &h, "xeon_phi").unwrap_err();
        assert!(err2.message.contains("descendant"), "{err2}");
    }

    #[test]
    fn unknown_target_rejected() {
        let h = standard_hierarchy();
        let ck = compile(SAXPY, &h).unwrap();
        assert!(translate_to(&ck, &h, "nonsense").is_err());
    }
}
