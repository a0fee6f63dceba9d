//! Property-based tests of the MCPL toolchain: randomly generated
//! expression kernels must (a) pretty-print → parse → check cleanly and
//! (b) compute exactly what a direct Rust evaluation of the same expression
//! computes, lane for lane, on both kernel engines.

use cashmere_hwdesc::standard_hierarchy;
use cashmere_mcl::value::{ArgValue, ArrayArg};
use cashmere_mcl::{compile, CheckedKernel, ElemTy, ExecError, ExecOptions, ExecResult};
use proptest::prelude::*;

type Execute = fn(&CheckedKernel, Vec<ArgValue>, &ExecOptions) -> Result<ExecResult, ExecError>;

/// Both kernel engines: the VM every run uses and the reference tree
/// walker it must agree with.
const ENGINES: [(&str, Execute); 2] = [
    ("vm", cashmere_mcl::vm::execute),
    ("tree", cashmere_mcl::interp::execute),
];

/// A small expression language over one float variable `x` and one int
/// variable `i`, rendered to MCPL source and evaluated natively.
#[derive(Debug, Clone)]
enum E {
    X,
    I,
    Lit(i8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Min(Box<E>, Box<E>),
    Max(Box<E>, Box<E>),
    Neg(Box<E>),
    Sqrt(Box<E>),
    Fabs(Box<E>),
}

impl E {
    fn to_mcpl(&self) -> String {
        match self {
            E::X => "x".into(),
            E::I => "(float) i".into(),
            E::Lit(v) => format!("{}.0", v),
            E::Add(a, b) => format!("({} + {})", a.to_mcpl(), b.to_mcpl()),
            E::Sub(a, b) => format!("({} - {})", a.to_mcpl(), b.to_mcpl()),
            E::Mul(a, b) => format!("({} * {})", a.to_mcpl(), b.to_mcpl()),
            E::Min(a, b) => format!("min({}, {})", a.to_mcpl(), b.to_mcpl()),
            E::Max(a, b) => format!("max({}, {})", a.to_mcpl(), b.to_mcpl()),
            E::Neg(a) => format!("(0.0 - {})", a.to_mcpl()),
            E::Sqrt(a) => format!("sqrt({})", a.to_mcpl()),
            E::Fabs(a) => format!("fabs({})", a.to_mcpl()),
        }
    }

    fn eval(&self, x: f64, i: i64) -> f64 {
        match self {
            E::X => x,
            E::I => i as f64,
            E::Lit(v) => f64::from(*v),
            E::Add(a, b) => a.eval(x, i) + b.eval(x, i),
            E::Sub(a, b) => a.eval(x, i) - b.eval(x, i),
            E::Mul(a, b) => a.eval(x, i) * b.eval(x, i),
            E::Min(a, b) => a.eval(x, i).min(b.eval(x, i)),
            E::Max(a, b) => a.eval(x, i).max(b.eval(x, i)),
            E::Neg(a) => -a.eval(x, i),
            // The interpreter clamps sqrt/log args to stay finite.
            E::Sqrt(a) => a.eval(x, i).max(0.0).sqrt(),
            E::Fabs(a) => a.eval(x, i).abs(),
        }
    }
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![Just(E::X), Just(E::I), (-9i8..10).prop_map(E::Lit),];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Min(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Max(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| E::Neg(Box::new(a))),
            inner.clone().prop_map(|a| E::Sqrt(Box::new(a))),
            inner.prop_map(|a| E::Fabs(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_kernels_compute_like_rust(expr in arb_expr(), n in 1u64..120) {
        let src = format!(
            "perfect void gen(int n, float[n] out, float[n] xs) {{
  foreach (int i in n threads) {{
    float x = xs[i];
    out[i] = {};
  }}
}}",
            expr.to_mcpl()
        );
        let h = standard_hierarchy();
        let ck = compile(&src, &h).expect("generated kernel compiles");
        let xs: Vec<f64> = (0..n).map(|k| f64::from(k as f32 * 0.5 - 8.0)).collect();
        for (engine, execute) in ENGINES {
            let r = execute(
                &ck,
                vec![
                    ArgValue::Int(n as i64),
                    ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[n])),
                    ArgValue::Array(ArrayArg::float(&[n], xs.clone())),
                ],
                &ExecOptions::default(),
            )
            .expect("generated kernel runs");
            let out = r.args[1].clone().array();
            for (k, x) in xs.iter().enumerate() {
                let want = expr.eval(*x, k as i64);
                let got = out.as_f64()[k];
                if want.is_finite() && want.abs() < 1e30 {
                    let want32 = f64::from(want as f32);
                    prop_assert!(
                        (got - want32).abs() <= 1e-3 * (1.0 + want32.abs()),
                        "{engine}: lane {k}: {got} vs {want32} for `{}`",
                        expr.to_mcpl()
                    );
                }
            }
        }
    }

    #[test]
    fn generated_kernels_are_deterministic(expr in arb_expr()) {
        let src = format!(
            "perfect void gen(int n, float[n] out, float[n] xs) {{
  foreach (int i in n threads) {{
    float x = xs[i];
    out[i] = {};
  }}
}}",
            expr.to_mcpl()
        );
        let h = standard_hierarchy();
        let ck = compile(&src, &h).expect("compiles");
        for (engine, execute) in ENGINES {
            let run = || {
                let xs: Vec<f64> = (0..64).map(|k| f64::from(k as f32) / 7.0).collect();
                let r = execute(
                    &ck,
                    vec![
                        ArgValue::Int(64),
                        ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[64])),
                        ArgValue::Array(ArrayArg::float(&[64], xs)),
                    ],
                        &ExecOptions::default(),
                )
                .expect("runs");
                (
                    r.args[1].clone().array().as_f64().to_vec(),
                    r.stats.issue_cycles.to_bits(),
                    r.stats.flops.to_bits(),
                )
            };
            prop_assert_eq!(run(), run(), "{}", engine);
        }
    }

    #[test]
    fn pretty_printer_roundtrips_generated_kernels(expr in arb_expr()) {
        let src = format!(
            "perfect void gen(int n, float[n] out, float[n] xs) {{
  foreach (int i in n threads) {{
    float x = xs[i];
    out[i] = {};
  }}
}}",
            expr.to_mcpl()
        );
        let k1 = cashmere_mcl::parse(&src).expect("parses");
        let printed = cashmere_mcl::kernel_to_string(&k1);
        let k2 = cashmere_mcl::parse(&printed).expect("printed source reparses");
        // Printing is a fixed point: canonical form after one round.
        prop_assert_eq!(printed.clone(), cashmere_mcl::kernel_to_string(&k2));
        // And both versions compute the same thing.
        let h = standard_hierarchy();
        for (engine, execute) in ENGINES {
            let run = |k: &cashmere_mcl::Kernel| {
                let ck = cashmere_mcl::check(k, &h).expect("checks");
                let xs: Vec<f64> = (0..32).map(|v| f64::from(v as f32) * 0.5 - 8.0).collect();
                let r = execute(
                    &ck,
                    vec![
                        ArgValue::Int(32),
                        ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[32])),
                        ArgValue::Array(ArrayArg::float(&[32], xs)),
                    ],
                        &ExecOptions::default(),
                )
                .expect("runs");
                r.args[1].clone().array().as_f64().to_vec()
            };
            prop_assert_eq!(run(&k1), run(&k2), "{}", engine);
        }
    }

    #[test]
    fn lexer_never_panics_on_arbitrary_input(src in "\\PC*") {
        // Arbitrary garbage must produce an error, never a panic.
        let _ = cashmere_mcl::parse(&src);
    }

    /// Differential test of the register-bytecode VM against the tree
    /// walker: random expressions, lane counts, group sizes and argument
    /// values, through divergent branches, lane-varying loop trip counts
    /// and counted loops whose bodies read-modify-write a private array
    /// (fused to one instruction by the compiler), in both full and
    /// sampled modes. Statistics must be bit-identical (f64 `to_bits` via
    /// the Debug rendering) and every output buffer byte-identical.
    #[test]
    fn vm_matches_tree_walker(
        expr in arb_expr(),
        n in 1u64..300,
        group in prop::sample::select(vec![16usize, 64, 256]),
        simd in prop::sample::select(vec![8usize, 16, 32]),
        seed in 0i64..1000,
        sampled in prop::sample::select(vec![false, true]),
        rmw in prop::sample::select(vec!["+=", "-=", "*=", "/="]),
        trip in prop::sample::select(vec!["4", "seed % 4 + 1", "i % 4 + 1"]),
    ) {
        let src = format!(
            "perfect void gen(int n, int seed, float[n] out, float[n] xs) {{
  foreach (int i in n threads) {{
    float x = xs[i];
    float acc = 0.0;
    float part[4];
    for (int k = 0; k < i % 5 + 1; k = k + 1) {{
      acc = acc + x * (float) k;
    }}
    for (int r = 0; r < 4; r++) {{
      part[r] = x;
    }}
    for (int r = 0; r < {trip}; r++) {{
      if ((i + r + seed) % 2 == 0) {{
        part[r] {rmw} {expr};
      }}
      part[r] {rmw} x * 0.3 + 2;
    }}
    if ((i + seed) % 3 == 0) {{
      out[i] = {expr};
    }} else {{
      out[i] = acc - x + part[(i + seed) % 4];
    }}
  }}
}}",
            expr = expr.to_mcpl()
        );
        let h = standard_hierarchy();
        let ck = compile(&src, &h).expect("generated kernel compiles");
        let opts = ExecOptions {
            simd_width: simd,
            group_size: group,
            sampled,
        };
        let mk_args = || {
            let xs: Vec<f64> = (0..n)
                .map(|k| f64::from((k as i64 * 37 + seed) as f32 * 0.25 - 9.0))
                .collect();
            vec![
                ArgValue::Int(n as i64),
                ArgValue::Int(seed),
                ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[n])),
                ArgValue::Array(ArrayArg::float(&[n], xs)),
            ]
        };
        let tree = cashmere_mcl::interp::execute(&ck, mk_args(), &opts).expect("tree runs");
        let vm = cashmere_mcl::vm::execute(&ck, mk_args(), &opts).expect("vm runs");
        prop_assert_eq!(format!("{:?}", tree.stats), format!("{:?}", vm.stats));
        prop_assert_eq!(
            tree.stats.issue_cycles.to_bits(),
            vm.stats.issue_cycles.to_bits()
        );
        prop_assert_eq!(tree.stats.flops.to_bits(), vm.stats.flops.to_bits());
        prop_assert_eq!(
            tree.stats.global_bytes.to_bits(),
            vm.stats.global_bytes.to_bits()
        );
        for (t, v) in tree.args.iter().zip(&vm.args) {
            prop_assert_eq!(format!("{t:?}"), format!("{v:?}"));
        }
    }

    #[test]
    fn hdl_parser_never_panics_on_arbitrary_input(src in "\\PC*") {
        let _ = cashmere_hwdesc::hdl::parse(&src);
    }

    #[test]
    fn checker_rejects_or_accepts_without_panic(
        level in prop::sample::select(vec!["perfect", "gpu", "mic", "host_cpu", "bogus"]),
        unit in prop::sample::select(vec!["threads", "blocks", "cores", "warps"]),
    ) {
        let src = format!(
            "{level} void t(int n, float[n] a) {{
  foreach (int i in n {unit}) {{ a[i] = 0.0; }}
}}"
        );
        let h = standard_hierarchy();
        let _ = compile(&src, &h); // must not panic either way
    }
}

/// Regression pin: exact counter values for a fixed divergent kernel, on
/// both engines. If either interpreter's accounting drifts — even by one
/// ULP — this fails, independently of the differential property above.
#[test]
fn engines_pin_exact_counters() {
    let src = "perfect void pin(int n, float[n] out, float[n] xs) {
  foreach (int i in n threads) {
    float x = xs[i];
    float acc = 0.0;
    for (int k = 0; k < i % 3 + 1; k = k + 1) { acc = acc + x; }
    if (i % 2 == 0) { out[i] = acc * 2.0; } else { out[i] = acc; }
  }
}";
    let h = standard_hierarchy();
    let ck = compile(src, &h).expect("pin kernel compiles");
    let mk_args = || {
        let xs: Vec<f64> = (0..96).map(|k| f64::from(k as f32) * 0.125).collect();
        vec![
            ArgValue::Int(96),
            ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[96])),
            ArgValue::Array(ArrayArg::float(&[96], xs)),
        ]
    };
    let opts = ExecOptions::default();
    let tree = cashmere_mcl::interp::execute(&ck, mk_args(), &opts).expect("tree runs");
    let vm = cashmere_mcl::vm::execute(&ck, mk_args(), &opts).expect("vm runs");
    for (name, r) in [("tree", &tree), ("vm", &vm)] {
        let s = &r.stats;
        assert_eq!(s.total_threads, 96.0, "{name} total_threads");
        assert_eq!(s.raw_lanes, 96.0, "{name} raw_lanes");
        assert_eq!(s.groups, 1.0, "{name} groups");
        assert_eq!(s.flops, 240.0, "{name} flops");
        assert_eq!(s.branch_events, 15.0, "{name} branch_events");
        assert_eq!(s.divergent_branches, 9.0, "{name} divergent_branches");
    }
    assert_eq!(
        format!("{:?}", tree.stats),
        format!("{:?}", vm.stats),
        "full stats must be bit-identical between engines"
    );
}
