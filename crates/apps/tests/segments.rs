//! The applications' divide-and-conquer invariants that the cluster
//! engine relies on: `is_leaf` answers exactly what `step` decides, and
//! `combine` keeps every byte while merging data-less (phantom) segments,
//! so a phantom output stays a few segments at every tree level.

use cashmere::CashmereApp;
use cashmere_apps::kmeans::{KmeansApp, KmeansProblem};
use cashmere_apps::matmul::{MatJob, MatmulApp, MatmulProblem, Seg};
use cashmere_apps::nbody::{NbSeg, NbodyApp, NbodyProblem};
use cashmere_apps::raytracer::{RaytracerApp, RaytracerProblem, RtSeg};
use cashmere_apps::AppMode;
use cashmere_satin::{ClusterApp, DcStep};

const GRAINS: [u64; 8] = [0, 1, 2, 3, 7, 64, 1000, u64::MAX];

/// `(lo, hi)` pairs around every grain: empty, tiny, grain ± 1, huge.
fn ranges() -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for lo in [0u64, 1, 5, 1 << 40] {
        for len in [
            0u64,
            1,
            2,
            3,
            4,
            6,
            7,
            8,
            63,
            64,
            65,
            999,
            1000,
            1001,
            1 << 20,
        ] {
            out.push((lo, lo + len));
        }
    }
    out
}

fn assert_is_leaf_agrees<A: ClusterApp>(app: &A, input: &A::Input, what: &str) {
    let leaf = matches!(app.step(input), DcStep::Leaf);
    assert_eq!(app.is_leaf(input), leaf, "{what}");
}

#[test]
fn is_leaf_agrees_with_step_for_every_app() {
    let mut km = KmeansApp::phantom(KmeansProblem::paper(), 1, 8);
    let mut mm = MatmulApp::phantom(MatmulProblem::paper(), 1, 8);
    let mut nb = NbodyApp::phantom(NbodyProblem::paper(), 1, 8);
    let mut rt = RaytracerApp::new(RaytracerProblem::paper(), AppMode::Phantom, 1, 8);
    for grain in GRAINS {
        km.node_grain_pts = grain;
        mm.node_grain_rows = grain;
        nb.node_grain_bodies = grain;
        rt.node_grain_pixels = grain;
        for (lo, hi) in ranges() {
            let what = format!("grain {grain}, range ({lo}, {hi})");
            assert_is_leaf_agrees(&km, &(lo, hi), &format!("kmeans {what}"));
            assert_is_leaf_agrees(&nb, &(lo, hi), &format!("nbody {what}"));
            assert_is_leaf_agrees(&rt, &(lo, hi), &format!("raytracer {what}"));
            for (c0, c1) in [(0, 1), (0, 32768), (100, 200)] {
                let job = MatJob {
                    r0: lo,
                    r1: hi,
                    c0,
                    c1,
                };
                assert_is_leaf_agrees(&mm, &job, &format!("matmul {what}"));
            }
        }
    }
}

type Combine<A> =
    fn(&A, &<A as ClusterApp>::Input, Vec<<A as ClusterApp>::Output>) -> <A as ClusterApp>::Output;

/// Run the whole divide-and-conquer tree of `root` on one host: every
/// leaf expands into its device jobs, each computed by `leaf_cpu`, and
/// every level merges with `combine`.
fn run_tree<A: CashmereApp>(app: &A, job: &A::Input, combine: Combine<A>) -> A::Output {
    let outs = match app.step(job) {
        DcStep::Divide(children) => children.iter().map(|c| run_tree(app, c, combine)).collect(),
        DcStep::Leaf => app
            .device_jobs(job)
            .iter()
            .map(|d| app.leaf_cpu(d).1)
            .collect(),
    };
    combine(app, job, outs)
}

/// The combine every segmented app used before merging: concatenate and
/// sort, one segment per device job.
fn concat_sorted<S, K: Ord>(children: Vec<Vec<S>>, key: fn(&S) -> K) -> Vec<S> {
    let mut out: Vec<S> = children.into_iter().flatten().collect();
    out.sort_by_key(key);
    out
}

fn mm_concat(_: &MatmulApp, _: &MatJob, ch: Vec<Vec<Seg>>) -> Vec<Seg> {
    concat_sorted(ch, |s| (s.row0, s.col0))
}
fn nb_concat(_: &NbodyApp, _: &(u64, u64), ch: Vec<Vec<NbSeg>>) -> Vec<NbSeg> {
    concat_sorted(ch, |s| s.b0)
}
fn rt_concat(_: &RaytracerApp, _: &(u64, u64), ch: Vec<Vec<RtSeg>>) -> Vec<RtSeg> {
    concat_sorted(ch, |s| s.p0)
}

#[test]
fn phantom_combines_collapse_and_keep_output_bytes() {
    let pr = MatmulProblem {
        n: 1000,
        m: 777,
        p: 64,
    };
    let mm = MatmulApp::phantom(pr, 60, 8);
    let root = mm.row_job(0, pr.n);
    let merged = run_tree(&mm, &root, MatmulApp::combine);
    let concat = run_tree(&mm, &root, mm_concat);
    assert!(concat.len() > 100, "{} segments", concat.len());
    assert_eq!(mm.output_bytes(&merged), mm.output_bytes(&concat));
    assert_eq!(mm.output_bytes(&merged), pr.n * pr.m * 4);
    assert_eq!(merged.len(), 1, "{merged:?}");
    // One leaf: its eight column panels collapse to one row band.
    let band = mm.row_job(120, 180);
    assert!(mm.is_leaf(&band));
    let leaf = run_tree(&mm, &band, MatmulApp::combine);
    assert_eq!(
        leaf,
        vec![Seg {
            row0: 120,
            rows: 60,
            col0: 0,
            cols: pr.m,
            data: None,
        }]
    );

    let nb = NbodyApp::phantom(NbodyProblem::paper(), 50_000, 8);
    let merged = run_tree(&nb, &(0, 1_000_003), NbodyApp::combine);
    let concat = run_tree(&nb, &(0, 1_000_003), nb_concat);
    assert!(concat.len() > 100, "{} segments", concat.len());
    assert_eq!(nb.output_bytes(&merged), nb.output_bytes(&concat));
    assert_eq!(merged.len(), 1, "{merged:?}");
    assert_eq!((merged[0].b0, merged[0].count), (0, 1_000_003));

    let rt = RaytracerApp::new(RaytracerProblem::paper(), AppMode::Phantom, 40_000, 8);
    let merged = run_tree(&rt, &(7, 900_007), RaytracerApp::combine);
    let concat = run_tree(&rt, &(7, 900_007), rt_concat);
    assert!(concat.len() > 100, "{} segments", concat.len());
    assert_eq!(rt.output_bytes(&merged), rt.output_bytes(&concat));
    assert_eq!(merged.len(), 1, "{merged:?}");
    assert_eq!((merged[0].p0, merged[0].count), (7, 900_000));
}

#[test]
fn phantom_combine_keeps_gaps_and_never_merges_data() {
    let mm = MatmulApp::phantom(MatmulProblem::paper(), 64, 8);
    let job = mm.row_job(0, 64);
    let seg = |row0, col0, data: Option<Vec<f64>>| Seg {
        row0,
        rows: 4,
        col0,
        cols: 2,
        data,
    };
    // A gap between blocks, and a block beside data, stay separate; the
    // side-by-side and stacked phantom pairs merge.
    let out = mm.combine(
        &job,
        vec![
            vec![seg(0, 0, None), seg(0, 2, None)],
            vec![seg(0, 6, None)],
            vec![seg(4, 0, None), seg(8, 0, None)],
            vec![seg(12, 0, Some(vec![0.0; 8])), seg(12, 2, None)],
        ],
    );
    let shape: Vec<_> = out
        .iter()
        .map(|s| (s.row0, s.rows, s.col0, s.cols))
        .collect();
    assert_eq!(
        shape,
        vec![
            (0, 4, 0, 4),
            (0, 4, 6, 2),
            (4, 8, 0, 2),
            (12, 4, 0, 2),
            (12, 4, 2, 2)
        ]
    );

    let nb = NbodyApp::phantom(NbodyProblem::paper(), 64, 8);
    let nseg = |b0, count, pos: Option<Vec<f64>>| NbSeg {
        b0,
        count,
        vel: pos.clone(),
        pos,
    };
    let out = nb.combine(
        &(0, 64),
        vec![
            vec![nseg(0, 4, None), nseg(4, 4, None)],
            vec![nseg(10, 2, None), nseg(12, 1, Some(vec![0.0; 4]))],
        ],
    );
    let shape: Vec<_> = out.iter().map(|s| (s.b0, s.count)).collect();
    assert_eq!(shape, vec![(0, 8), (10, 2), (12, 1)]);

    let rt = RaytracerApp::new(RaytracerProblem::paper(), AppMode::Phantom, 64, 8);
    let rseg = |p0, count, rgb: Option<Vec<f64>>| RtSeg { p0, count, rgb };
    let out = rt.combine(
        &(0, 64),
        vec![
            vec![rseg(5, 5, None)],
            vec![rseg(0, 5, None), rseg(10, 1, Some(vec![0.0; 3]))],
        ],
    );
    let shape: Vec<_> = out.iter().map(|s| (s.p0, s.count)).collect();
    assert_eq!(shape, vec![(0, 10), (10, 1)]);
}

#[test]
fn real_mode_outputs_are_unchanged() {
    let pr = MatmulProblem { n: 32, m: 24, p: 8 };
    let mm = MatmulApp::real(pr, 8, 4, 3);
    let root = mm.row_job(0, pr.n);
    let merged = run_tree(&mm, &root, MatmulApp::combine);
    assert_eq!(merged, run_tree(&mm, &root, mm_concat));
    assert_eq!(merged.len(), 4 * 4, "one segment per device job");

    let nb = NbodyApp::real(
        NbodyProblem {
            n: 64,
            iterations: 1,
            dt: 0.01,
        },
        16,
        4,
        5,
    );
    let merged = run_tree(&nb, &(0, 64), NbodyApp::combine);
    assert_eq!(merged, run_tree(&nb, &(0, 64), nb_concat));
    assert_eq!(merged.len(), 4 * 4, "one segment per device job");

    let rpr = RaytracerProblem {
        width: 16,
        height: 8,
        samples: 2,
        seed: 7,
    };
    let rt = RaytracerApp::new(rpr, AppMode::Real, 32, 4);
    let merged = run_tree(&rt, &(0, rpr.pixels()), RaytracerApp::combine);
    assert_eq!(merged, run_tree(&rt, &(0, rpr.pixels()), rt_concat));
    assert_eq!(merged.len(), 4 * 4, "one segment per device job");
}
