//! Performance-feedback analyzer — the engine of "stepwise refinement for
//! performance" (paper Sec. II-B).
//!
//! MCL's methodology: write a kernel at a high level, receive compiler
//! feedback, fix what the feedback names, translate down a level, repeat
//! until no feedback remains. The amount of feedback grows as the level
//! gets more concrete, because lower levels *know more about the hardware*:
//! `perfect` has 1-cycle memory (so no coalescing feedback is even
//! expressible), the `gpu` level knows about local memory and transactions,
//! and leaf levels know SIMD widths and occupancy limits.
//!
//! The analyzer consumes the same interpreter statistics as the cost model,
//! so the feedback and the modelled performance always agree: fixing a
//! reported hazard is what makes the optimized kernels of the paper's
//! Fig. 6 faster.

use crate::check::CheckedKernel;
use crate::cost::DeviceClass;
use crate::stats::KernelStats;
use cashmere_hwdesc::Hierarchy;
use serde::{Deserialize, Serialize};

/// What kind of hazard a feedback item reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeedbackKind {
    /// A global access site moves far more transaction bytes than requested.
    UncoalescedAccess,
    /// Memory-bound kernel with no local-memory staging.
    NoLocalReuse,
    /// Data-dependent control flow diverges within warps.
    Divergence,
    /// Lanes idle because warps are partially filled or unevenly loaded.
    LowLaneUtilization,
    /// Fewer work-groups than compute units.
    LowOccupancy,
    /// Access/control pattern defeats the MIC/CPU auto-vectorizer.
    VectorizationFailure,
    /// Work-groups are too small for this device's scheduling cost.
    TooFineGrained,
}

/// Severity of a feedback item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    Note,
    Warning,
}

/// One feedback item, addressed to the programmer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Feedback {
    pub kind: FeedbackKind,
    pub severity: Severity,
    /// Source line, where attributable.
    pub line: Option<usize>,
    /// Array involved, where attributable.
    pub array: Option<String>,
    pub message: String,
}

impl std::fmt::Display for Feedback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(l) => write!(f, "line {l}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

/// Analyze a kernel's measured behaviour for a target device class.
///
/// The kernel's own level decides which hazards are *visible*: levels
/// without a `local` memory space get no coalescing or reuse feedback
/// (idealized memory), levels without a SIMD width get no divergence or
/// vectorization feedback. This is exactly the paper's "on this level the
/// compiler can give more detailed feedback because it has more hardware
/// knowledge".
pub fn analyze(
    ck: &CheckedKernel,
    h: &Hierarchy,
    stats: &KernelStats,
    class: DeviceClass,
) -> Vec<Feedback> {
    let level_params = h.effective_params(ck.level);
    let level_knows_memory = level_params
        .mem_space("global")
        .is_some_and(|g| g.latency_cycles.is_some());
    let level_knows_simd =
        level_params.simd_width.is_some() || level_params.mem_space("local").is_some();
    let mut out = Vec::new();

    if level_knows_memory {
        for (key, site) in &stats.sites {
            let overhead = site.overhead();
            if overhead > 2.0 && site.broadcast_fraction() < 0.5 {
                out.push(Feedback {
                    kind: FeedbackKind::UncoalescedAccess,
                    severity: Severity::Warning,
                    line: Some(key.line),
                    array: Some(key.array.clone()),
                    message: format!(
                        "global {} of `{}` moves {:.1}x more bytes than requested \
                         (strided access); restructure for unit stride or stage \
                         through local memory",
                        if key.is_store { "store" } else { "load" },
                        key.array,
                        overhead
                    ),
                });
            }
        }

        if !stats.uses_local_memory() && stats.arithmetic_intensity() < 2.0 {
            out.push(Feedback {
                kind: FeedbackKind::NoLocalReuse,
                severity: Severity::Warning,
                line: None,
                array: None,
                message: format!(
                    "kernel is memory-bound ({:.2} flops/byte) and uses no local \
                     memory; tile reused data into `local` arrays",
                    stats.arithmetic_intensity()
                ),
            });
        }
    }

    if level_knows_simd {
        let div = stats.divergence_rate();
        if div > 0.10 {
            out.push(Feedback {
                kind: FeedbackKind::Divergence,
                severity: Severity::Warning,
                line: None,
                array: None,
                message: format!(
                    "{:.0}% of warp-level branches diverge; data-dependent control \
                     flow limits SIMD efficiency (an algorithmic property MCL \
                     cannot optimize away)",
                    div * 100.0
                ),
            });
        }
        let lane_eff = stats.lane_efficiency();
        if lane_eff < 0.7 && div <= 0.10 {
            out.push(Feedback {
                kind: FeedbackKind::LowLaneUtilization,
                severity: Severity::Note,
                line: None,
                array: None,
                message: format!(
                    "only {:.0}% of issued lane slots do useful work (partial warps \
                     or uneven per-lane trip counts)",
                    lane_eff * 100.0
                ),
            });
        }
    }

    if class.strict_vectorizer() && !stats.vectorizable() {
        out.push(Feedback {
            kind: FeedbackKind::VectorizationFailure,
            severity: Severity::Warning,
            line: None,
            array: None,
            message: "strided accesses or divergent control flow defeat the \
                      auto-vectorizer on this device; the kernel will run on \
                      scalar lanes"
                .to_string(),
        });
    }

    if stats.groups > 0.0 {
        let cycles_per_group = stats.issue_cycles / stats.groups;
        if cycles_per_group < class.group_overhead_cycles() {
            out.push(Feedback {
                kind: FeedbackKind::TooFineGrained,
                severity: Severity::Warning,
                line: None,
                array: None,
                message: format!(
                    "work-groups average {cycles_per_group:.0} cycles of work but \
                     cost {:.0} cycles to schedule on this device; use \
                     coarser-grained parallelism",
                    class.group_overhead_cycles()
                ),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use crate::launch::LaunchConfig;
    use crate::value::{ArgValue, ArrayArg};
    use crate::vm::execute;
    use crate::ElemTy;
    use cashmere_hwdesc::{standard_hierarchy, DeviceKind, Hierarchy};

    fn run_and_analyze(
        src: &str,
        args: Vec<ArgValue>,
        device: DeviceKind,
        h: &Hierarchy,
    ) -> Vec<Feedback> {
        let ck = compile(src, h).unwrap();
        let cfg = LaunchConfig::for_device(&ck, h, device.level(h));
        let r = execute(&ck, args, &cfg.exec_full()).unwrap();
        analyze(&ck, h, &r.stats, cfg.class)
    }

    fn f32buf(n: u64) -> ArgValue {
        ArgValue::Array(ArrayArg::zeros(ElemTy::Float, &[n]))
    }

    #[test]
    fn perfect_level_gives_no_memory_feedback() {
        // Strided accesses — but at level `perfect` memory is idealized, so
        // the compiler has nothing to say about coalescing.
        let h = standard_hierarchy();
        let src = "perfect void t(int n, float[n] a) {
  foreach (int i in n / 16 threads) { a[i * 16] = 1.0; }
}";
        let fb = run_and_analyze(
            src,
            vec![ArgValue::Int(1024), f32buf(1024)],
            DeviceKind::Gtx480,
            &h,
        );
        assert!(
            !fb.iter().any(|f| f.kind == FeedbackKind::UncoalescedAccess),
            "{fb:?}"
        );
    }

    #[test]
    fn gpu_level_reports_uncoalesced_access_with_line() {
        let h = standard_hierarchy();
        let src = "gpu void t(int n, float[n] a) {
  foreach (int b in n / 256 / 16 blocks) {
    foreach (int t in 256 threads) {
      a[(b * 256 + t) * 16] = 1.0;
    }
  }
}";
        let fb = run_and_analyze(
            src,
            vec![ArgValue::Int(65536), f32buf(65536)],
            DeviceKind::Gtx480,
            &h,
        );
        let item = fb
            .iter()
            .find(|f| f.kind == FeedbackKind::UncoalescedAccess)
            .expect("expected coalescing feedback");
        assert_eq!(item.array.as_deref(), Some("a"));
        assert_eq!(item.line, Some(4));
        assert!(item.message.contains("strided"));
    }

    #[test]
    fn divergence_reported_on_simd_aware_levels() {
        let h = standard_hierarchy();
        let src = "gpu void t(int n, float[n] a) {
  foreach (int b in n / 256 blocks) {
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      if (i % 2 == 0) { a[i] = 1.0; } else { a[i] = 2.0; }
    }
  }
}";
        let fb = run_and_analyze(
            src,
            vec![ArgValue::Int(512), f32buf(512)],
            DeviceKind::Gtx480,
            &h,
        );
        assert!(
            fb.iter().any(|f| f.kind == FeedbackKind::Divergence),
            "{fb:?}"
        );
    }

    #[test]
    fn mic_vectorization_failure_reported() {
        let h = standard_hierarchy();
        let src = "perfect void t(int n, float[n] a) {
  foreach (int i in n / 8 threads) {
    if (i % 3 == 0) { a[i * 8] = 1.0; } else { a[i * 8] = 2.0; }
  }
}";
        let fb = run_and_analyze(
            src,
            vec![ArgValue::Int(4096), f32buf(4096)],
            DeviceKind::XeonPhi,
            &h,
        );
        assert!(
            fb.iter()
                .any(|f| f.kind == FeedbackKind::VectorizationFailure),
            "{fb:?}"
        );
    }

    #[test]
    fn clean_tiled_kernel_reports_nothing_serious() {
        // Unit-stride, convergent, compute-heavy kernel at gpu level: the
        // stepwise-refinement loop terminates (no warnings left).
        let h = standard_hierarchy();
        let src = "gpu void t(int n, float[n] a) {
  foreach (int b in n / 256 blocks) {
    foreach (int t in 256 threads) {
      int i = b * 256 + t;
      float x = a[i];
      for (int k = 0; k < 64; k++) { x += x * 1.0001; }
      a[i] = x;
    }
  }
}";
        let fb = run_and_analyze(
            src,
            vec![ArgValue::Int(16384), f32buf(16384)],
            DeviceKind::Gtx480,
            &h,
        );
        let warnings: Vec<_> = fb
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .collect();
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn display_includes_line() {
        let f = Feedback {
            kind: FeedbackKind::UncoalescedAccess,
            severity: Severity::Warning,
            line: Some(12),
            array: Some("a".into()),
            message: "msg".into(),
        };
        assert_eq!(f.to_string(), "line 12: msg");
    }
}
