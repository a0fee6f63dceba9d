//! The built-in hardware-description library (paper Fig. 2).
//!
//! The hierarchy is written in HDL (exercising the parser once per process)
//! and covers the seven many-core devices of the DAS-4 evaluation cluster
//! plus the host CPU used for Satin-only runs and CPU fallback:
//!
//! ```text
//! perfect
//!   manycore
//!     gpu
//!       nvidia
//!         fermi    → gtx480, c2050
//!         kepler   → gtx680, k20, titan
//!       amd        → hd7970
//!     mic          → xeon_phi
//!   host_cpu
//! ```
//!
//! Device numbers are the published specifications: peak single-precision
//! GFLOPS follow from `compute_units × simd_width × flops/lane/cycle × clock`
//! (e.g. GTX480: 15 × 32 × 2 × 1.401 ≈ 1345 GFLOPS). The `relative_speed`
//! entries seed Cashmere's static load-balancing table; the paper gives
//! K20 = 40 and GTX480 = 20 (Sec. III-B) and the rest are scaled by measured
//! kernel throughput ratios from the paper's Fig. 6.

use crate::hdl;
use crate::hierarchy::{Hierarchy, LevelId};
use serde::{Deserialize, Serialize};
use std::sync::LazyLock;

/// HDL source of the standard hierarchy.
pub const STANDARD_HDL: &str = r#"
// Root: idealized hardware — unlimited compute units, 1-cycle memory.
hardware perfect {
    parallelism { unit threads; }
    memory { space global; }
    device { flops_per_lane_per_cycle 2; }
}

// Any many-core accelerator: sits behind a PCI Express bus.
hardware manycore extends perfect {
    device { pcie_gbs 8.0; pcie_latency_us 10.0; }
}

// GPUs: two-level parallelism, fast scratch memory per compute unit.
hardware gpu extends manycore {
    parallelism {
        unit blocks;
        unit threads max 1024;
    }
    memory {
        space global latency_cycles 400;
        space local size_kb 48 latency_cycles 4;
        space registers;
    }
}

hardware nvidia extends gpu {
    device { simd_width 32; }
}

hardware fermi extends nvidia {
    device { shared_mem_kb 48; max_threads_per_unit 1536; }
}

hardware kepler extends nvidia {
    device { shared_mem_kb 48; max_threads_per_unit 2048; simd_width 192; }
}

hardware gtx480 extends fermi {
    device {
        compute_units 15;
        clock_ghz 1.401;
        mem_bandwidth_gbs 177.4;
        relative_speed 20;
    }
}

hardware c2050 extends fermi {
    device {
        compute_units 14;
        clock_ghz 1.15;
        mem_bandwidth_gbs 144.0;
        relative_speed 15;
    }
}

hardware gtx680 extends kepler {
    device {
        compute_units 8;
        clock_ghz 1.006;
        mem_bandwidth_gbs 192.2;
        relative_speed 30;
    }
}

hardware k20 extends kepler {
    device {
        compute_units 13;
        clock_ghz 0.706;
        mem_bandwidth_gbs 208.0;
        relative_speed 40;
    }
}

hardware titan extends kepler {
    device {
        compute_units 14;
        clock_ghz 0.837;
        mem_bandwidth_gbs 288.4;
        relative_speed 45;
    }
}

hardware amd extends gpu {
    device { simd_width 64; }
}

hardware hd7970 extends amd {
    device {
        compute_units 32;
        clock_ghz 0.925;
        mem_bandwidth_gbs 264.0;
        shared_mem_kb 64;
        max_threads_per_unit 2560;
        relative_speed 38;
    }
}

// Intel MIC (Xeon Phi): many x86 cores with wide vector units. Needs
// coarser-grained parallelism than GPUs (paper Sec. III-A).
hardware mic extends manycore {
    parallelism {
        unit cores max 61;
        // 4 hardware threads x 16-wide VPU presented as 64 logical lanes,
        // grouped into 16-lane vector "warps" for issue accounting.
        unit threads max 64;
    }
    memory {
        space global latency_cycles 300;
        space local size_kb 32 latency_cycles 10;
        space registers;
    }
    device { pcie_gbs 6.5; }
}

hardware xeon_phi extends mic {
    device {
        compute_units 60;
        simd_width 16;
        clock_ghz 1.053;
        mem_bandwidth_gbs 320.0;
        shared_mem_kb 32;
        max_threads_per_unit 64;
        relative_speed 10;
    }
}

// The host CPU of a DAS-4 node: dual quad-core Xeon E5620 (used by
// Satin-only runs and by the leafCPU fallback path).
hardware host_cpu extends perfect {
    parallelism {
        unit cores max 8;
    }
    memory {
        space global latency_cycles 100;
        space local size_kb 256 latency_cycles 10;
    }
    device {
        compute_units 8;
        simd_width 4;
        clock_ghz 2.4;
        mem_bandwidth_gbs 25.6;
        shared_mem_kb 256;
        pcie_gbs 100.0;
        pcie_latency_us 0.1;
        max_threads_per_unit 1;
        relative_speed 1;
    }
}
"#;

/// The built-in hierarchy: [`STANDARD_HDL`] is parsed once per process and
/// every call returns a copy. Panics only if the embedded HDL is broken,
/// which the test suite guards against.
pub fn standard_hierarchy() -> Hierarchy {
    static STANDARD: LazyLock<Hierarchy> =
        LazyLock::new(|| hdl::parse(STANDARD_HDL).expect("embedded standard HDL must parse"));
    STANDARD.clone()
}

/// The seven many-core devices of the paper's evaluation (Sec. IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DeviceKind {
    Gtx480,
    C2050,
    Gtx680,
    K20,
    Titan,
    Hd7970,
    XeonPhi,
}

impl DeviceKind {
    /// All seven devices, in the order the paper lists them.
    pub const ALL: [DeviceKind; 7] = [
        DeviceKind::Gtx480,
        DeviceKind::K20,
        DeviceKind::XeonPhi,
        DeviceKind::C2050,
        DeviceKind::Titan,
        DeviceKind::Gtx680,
        DeviceKind::Hd7970,
    ];

    /// The leaf level name in the standard hierarchy.
    pub fn level_name(self) -> &'static str {
        match self {
            DeviceKind::Gtx480 => "gtx480",
            DeviceKind::C2050 => "c2050",
            DeviceKind::Gtx680 => "gtx680",
            DeviceKind::K20 => "k20",
            DeviceKind::Titan => "titan",
            DeviceKind::Hd7970 => "hd7970",
            DeviceKind::XeonPhi => "xeon_phi",
        }
    }

    /// Marketing name, for table output.
    pub fn display_name(self) -> &'static str {
        match self {
            DeviceKind::Gtx480 => "NVIDIA GTX480",
            DeviceKind::C2050 => "NVIDIA C2050",
            DeviceKind::Gtx680 => "NVIDIA GTX680",
            DeviceKind::K20 => "NVIDIA K20",
            DeviceKind::Titan => "NVIDIA Titan",
            DeviceKind::Hd7970 => "AMD HD7970",
            DeviceKind::XeonPhi => "Intel Xeon Phi",
        }
    }

    /// Resolve this device's leaf level in a hierarchy.
    pub fn level(self, h: &Hierarchy) -> LevelId {
        h.id(self.level_name())
            .unwrap_or_else(|| panic!("hierarchy lacks device level {}", self.level_name()))
    }

    pub fn from_level_name(name: &str) -> Option<DeviceKind> {
        DeviceKind::ALL.into_iter().find(|d| d.level_name() == name)
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.level_name())
    }
}

/// The DAS-4 many-core inventory of the paper's methodology section:
/// `(device, how many nodes carry one)`.
pub fn das4_inventory() -> Vec<(DeviceKind, usize)> {
    vec![
        (DeviceKind::Gtx480, 22),
        (DeviceKind::K20, 8),
        (DeviceKind::XeonPhi, 2),
        (DeviceKind::C2050, 2),
        (DeviceKind::Titan, 1),
        (DeviceKind::Gtx680, 1),
        (DeviceKind::Hd7970, 1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_hierarchy_parses() {
        let h = standard_hierarchy();
        // 7 device leaves + host_cpu.
        let leaves = h.leaves();
        assert_eq!(leaves.len(), 8);
        for d in DeviceKind::ALL {
            let lvl = d.level(&h);
            assert!(h.children(lvl).is_empty(), "{d} must be a leaf");
        }
        // Every call hands out a copy of the one parse.
        assert_eq!(h, hdl::parse(STANDARD_HDL).unwrap());
    }

    #[test]
    fn all_devices_fully_resolve() {
        let h = standard_hierarchy();
        for d in DeviceKind::ALL {
            let p = h.device_params(d.level(&h)).unwrap();
            assert!(p.peak_sp_gflops() > 100.0, "{d}: {}", p.peak_sp_gflops());
            assert!(p.mem_bandwidth_gbs > 10.0);
            assert!(p.relative_speed > 0.0);
        }
        let cpu = h.id("host_cpu").unwrap();
        let p = h.device_params(cpu).unwrap();
        assert!((p.peak_sp_gflops() - 153.6).abs() < 0.1);
    }

    #[test]
    fn peak_flops_match_published_specs() {
        let h = standard_hierarchy();
        let check = |d: DeviceKind, expect: f64| {
            let p = h.device_params(d.level(&h)).unwrap();
            let got = p.peak_sp_gflops();
            assert!(
                (got - expect).abs() / expect < 0.02,
                "{d}: got {got:.0}, expected {expect:.0}"
            );
        };
        check(DeviceKind::Gtx480, 1345.0);
        check(DeviceKind::C2050, 1030.0);
        check(DeviceKind::Gtx680, 3090.0);
        check(DeviceKind::K20, 3524.0);
        check(DeviceKind::Titan, 4500.0);
        check(DeviceKind::Hd7970, 3789.0);
        check(DeviceKind::XeonPhi, 2022.0);
    }

    #[test]
    fn static_speed_table_matches_paper() {
        // Sec. III-B: "the table states that a K20 GPU has speed 40 and a
        // GTX480 speed 20".
        let h = standard_hierarchy();
        let speed = |d: DeviceKind| h.device_params(d.level(&h)).unwrap().relative_speed;
        assert_eq!(speed(DeviceKind::K20), 40.0);
        assert_eq!(speed(DeviceKind::Gtx480), 20.0);
    }

    #[test]
    fn most_specific_matches_paper_example() {
        // Paper Sec. III-A: kernel versions at perfect, gpu, amd, hd7970 ⇒
        // Xeon Phi gets perfect, NVIDIA GPUs get gpu, HD7970 gets hd7970.
        let h = standard_hierarchy();
        let avail: Vec<_> = ["perfect", "gpu", "amd", "hd7970"]
            .iter()
            .map(|n| h.id(n).unwrap())
            .collect();
        let pick = |d: DeviceKind| {
            let lvl = h.most_specific(&avail, d.level(&h)).unwrap();
            h.name(lvl).to_string()
        };
        assert_eq!(pick(DeviceKind::XeonPhi), "perfect");
        assert_eq!(pick(DeviceKind::Gtx480), "gpu");
        assert_eq!(pick(DeviceKind::K20), "gpu");
        assert_eq!(pick(DeviceKind::Hd7970), "hd7970");
    }

    #[test]
    fn inventory_counts_match_methodology() {
        let inv = das4_inventory();
        let total: usize = inv.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 22 + 8 + 2 + 2 + 1 + 1 + 1);
        assert_eq!(inv[0], (DeviceKind::Gtx480, 22));
    }

    #[test]
    fn kind_roundtrips_through_level_name() {
        for d in DeviceKind::ALL {
            assert_eq!(DeviceKind::from_level_name(d.level_name()), Some(d));
        }
        assert_eq!(DeviceKind::from_level_name("host_cpu"), None);
    }

    #[test]
    fn render_tree_shows_fig2_shape() {
        let h = standard_hierarchy();
        let t = h.render_tree();
        assert!(t.starts_with("perfect\n"));
        for d in DeviceKind::ALL {
            assert!(t.contains(d.level_name()), "tree missing {d}");
        }
    }
}
