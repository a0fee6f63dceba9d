//! The level tree: `perfect` at the root, concrete devices at the leaves.
//!
//! Two operations drive the rest of the system:
//!
//! * **parameter resolution** — a level's effective parameters are its own
//!   merged with everything inherited from its ancestors;
//! * **most-specific-version selection** (paper Sec. III-A) — given the set
//!   of levels a kernel has been written for and a target device, pick the
//!   deepest level on the device's root path. This is how an `hd7970` kernel
//!   is chosen for the HD7970 while the NVIDIA GPUs fall back to the `gpu`
//!   version and the Xeon Phi to `perfect`.

use crate::params::{HwParams, ResolvedParams};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Index of a level in a [`Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LevelId(pub usize);

#[derive(Debug, Clone, PartialEq)]
struct Level {
    name: String,
    parent: Option<LevelId>,
    children: Vec<LevelId>,
    params: HwParams,
}

/// The hardware-description hierarchy. Copies share their levels until
/// one of them adds a level, so a copy costs two reference counts.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    levels: Arc<Vec<Level>>,
    by_name: Arc<HashMap<String, LevelId>>,
}

/// Two hierarchies are equal when they hold the same levels, in the same
/// order, with the same parents and parameters: every [`LevelId`] then
/// names the same level in both. `by_name` is an index over the levels.
impl PartialEq for Hierarchy {
    fn eq(&self, other: &Hierarchy) -> bool {
        Arc::ptr_eq(&self.levels, &other.levels) || self.levels == other.levels
    }
}

impl Hierarchy {
    pub fn new() -> Self {
        Hierarchy::default()
    }

    /// Add a level. The first level added must be the root (no parent);
    /// every other level names an existing parent.
    pub fn add_level(
        &mut self,
        name: &str,
        parent: Option<&str>,
        params: HwParams,
    ) -> Result<LevelId, String> {
        if self.by_name.contains_key(name) {
            return Err(format!("duplicate hardware description `{name}`"));
        }
        let parent_id = match parent {
            None => {
                if !self.levels.is_empty() {
                    return Err(format!(
                        "`{name}` has no parent but the hierarchy already has a root"
                    ));
                }
                None
            }
            Some(p) => Some(
                self.id(p)
                    .ok_or_else(|| format!("`{name}` extends unknown level `{p}`"))?,
            ),
        };
        let id = LevelId(self.levels.len());
        let levels = Arc::make_mut(&mut self.levels);
        levels.push(Level {
            name: name.to_string(),
            parent: parent_id,
            children: Vec::new(),
            params,
        });
        if let Some(p) = parent_id {
            levels[p.0].children.push(id);
        }
        Arc::make_mut(&mut self.by_name).insert(name.to_string(), id);
        Ok(id)
    }

    /// Look up a level by name.
    pub fn id(&self, name: &str) -> Option<LevelId> {
        self.by_name.get(name).copied()
    }

    pub fn name(&self, id: LevelId) -> &str {
        &self.levels[id.0].name
    }

    pub fn parent(&self, id: LevelId) -> Option<LevelId> {
        self.levels[id.0].parent
    }

    pub fn children(&self, id: LevelId) -> &[LevelId] {
        &self.levels[id.0].children
    }

    pub fn root(&self) -> Option<LevelId> {
        if self.levels.is_empty() {
            None
        } else {
            Some(LevelId(0))
        }
    }

    pub fn len(&self) -> usize {
        self.levels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Leaf levels = concrete devices.
    pub fn leaves(&self) -> Vec<LevelId> {
        (0..self.levels.len())
            .map(LevelId)
            .filter(|id| self.levels[id.0].children.is_empty())
            .collect()
    }

    /// Path from the root down to `id` (inclusive).
    pub fn root_path(&self, id: LevelId) -> Vec<LevelId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.levels[cur.0].parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Depth of a level (root = 0).
    pub fn depth(&self, id: LevelId) -> usize {
        self.root_path(id).len() - 1
    }

    /// Is `ancestor` on the root path of `id` (or equal to it)?
    pub fn is_ancestor_or_self(&self, ancestor: LevelId, id: LevelId) -> bool {
        let mut cur = Some(id);
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = self.levels[c.0].parent;
        }
        false
    }

    /// Effective parameters: own merged with all ancestors'.
    pub fn effective_params(&self, id: LevelId) -> HwParams {
        let path = self.root_path(id);
        let mut acc = self.levels[path[0].0].params.clone();
        for lvl in &path[1..] {
            acc = self.levels[lvl.0].params.merge_from_parent(&acc);
        }
        acc
    }

    /// Fully resolved parameters of a leaf device.
    pub fn device_params(&self, id: LevelId) -> Result<ResolvedParams, String> {
        self.effective_params(id).resolve(self.name(id))
    }

    /// Most-specific-version selection (paper Sec. III-A): among the levels a
    /// kernel exists for, pick the deepest one that is an ancestor-or-self of
    /// `device`. Returns `None` when no version applies.
    pub fn most_specific(&self, available: &[LevelId], device: LevelId) -> Option<LevelId> {
        available
            .iter()
            .copied()
            .filter(|lvl| self.is_ancestor_or_self(*lvl, device))
            .max_by_key(|lvl| self.depth(*lvl))
    }

    /// Pretty-print the tree (paper Fig. 2) as indented text.
    pub fn render_tree(&self) -> String {
        fn walk(h: &Hierarchy, id: LevelId, depth: usize, out: &mut String) {
            let _ = writeln!(out, "{}{}", "  ".repeat(depth), h.name(id));
            for c in h.children(id) {
                walk(h, *c, depth + 1, out);
            }
        }
        let mut out = String::new();
        if let Some(root) = self.root() {
            walk(self, root, 0, &mut out);
        }
        out
    }

    /// All level names, in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.levels.iter().map(|l| l.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        // perfect -> gpu -> {nvidia -> {gtx480}, amd}
        //         -> mic
        let mut h = Hierarchy::new();
        h.add_level("perfect", None, HwParams::default()).unwrap();
        h.add_level("gpu", Some("perfect"), HwParams::default())
            .unwrap();
        h.add_level("mic", Some("perfect"), HwParams::default())
            .unwrap();
        h.add_level("nvidia", Some("gpu"), HwParams::default())
            .unwrap();
        h.add_level("amd", Some("gpu"), HwParams::default())
            .unwrap();
        h.add_level("gtx480", Some("nvidia"), HwParams::default())
            .unwrap();
        h
    }

    #[test]
    fn build_and_lookup() {
        let h = small();
        assert_eq!(h.len(), 6);
        assert_eq!(h.name(h.id("gpu").unwrap()), "gpu");
        assert!(h.id("cpu").is_none());
        assert_eq!(h.root(), h.id("perfect"));
    }

    #[test]
    fn duplicate_and_bad_parent_rejected() {
        let mut h = small();
        assert!(h
            .add_level("gpu", Some("perfect"), HwParams::default())
            .is_err());
        assert!(h
            .add_level("x", Some("nonexistent"), HwParams::default())
            .is_err());
        assert!(h
            .add_level("second-root", None, HwParams::default())
            .is_err());
    }

    #[test]
    fn paths_and_depths() {
        let h = small();
        let gtx = h.id("gtx480").unwrap();
        let names: Vec<_> = h.root_path(gtx).iter().map(|l| h.name(*l)).collect();
        assert_eq!(names, ["perfect", "gpu", "nvidia", "gtx480"]);
        assert_eq!(h.depth(gtx), 3);
        assert_eq!(h.depth(h.root().unwrap()), 0);
    }

    #[test]
    fn ancestor_queries() {
        let h = small();
        let (gpu, mic, gtx) = (
            h.id("gpu").unwrap(),
            h.id("mic").unwrap(),
            h.id("gtx480").unwrap(),
        );
        assert!(h.is_ancestor_or_self(gpu, gtx));
        assert!(h.is_ancestor_or_self(gtx, gtx));
        assert!(!h.is_ancestor_or_self(mic, gtx));
        assert!(!h.is_ancestor_or_self(gtx, gpu));
    }

    #[test]
    fn leaves_are_childless() {
        let h = small();
        let leaves: Vec<_> = h.leaves().iter().map(|l| h.name(*l)).collect();
        assert_eq!(leaves, ["mic", "amd", "gtx480"]);
    }

    #[test]
    fn equality_covers_names_parents_and_parameters() {
        assert_eq!(small(), small());
        let one = |name: &str, parent: &str, unit: &str| {
            let mut h = Hierarchy::new();
            h.add_level("perfect", None, HwParams::default()).unwrap();
            h.add_level("gpu", Some("perfect"), HwParams::default())
                .unwrap();
            let units = vec![crate::params::ParUnit {
                name: unit.to_string(),
                max: None,
            }];
            h.add_level(
                name,
                Some(parent),
                HwParams {
                    par_units: units,
                    ..HwParams::default()
                },
            )
            .unwrap();
            h
        };
        let base = one("mic", "perfect", "cores");
        assert_eq!(base, one("mic", "perfect", "cores"));
        assert_ne!(base, one("phi", "perfect", "cores"), "level name");
        assert_ne!(base, one("mic", "gpu", "cores"), "parent");
        assert_ne!(base, one("mic", "perfect", "threads"), "parameters");
        assert_ne!(base, small(), "other levels");
    }

    #[test]
    fn most_specific_selection() {
        let h = small();
        let (perfect, gpu, nvidia, amd, gtx) = (
            h.id("perfect").unwrap(),
            h.id("gpu").unwrap(),
            h.id("nvidia").unwrap(),
            h.id("amd").unwrap(),
            h.id("gtx480").unwrap(),
        );
        // Kernel exists at perfect, gpu and amd. For the GTX480 the gpu
        // version wins; for amd the amd version; for mic only perfect applies.
        let avail = vec![perfect, gpu, amd];
        assert_eq!(h.most_specific(&avail, gtx), Some(gpu));
        assert_eq!(h.most_specific(&avail, amd), Some(amd));
        assert_eq!(h.most_specific(&avail, h.id("mic").unwrap()), Some(perfect));
        // Kernel only at nvidia: nothing applies to amd.
        assert_eq!(h.most_specific(&[nvidia], amd), None);
    }

    #[test]
    fn effective_params_inherit_down_the_path() {
        let mut h = Hierarchy::new();
        h.add_level(
            "perfect",
            None,
            HwParams {
                flops_per_lane_per_cycle: Some(2.0),
                ..HwParams::default()
            },
        )
        .unwrap();
        h.add_level(
            "gpu",
            Some("perfect"),
            HwParams {
                pcie_gbs: Some(8.0),
                ..HwParams::default()
            },
        )
        .unwrap();
        h.add_level(
            "dev",
            Some("gpu"),
            HwParams {
                compute_units: Some(10),
                pcie_gbs: Some(6.0),
                ..HwParams::default()
            },
        )
        .unwrap();
        let eff = h.effective_params(h.id("dev").unwrap());
        assert_eq!(eff.flops_per_lane_per_cycle, Some(2.0));
        assert_eq!(eff.pcie_gbs, Some(6.0), "closest level wins");
        assert_eq!(eff.compute_units, Some(10));
    }

    #[test]
    fn render_tree_is_indented() {
        let h = small();
        let t = h.render_tree();
        assert!(t.starts_with("perfect\n"));
        assert!(t.contains("  gpu\n"));
        assert!(t.contains("    nvidia\n"));
        assert!(t.contains("      gtx480\n"));
    }
}
