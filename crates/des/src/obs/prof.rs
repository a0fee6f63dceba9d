//! Host self-profiler: where does the *simulator's* wall time go?
//!
//! Every other module in `obs` observes the simulated cluster; this one
//! observes the simulator itself. BENCH_sim.json records opaque end-to-end
//! walls — "fig6 takes 3.1s" — but not whether the time went to event
//! dispatch, the MCPL VM, steal machinery, or export I/O. The profiler
//! answers that with a calling-context tree (CCT) of RAII scoped timers:
//!
//! - [`scope`] pushes a frame on a **thread-local** stack and starts a
//!   monotonic clock ([`std::time::Instant`]); dropping the returned
//!   [`Scope`] pops the frame and charges the elapsed host nanoseconds to
//!   the calling context (the path of open scopes), aggregating repeat
//!   visits into one node per `(path, name)`.
//! - When profiling is disabled (the default), [`scope`] is one relaxed
//!   atomic load and a branch — cheap enough to leave in the DES dispatch
//!   loop.
//! - Worker threads each build their own tree; [`take_local`] drains a
//!   thread's tree and [`absorb`] merges it into a process-wide
//!   accumulator. The sweep executor absorbs per-point trees **in declared
//!   point order**, and [`take`] name-sorts every sibling list, so the
//!   aggregated tree is structurally identical at any `--jobs` width (only
//!   the wall-time values vary between hosts and runs).
//!
//! The profiler is *observer-pure* by construction: it reads host clocks
//! and touches only its own thread-local state, never [`crate::SimTime`]
//! or any simulated artifact — runs with profiling on and off produce
//! byte-identical reports (proven by `tests/self_profile.rs` in the bench
//! crate).
//!
//! Exports: [`ProfTree::collapsed`] (the `frame;frame;frame <count>`
//! collapsed-stack format consumed by `inferno` and `flamegraph.pl`),
//! [`ProfTree::digest`] (a text top-N table), and plain serde for the
//! JSON report (the bench layer wraps it in a provenance envelope).

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-wide accumulator of absorbed worker trees (see [`absorb`]).
static ABSORBED: Mutex<Option<ProfTree>> = Mutex::new(None);

/// When profiling was last enabled — the denominator of the attribution
/// share (`attributed_ns / wall_ns`) the JSON export reports.
static STARTED: Mutex<Option<Instant>> = Mutex::new(None);

/// Turn profiling on or off process-wide. Enabling (re)stamps the wall
/// clock [`wall_ns`] measures from. Scopes opened while enabled charge
/// their time even if profiling is disabled before they close.
pub fn set_enabled(on: bool) {
    if on {
        *STARTED.lock().unwrap() = Some(Instant::now());
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Host wall nanoseconds since profiling was last enabled; 0 when it never
/// was. The single-threaded upper bound on what the tree can attribute.
pub fn wall_ns() -> u64 {
    STARTED
        .lock()
        .unwrap()
        .map(|t0| t0.elapsed().as_nanos() as u64)
        .unwrap_or(0)
}

/// Is profiling enabled? One relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One CCT node in the thread-local arena. Children are looked up by
/// linear scan — context trees are shallow and narrow (tens of distinct
/// frames), so a scan beats hashing.
struct Frame {
    name: &'static str,
    total_ns: u64,
    count: u64,
    children: Vec<usize>,
}

/// Thread-local collector: an arena of frames plus the stack of open
/// scopes. `frames[0]` is the synthetic root; its children are the
/// top-level scopes of this thread.
struct Collector {
    frames: Vec<Frame>,
    stack: Vec<usize>,
}

impl Collector {
    fn new() -> Collector {
        Collector {
            frames: vec![Frame {
                name: "",
                total_ns: 0,
                count: 0,
                children: Vec::new(),
            }],
            stack: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().copied().unwrap_or(0);
        let found = self.frames[parent]
            .children
            .iter()
            .copied()
            .find(|&c| std::ptr::eq(self.frames[c].name, name) || self.frames[c].name == name);
        let idx = match found {
            Some(i) => i,
            None => {
                let i = self.frames.len();
                self.frames.push(Frame {
                    name,
                    total_ns: 0,
                    count: 0,
                    children: Vec::new(),
                });
                self.frames[parent].children.push(i);
                i
            }
        };
        self.stack.push(idx);
    }

    fn exit(&mut self, elapsed_ns: u64) {
        if let Some(idx) = self.stack.pop() {
            let f = &mut self.frames[idx];
            f.total_ns += elapsed_ns;
            f.count += 1;
        }
    }

    fn to_node(&self, idx: usize) -> ProfNode {
        let f = &self.frames[idx];
        ProfNode {
            name: f.name.to_string(),
            count: f.count,
            total_ns: f.total_ns,
            children: f.children.iter().map(|&c| self.to_node(c)).collect(),
        }
    }

    /// Drain completed frames into an owned tree and reset. Frames still
    /// open on the stack keep only the time charged by finished visits.
    fn take(&mut self) -> ProfTree {
        debug_assert!(
            self.stack.is_empty(),
            "prof::take_local with open scopes on this thread"
        );
        let roots = self.frames[0]
            .children
            .clone()
            .into_iter()
            .map(|c| self.to_node(c))
            .collect();
        *self = Collector::new();
        ProfTree { roots }
    }
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::new());
}

/// RAII scope guard: charges the elapsed host time to the calling context
/// when dropped. Inert (holds no clock) when profiling is disabled.
pub struct Scope {
    start: Option<Instant>,
}

/// Open a profiling scope named `name`. Frame names are `&'static str` so
/// the hot path never allocates; use stable, subsystem-style names
/// (`"event::steal"`, `"mcl::execute"`) — the selfbench share breakdown
/// aggregates self-time by these names.
#[inline]
pub fn scope(name: &'static str) -> Scope {
    if !enabled() {
        return Scope { start: None };
    }
    COLLECTOR.with(|c| c.borrow_mut().enter(name));
    Scope {
        start: Some(Instant::now()),
    }
}

impl Drop for Scope {
    #[inline]
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let elapsed = t0.elapsed().as_nanos() as u64;
            COLLECTOR.with(|c| c.borrow_mut().exit(elapsed));
        }
    }
}

/// One node of an owned, serializable context tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfNode {
    pub name: String,
    /// Completed visits to this calling context.
    pub count: u64,
    /// Inclusive host wall time (nanoseconds) across all visits.
    pub total_ns: u64,
    pub children: Vec<ProfNode>,
}

impl ProfNode {
    /// Exclusive time: inclusive minus children, clamped at zero (clock
    /// granularity can make a child appear to exceed its parent).
    pub fn self_ns(&self) -> u64 {
        let kids: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(kids)
    }

    fn merge_from(&mut self, other: &ProfNode) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        merge_children(&mut self.children, &other.children);
    }

    fn sort_rec(&mut self) {
        self.children.sort_by(|a, b| a.name.cmp(&b.name));
        for c in &mut self.children {
            c.sort_rec();
        }
    }
}

/// Merge `other` into `into`, matching nodes by name; unmatched nodes are
/// appended in `other`'s order (first-seen order overall).
fn merge_children(into: &mut Vec<ProfNode>, other: &[ProfNode]) {
    for o in other {
        match into.iter_mut().find(|n| n.name == o.name) {
            Some(n) => n.merge_from(o),
            None => into.push(o.clone()),
        }
    }
}

/// A calling-context tree: the forest of top-level scopes of one thread,
/// or the merge of many threads' forests.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfTree {
    pub roots: Vec<ProfNode>,
}

impl ProfTree {
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Total attributed wall time: the sum of root inclusive times. With
    /// parallel workers this can exceed elapsed wall (it sums per-thread
    /// time, like CPU time does).
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// Merge another tree into this one (counts and times add; nodes match
    /// by name per level).
    pub fn merge(&mut self, other: &ProfTree) {
        merge_children(&mut self.roots, &other.roots);
    }

    /// Name-sort every sibling list, recursively. Applied by [`take`] so
    /// exported trees are structurally identical regardless of the
    /// interleaving that built them.
    pub fn sort(&mut self) {
        self.roots.sort_by(|a, b| a.name.cmp(&b.name));
        for r in &mut self.roots {
            r.sort_rec();
        }
    }

    /// Exclusive time aggregated by frame name — the per-subsystem wall
    /// shares. Sorted by share descending, name ascending on ties; shares
    /// sum to 1.0 (of [`ProfTree::total_ns`]).
    pub fn subsystem_shares(&self) -> Vec<(String, f64)> {
        let mut by_name: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        fn walk<'a>(n: &'a ProfNode, acc: &mut std::collections::BTreeMap<&'a str, u64>) {
            *acc.entry(&n.name).or_insert(0) += n.self_ns();
            for c in &n.children {
                walk(c, acc);
            }
        }
        for r in &self.roots {
            walk(r, &mut by_name);
        }
        let total = self.total_ns().max(1) as f64;
        let mut out: Vec<(String, f64)> = by_name
            .into_iter()
            .map(|(k, v)| (k.to_string(), v as f64 / total))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Collapsed-stack export (`inferno` / `flamegraph.pl` input): one
    /// line per context, `program;frame;frame <self_ns>`. Every line
    /// starts with the `program` root frame; counts are the context's
    /// exclusive nanoseconds, clamped to ≥ 1 so visited-but-instant
    /// leaves stay on the graph.
    pub fn collapsed(&self, program: &str) -> String {
        let mut out = String::new();
        fn walk(n: &ProfNode, path: &mut String, out: &mut String) {
            let len = path.len();
            path.push(';');
            path.push_str(&n.name);
            let self_ns = n.self_ns();
            if self_ns > 0 || n.children.is_empty() {
                out.push_str(path);
                out.push(' ');
                out.push_str(&self_ns.max(1).to_string());
                out.push('\n');
            }
            for c in &n.children {
                walk(c, path, out);
            }
            path.truncate(len);
        }
        let mut path = String::from(program);
        for r in &self.roots {
            walk(r, &mut path, &mut out);
        }
        out
    }

    /// Text top-N digest: the heaviest frame names by exclusive time,
    /// with share, milliseconds and visit counts.
    pub fn digest(&self, n: usize) -> String {
        let total = self.total_ns();
        let mut counts: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        fn visits<'a>(node: &'a ProfNode, acc: &mut std::collections::BTreeMap<&'a str, u64>) {
            *acc.entry(&node.name).or_insert(0) += node.count;
            for c in &node.children {
                visits(c, acc);
            }
        }
        for r in &self.roots {
            visits(r, &mut counts);
        }
        let shares = self.subsystem_shares();
        let mut s = format!(
            "self-profile: {:.1}ms attributed, top {} frames by self time\n",
            total as f64 / 1e6,
            n.min(shares.len())
        );
        for (name, share) in shares.iter().take(n) {
            let self_ms = share * total as f64 / 1e6;
            let visits = counts.get(name.as_str()).copied().unwrap_or(0);
            s.push_str(&format!(
                "  {:>5.1}%  {:>10.2}ms  x{:<9} {}\n",
                share * 100.0,
                self_ms,
                visits,
                name
            ));
        }
        s
    }
}

/// Drain the calling thread's tree (and reset its collector). Call with
/// no scopes open on this thread.
pub fn take_local() -> ProfTree {
    COLLECTOR.with(|c| c.borrow_mut().take())
}

/// Merge a worker's tree into the process-wide accumulator. The sweep
/// executor calls this once per point, in declared point order, after
/// reassembling results — the merge order (and thus the aggregate) is
/// independent of which worker ran which point when.
pub fn absorb(tree: ProfTree) {
    if tree.is_empty() {
        return;
    }
    let mut g = ABSORBED.lock().unwrap();
    match g.as_mut() {
        Some(t) => t.merge(&tree),
        None => *g = Some(tree),
    }
}

/// Drain everything: the calling thread's local tree merged with all
/// absorbed worker trees, name-sorted for structural stability. This is
/// what `--self-profile` writers export.
pub fn take() -> ProfTree {
    let mut tree = take_local();
    if let Some(absorbed) = ABSORBED.lock().unwrap().take() {
        tree.merge(&absorbed);
    }
    tree.sort();
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profiler unit tests share the process-wide enable flag; serialize
    /// them so parallel test threads don't observe each other's frames.
    static LOCK: Mutex<()> = Mutex::new(());

    fn with_profiler<R>(f: impl FnOnce() -> R) -> R {
        let _guard = LOCK.lock().unwrap();
        let _ = take(); // drop stale state from other tests
        set_enabled(true);
        let r = f();
        set_enabled(false);
        r
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _guard = LOCK.lock().unwrap();
        let _ = take();
        set_enabled(false);
        {
            let _a = scope("a");
            let _b = scope("b");
        }
        assert!(take().is_empty());
    }

    #[test]
    fn scopes_build_a_calling_context_tree() {
        let tree = with_profiler(|| {
            for _ in 0..3 {
                let _a = scope("a");
                {
                    let _b = scope("b");
                }
                {
                    let _b = scope("b");
                }
            }
            {
                let _c = scope("c");
                let _b = scope("b");
            }
            take()
        });
        // Same name under different parents = different contexts.
        assert_eq!(tree.roots.len(), 2);
        let a = tree.roots.iter().find(|r| r.name == "a").unwrap();
        assert_eq!(a.count, 3);
        assert_eq!(a.children.len(), 1, "repeat visits aggregate by name");
        assert_eq!(a.children[0].name, "b");
        assert_eq!(a.children[0].count, 6);
        let c = tree.roots.iter().find(|r| r.name == "c").unwrap();
        assert_eq!(c.children[0].name, "b");
        assert_eq!(c.children[0].count, 1);
        assert!(a.total_ns >= a.children[0].total_ns);
    }

    #[test]
    fn merge_adds_counts_and_appends_new_contexts() {
        let node = |name: &str, count, total_ns, children| ProfNode {
            name: name.into(),
            count,
            total_ns,
            children,
        };
        let mut a = ProfTree {
            roots: vec![node("x", 1, 100, vec![node("y", 2, 40, vec![])])],
        };
        let b = ProfTree {
            roots: vec![
                node("x", 1, 60, vec![node("z", 1, 10, vec![])]),
                node("w", 5, 7, vec![]),
            ],
        };
        a.merge(&b);
        assert_eq!(a.roots.len(), 2);
        let x = &a.roots[0];
        assert_eq!((x.count, x.total_ns), (2, 160));
        assert_eq!(x.children.len(), 2, "unmatched child appended");
        assert_eq!(a.total_ns(), 167);
    }

    #[test]
    fn absorb_order_does_not_change_the_sorted_aggregate() {
        let leaf = |name: &str, ns| ProfNode {
            name: name.into(),
            count: 1,
            total_ns: ns,
            children: vec![],
        };
        let t1 = ProfTree {
            roots: vec![leaf("alpha", 5)],
        };
        let t2 = ProfTree {
            roots: vec![leaf("beta", 7)],
        };
        let merged = |order: [&ProfTree; 2]| {
            let mut m = ProfTree::default();
            for t in order {
                m.merge(t);
            }
            m.sort();
            m
        };
        assert_eq!(merged([&t1, &t2]), merged([&t2, &t1]));
    }

    #[test]
    fn collapsed_lines_are_well_formed_and_share_the_root_frame() {
        let tree = with_profiler(|| {
            {
                let _a = scope("dispatch");
                let _b = scope("kernel");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let _c = scope("export");
            }
            take()
        });
        let collapsed = tree.collapsed("cashmere");
        assert!(!collapsed.is_empty());
        for line in collapsed.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("frame list + count");
            assert!(count.parse::<u64>().unwrap() > 0, "{line}");
            let frames: Vec<&str> = stack.split(';').collect();
            assert_eq!(frames[0], "cashmere", "consistent root frame: {line}");
            assert!(frames.iter().all(|f| !f.is_empty()), "{line}");
        }
        assert!(collapsed.contains("cashmere;dispatch;kernel "));
    }

    #[test]
    fn shares_sum_to_one_and_digest_names_heavy_frames() {
        let tree = with_profiler(|| {
            {
                let _a = scope("hot");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _b = scope("cold");
            }
            take()
        });
        let shares = tree.subsystem_shares();
        let sum: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to 1, got {sum}");
        assert_eq!(shares[0].0, "hot", "heaviest frame ranks first");
        let digest = tree.digest(5);
        assert!(digest.contains("hot"), "{digest}");
        assert!(digest.contains("attributed"), "{digest}");
    }

    #[test]
    fn json_round_trips() {
        let tree = ProfTree {
            roots: vec![ProfNode {
                name: "a".into(),
                count: 2,
                total_ns: 99,
                children: vec![ProfNode {
                    name: "b".into(),
                    count: 1,
                    total_ns: 40,
                    children: vec![],
                }],
            }],
        };
        let json = serde_json::to_string(&tree).unwrap();
        let back: ProfTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tree);
    }
}
