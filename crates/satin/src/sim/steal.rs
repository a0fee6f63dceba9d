//! Steal-victim selection — the work-stealing half of the policy arena.
//!
//! An idle node steals from another *node*: this is Satin's inter-node
//! victim choice (which device inside a node runs a job is the balancer's
//! decision, in the `cashmere` crate). [`StealKind`] names the policy, and
//! `StealKind::pick_victim` is the whole decision, one `match` on the
//! tag. The per-thief state the stateful policies read — the
//! `recent-victim` entry and the `round-robin-scan` cursor — lives in the
//! engine's world, which keeps it honest in one place: a successful steal
//! records the thief's feeder, a refusal by that feeder forgets it, and a
//! crash forgets the crashed node as every thief's recent victim.
//!
//! Determinism contract: a pick is a deterministic function of its
//! arguments and the engine's dedicated steal stream `0x57EA1`. A policy
//! that needs no randomness does not touch the rng, and one that does
//! draws only the values it consumes — random draws are part of the
//! byte-determinism budget. The default `uniform-random` reproduces the
//! engine's historical 8-try loop draw for draw, and `recent-victim`
//! falls through to that same loop when it has no usable entry.

use cashmere_des::rng::StreamRng;
use serde::{Content, DeError, Deserialize, Serialize};

/// Which steal-victim policy the engine runs: the serializable spec tag
/// and, through `StealKind::pick_victim`, the decision itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StealKind {
    /// Satin's classic random victim: up to 8 uniform draws, first live
    /// non-self node wins. The historical engine behaviour.
    #[default]
    UniformRandom,
    /// Locality-aware: retry the last node that fed this thief before
    /// falling back to the random pick. A victim that just had surplus
    /// work often still does, and a repeated pair keeps transfers on one
    /// warmed-up link.
    RecentVictim,
    /// Deterministic round-robin scan from a per-thief cursor; consumes no
    /// randomness at all.
    RoundRobinScan,
}

// Hand-written so the JSON form is the stable kebab-case CLI name, with
// aliases accepted and normalized on load (mirrors `Policy` in cashmere).
impl Serialize for StealKind {
    fn to_content(&self) -> Content {
        Content::Str(self.name().to_string())
    }
}

impl Deserialize for StealKind {
    fn from_content(content: &Content) -> Result<StealKind, DeError> {
        match content.as_str() {
            Some(s) => StealKind::parse(s).ok_or_else(|| DeError::unknown_variant(s, "StealKind")),
            None => Err(DeError::expected("string", "StealKind", content)),
        }
    }
}

impl StealKind {
    pub const ALL: [StealKind; 3] = [
        StealKind::UniformRandom,
        StealKind::RecentVictim,
        StealKind::RoundRobinScan,
    ];

    /// Stable CLI/JSON name (`uniform-random`, `recent-victim`,
    /// `round-robin-scan`).
    pub fn name(self) -> &'static str {
        match self {
            StealKind::UniformRandom => "uniform-random",
            StealKind::RecentVictim => "recent-victim",
            StealKind::RoundRobinScan => "round-robin-scan",
        }
    }

    /// Parse a steal-policy name. Aliases are normalized: the parsed value
    /// round-trips through [`StealKind::name`] as the canonical spelling.
    pub fn parse(s: &str) -> Option<StealKind> {
        match s.to_ascii_lowercase().as_str() {
            "uniform-random" | "uniform" | "random" => Some(StealKind::UniformRandom),
            "recent-victim" | "recent" | "locality" => Some(StealKind::RecentVictim),
            "round-robin-scan" | "rr-scan" | "scan" => Some(StealKind::RoundRobinScan),
            _ => None,
        }
    }

    /// Pick a live victim for `thief`, or `None` to give up this round
    /// (the engine then polls again with backoff). `alive(v)` reports
    /// liveness for `v < nodes`; a returned victim is live and differs
    /// from `thief`. `recent` is the thief's last feeder (read by
    /// `recent-victim`), `cursor` its scan offset from itself (advanced by
    /// `round-robin-scan`).
    pub(crate) fn pick_victim(
        self,
        thief: usize,
        nodes: usize,
        alive: impl Fn(usize) -> bool,
        rng: &mut StreamRng,
        recent: &mut Option<usize>,
        cursor: &mut usize,
    ) -> Option<usize> {
        match self {
            StealKind::UniformRandom => {}
            StealKind::RecentVictim => {
                if let Some(v) = *recent {
                    if v != thief && v < nodes && alive(v) {
                        return Some(v);
                    }
                    // Defensive: the engine already forgets crashed nodes.
                    *recent = None;
                }
            }
            StealKind::RoundRobinScan => {
                // Scan `thief+cursor+1, thief+cursor+2, …` modulo the
                // cluster size; every attempt re-checks liveness, so
                // crash/join need no bookkeeping.
                let off = (1..nodes)
                    .map(|step| (*cursor + step) % nodes)
                    .find(|&off| {
                        let v = (thief + off) % nodes;
                        v != thief && alive(v)
                    })?;
                *cursor = off;
                return Some((thief + off) % nodes);
            }
        }
        // Satin's classic pick: up to 8 uniform draws, the first live
        // non-self node wins.
        (0..8)
            .map(|_| rng.below(nodes))
            .find(|&v| v != thief && alive(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> StreamRng {
        StreamRng::new(7, 0x57EA1)
    }

    /// One thief's policy state, as the engine's world keeps it.
    #[derive(Default)]
    struct Thief {
        recent: Option<usize>,
        cursor: usize,
    }

    impl Thief {
        fn pick(
            &mut self,
            kind: StealKind,
            thief: usize,
            nodes: usize,
            alive: impl Fn(usize) -> bool,
            rng: &mut StreamRng,
        ) -> Option<usize> {
            kind.pick_victim(thief, nodes, alive, rng, &mut self.recent, &mut self.cursor)
        }
    }

    #[test]
    fn kind_names_round_trip_and_aliases_normalize() {
        for k in StealKind::ALL {
            assert_eq!(StealKind::parse(k.name()), Some(k));
        }
        assert_eq!(StealKind::parse("random"), Some(StealKind::UniformRandom));
        assert_eq!(StealKind::parse("locality"), Some(StealKind::RecentVictim));
        assert_eq!(StealKind::parse("scan"), Some(StealKind::RoundRobinScan));
        assert_eq!(StealKind::parse("nope"), None);
        let json = serde_json::to_string(&StealKind::RecentVictim).unwrap();
        assert_eq!(json, "\"recent-victim\"");
        let back: StealKind = serde_json::from_str("\"rr-scan\"").unwrap();
        assert_eq!(back, StealKind::RoundRobinScan);
    }

    #[test]
    fn uniform_random_matches_the_historical_inline_loop() {
        // The policy must replay the exact draw sequence of the old inline
        // code: same stream, same number of draws per attempt.
        let nodes = 4;
        let mut policy_rng = rng();
        let mut state = Thief::default();
        let picks: Vec<_> = (0..64)
            .map(|i| {
                state.pick(
                    StealKind::UniformRandom,
                    i % nodes,
                    nodes,
                    |_| true,
                    &mut policy_rng,
                )
            })
            .collect();
        let mut inline_rng = rng();
        let inline: Vec<_> = (0..64)
            .map(|i| {
                let thief = i % nodes;
                let mut victim = None;
                for _ in 0..8 {
                    let v = inline_rng.below(nodes);
                    if v != thief {
                        victim = Some(v);
                        break;
                    }
                }
                victim
            })
            .collect();
        assert_eq!(picks, inline);
    }

    #[test]
    fn uniform_random_skips_dead_nodes_and_can_give_up() {
        let alive = |v: usize| v == 0;
        let mut r = rng();
        let mut state = Thief::default();
        for _ in 0..32 {
            // Only node 0 is alive, so thief 1 can only ever get 0.
            assert!(matches!(
                state.pick(StealKind::UniformRandom, 1, 4, alive, &mut r),
                Some(0) | None
            ));
            // Thief 0 has no live victim at all.
            assert_eq!(
                state.pick(StealKind::UniformRandom, 0, 4, alive, &mut r),
                None
            );
        }
    }

    #[test]
    fn recent_victim_prefers_cache_and_invalidates_on_crash_and_refusal() {
        let alive = |_: usize| true;
        let recent = StealKind::RecentVictim;
        // Thief 0 was last fed by node 3: the entry wins, without
        // consuming randomness.
        let mut state = Thief {
            recent: Some(3),
            ..Thief::default()
        };
        let mut fresh = rng();
        assert_eq!(state.pick(recent, 0, 4, alive, &mut fresh), Some(3));
        assert_eq!(state.pick(recent, 0, 4, alive, &mut fresh), Some(3));
        assert_eq!(fresh.below(1 << 30), rng().below(1 << 30));
        // After a refusal the engine drops the entry, and the pick falls
        // through to the uniform draw, draw for draw.
        state.recent = None;
        let (mut a, mut b) = (rng(), rng());
        for _ in 0..8 {
            assert_eq!(
                state.pick(recent, 0, 4, alive, &mut a),
                Thief::default().pick(StealKind::UniformRandom, 0, 4, alive, &mut b)
            );
        }
        // An entry naming a crashed node is never returned, and is dropped.
        state.recent = Some(2);
        let alive2 = |v: usize| v != 2;
        if let Some(v) = state.pick(recent, 0, 4, alive2, &mut a) {
            assert_ne!(v, 2);
            assert_ne!(v, 0);
        }
        assert_eq!(state.recent, None);
    }

    #[test]
    fn round_robin_scan_cycles_live_peers_without_randomness() {
        let alive = |_: usize| true;
        let mut r = rng();
        let mut state = Thief::default();
        let scan = StealKind::RoundRobinScan;
        let picks: Vec<_> = (0..6)
            .map(|_| state.pick(scan, 0, 4, alive, &mut r))
            .collect();
        assert_eq!(
            picks,
            vec![Some(1), Some(2), Some(3), Some(1), Some(2), Some(3)]
        );
        // Node 2 dies: the cycle closes over the survivors.
        let alive2 = |v: usize| v != 2;
        let picks: Vec<_> = (0..4)
            .map(|_| state.pick(scan, 0, 4, alive2, &mut r))
            .collect();
        assert_eq!(picks, vec![Some(1), Some(3), Some(1), Some(3)]);
        // The untouched rng proves no randomness was consumed.
        let mut fresh = rng();
        assert_eq!(r.below(1 << 30), fresh.below(1 << 30));
    }
}
