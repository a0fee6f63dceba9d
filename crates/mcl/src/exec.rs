//! Types shared by the two kernel executors: the register-bytecode VM
//! ([`crate::vm`]) that runs every launch, and the tree-walking reference
//! interpreter ([`crate::interp`]) that tests check it against.

use crate::stats::KernelStats;
use crate::value::ArgValue;
use std::fmt;

/// Kernel runtime error (after successful checking).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MCPL runtime error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ExecError {}

// Instruction costs in device cycles, charged identically by both engines.
pub(crate) const CYCLE_BASIC: f64 = 1.0;
pub(crate) const CYCLE_SPECIAL: f64 = 8.0;
pub(crate) const CYCLE_LOCAL: f64 = 2.0;
/// Global accesses cost extra issue cycles: a partial charge for the
/// latency that occupancy cannot always hide. This is what makes staging
/// reused data in `local` memory profitable beyond pure bandwidth savings.
pub(crate) const CYCLE_GLOBAL: f64 = 4.0;
pub(crate) const CYCLE_BARRIER: f64 = 4.0;
/// Memory transaction granularity in bytes.
pub(crate) const TRANSACTION_BYTES: u64 = 32;
/// Device element size in bytes (float/int are 32-bit on device).
pub(crate) const ELEM_BYTES: u64 = 4;

/// The L1 model's key for one global load: the address vector it issued.
/// Two loads share a key exactly when their address vectors are equal
/// (for two lane-varying vectors, up to an FNV-1a collision). A vector
/// whose lanes all carry one address keys in O(1), whichever path built
/// it; hashing it would fold the same address `lanes` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum L1Key {
    /// Every one of `lanes` lanes issued `addr`.
    Uniform { addr: u64, lanes: usize },
    /// FNV-1a over the per-lane addresses, which are not all equal.
    Lanes(u64),
}

impl L1Key {
    pub(crate) fn of(addrs: &[u64]) -> L1Key {
        match addrs {
            [addr, rest @ ..] if rest.iter().all(|a| a == addr) => L1Key::Uniform {
                addr: *addr,
                lanes: addrs.len(),
            },
            _ => L1Key::Lanes(addrs.iter().fold(0xcbf2_9ce4_8422_2325, |h, &a| {
                (h ^ a).wrapping_mul(0x1000_0000_01b3)
            })),
        }
    }
}

/// One load site's L1 model: the keys of its last eight misses. A load
/// whose key is among them hits and moves no DRAM bytes (loop-invariant
/// loads, repeated broadcasts); a miss enters its key, evicting the
/// oldest. Stores write through and never consult it.
#[derive(Debug, Clone, Default)]
pub(crate) struct L1Site {
    keys: [Option<L1Key>; 8],
    /// Where the next miss goes: the oldest entry once all eight are full.
    next: usize,
}

impl L1Site {
    /// Look `key` up; a miss enters it. Returns whether it hit.
    pub(crate) fn hit(&mut self, key: L1Key) -> bool {
        if self.keys.contains(&Some(key)) {
            return true;
        }
        self.keys[self.next] = Some(key);
        self.next = (self.next + 1) % self.keys.len();
        false
    }

    /// Whether `first`, the first misses (at most eight, in order) of a
    /// site that started empty, would each miss here too. Miss `j` lands
    /// in slot `(next + j) % 8`, so key `j` must not sit in a slot the
    /// `j` misses before it have not yet overwritten. Every lookup in
    /// between hits in both sites (its key is an earlier miss), and after
    /// the eighth miss both sites hold the same eight keys in the same
    /// eviction order, so the two then behave alike.
    pub(crate) fn misses_too(&self, first: &[L1Key]) -> bool {
        let n = self.keys.len();
        first
            .iter()
            .enumerate()
            .all(|(j, &key)| (j..n).all(|i| self.keys[(self.next + i) % n] != Some(key)))
    }

    /// Continue this site with the misses of `later`, a site that started
    /// empty: the state this site would reach by taking those misses
    /// itself, provided none of them would have hit here. Miss `j` of
    /// `later` sits in slot `j % 8` and would land in slot
    /// `(next + j) % 8`, so the resident misses rotate by `next`.
    pub(crate) fn append(&mut self, later: &L1Site) {
        let n = self.keys.len();
        for (i, key) in later.keys.iter().enumerate() {
            if key.is_some() {
                self.keys[(self.next + i) % n] = *key;
            }
        }
        self.next = (self.next + later.next) % n;
    }
}

/// Iterations one `for` loop may run before both engines report a runaway
/// ("loop exceeded 1e9 iterations"). The crate's unit tests lower it so
/// that the differential tests can reach that error in both engines.
pub(crate) const LOOP_LIMIT: u64 = if cfg!(test) { 100_000 } else { 1_000_000_000 };

/// Iterations a sampled run executes of each `foreach` that has more:
/// vector chunks of a vectorized one, uniform iterations of a sequential
/// one. The counters they add are scaled by `n / SAMPLED_ITERS` to stand
/// for all `n`, and the two iterations of a launch's outermost sampled
/// loop can run on two host threads ([`crate::vm`]).
pub const SAMPLED_ITERS: u64 = 2;

/// Execution options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Warp/wavefront width used for issue and coalescing accounting.
    pub simd_width: usize,
    /// Lanes per vectorized chunk (work-group size).
    pub group_size: usize,
    /// Run [`SAMPLED_ITERS`] iterations of each `foreach` and extrapolate;
    /// `false` = full functional execution.
    pub sampled: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            simd_width: 32,
            group_size: 256,
            sampled: false,
        }
    }
}

/// Result: the (possibly mutated) arguments plus collected statistics.
#[derive(Debug)]
pub struct ExecResult {
    pub args: Vec<ArgValue>,
    pub stats: KernelStats,
}
