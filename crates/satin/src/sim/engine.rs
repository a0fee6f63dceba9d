//! The simulated Satin cluster runtime.
//!
//! Implements the paper's Sec. III-B mechanics on the discrete-event
//! engine: a master node seeds the root job, jobs divide into locally
//! queued children (LIFO for the owner), idle nodes steal from random
//! victims (FIFO end — the biggest jobs), stolen inputs and returned
//! outputs are charged to the interconnect, and message handling slows
//! down when a node's cores are all computing (the paper's explanation for
//! Satin's own limited scaling). Node crashes re-execute lost subtrees,
//! reproducing Satin's fault-tolerance behaviour.
//!
//! Leaf execution is delegated to a [`LeafRuntime`]: one CPU core for plain
//! Satin, the Cashmere device path in the `cashmere` crate.
//!
//! ## Events
//!
//! Every message and timer is a variant of one closed enum, `Event`, and
//! the world dispatches it with one `match` (it is the DES engine's
//! [`Handler`]). Each variant's kind is also the self-profiler frame its
//! handling is charged to:
//!
//! | variant | frame | what happened |
//! |---|---|---|
//! | `Tick` | `event::tick` | a node's scheduler runs: start tasks, or steal when idle |
//! | `ProcessJob` | `event::process-job` | a job's management overhead is paid: divide, or plan its leaf |
//! | `FinishDivide` | `event::finish-divide` | a divide is done: its children are queued |
//! | `LeafDone` | `event::leaf-done` | a leaf's output is ready: its core is free |
//! | `Deliver` | `event::deliver` | a reused orphan result reaches its job |
//! | `SendResult` | `event::send-result` | a child's result is (re)transmitted to the parent's node |
//! | `ReceiveChild` | `event::receive-child` | a child's result arrives at the parent's node |
//! | `Combine` | `event::combine` | a combine is done: the job's result is delivered |
//! | `Steal` | `event::steal` | a steal request reaches the victim |
//! | `StealTimeout` | `event::steal-timeout` | a steal attempt had no answer in time (fault plans only) |
//! | `StealRetry` | `event::steal-retry` | a thief polls again after a refusal, timeout or no-victim poll |
//! | `StealTransfer` | `event::steal-transfer` | a stolen job's transfer ends: it arrives, or was lost |
//! | `Probe` | `event::probe` | the flight recorder samples cluster state |
//! | `Crash` | `event::crash` | a node crashes (fault plan) |
//! | `Join` | `event::join` | a node (re)joins (fault plan) |
//! | `Broadcast` | `event::broadcast` | an inter-iteration broadcast's last arrival |
//!
//! Events carry the job generation, node incarnation or steal token they
//! were scheduled under, so a handler recognises itself as stale after a
//! crash or a resolved steal.
//!
//! ## Ownership
//!
//! Each job record has one `Holder`, written only by `World::hold`. A
//! crash of node *n* restarts every job whose holder names *n* (a
//! `Transfer` by its victim) or whose record lives on *n*:
//!
//! | holder | the job is | set by |
//! |---|---|---|
//! | `Deque(n)` | queued: its one live entry is in `n`'s deque | `enqueue`: a new job, a steal's end, a crash restart |
//! | `Transfer { from }` | stolen from `from`: its input is on the wire to the thief | `handle_steal_request` |
//! | `Running(n)` | started: its divide or leaf holds a core on `n`, or a reused result is on its way | `start_job` |
//! | `Divided(n)` | divided on `n`: waiting for its children, then combining | `finish_divide` |
//! | `Owed { from }` | done: node `from` sent its result, which the parent has not taken | `deliver` |
//! | `Acked` | done: the parent took its result, or it is a finished root | `receive_child`, `deliver` |
//! | `Lost` | discarded by a crash: a re-executed ancestor supersedes it | `crash` |
//!
//! A node's steal retry, its open steal attempt's timeout and the flight
//! recorder's probe each sit in a `Timer` slot, the only code that cancels
//! events. Debug builds check ownership after every event
//! (`World::check_ownership`).

use super::steal::StealKind;
use crate::sim::app::{ClusterApp, DcStep, LeafCtx, LeafRuntime};
use crate::sim::report::{Counter, RunReport};
use cashmere_des::fault::{FaultInjector, FaultPlan, MessageFate};
use cashmere_des::obs::{prof, MetricsRegistry, ProbeSeries};
use cashmere_des::rng::StreamRng;
use cashmere_des::trace::{LaneId, SpanId, SpanKind, Trace};
use cashmere_des::{EventHandle, Handler, Sim, SimTime};
use cashmere_netsim::nic::{schedule_transfer, NodeNic, Transfer};
use cashmere_netsim::NetConfig;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub nodes: usize,
    /// CPU cores per node (DAS-4: dual quad-core = 8).
    pub cores_per_node: usize,
    pub net: NetConfig,
    pub seed: u64,
    /// CPU time to create/manage one job.
    pub job_overhead: SimTime,
    /// Back-off after an unsuccessful steal attempt (doubles on repeated
    /// failures up to `steal_retry_max`, resets on success or local work).
    pub steal_retry: SimTime,
    /// Upper bound of the steal back-off.
    pub steal_retry_max: SimTime,
    /// Maximum node-level leaf jobs a node executes concurrently. Plain
    /// Satin uses one per core; Cashmere limits this to a small number so
    /// that one set of device jobs computes while the next set's transfers
    /// proceed (paper Sec. II-C3) and surplus node jobs stay stealable.
    pub max_concurrent_leaves: usize,
    /// Record Gantt spans.
    pub trace: bool,
    /// Injected faults (node crashes, device deaths, lossy links, transient
    /// launch faults), replayed deterministically from the seed. The empty
    /// plan injects nothing and consumes no randomness, so a run with it is
    /// byte-identical to a run without one.
    pub faults: FaultPlan,
    /// How long a thief waits for a steal request/refusal round trip before
    /// abandoning the attempt (the request or reply was lost). Only armed
    /// when a fault plan is active.
    pub steal_timeout: SimTime,
    /// Satin-style orphan-result reuse: when a crash orphans a subtree,
    /// completed results still held by surviving nodes are salvaged into a
    /// global result table and reused by the re-executed subtree instead of
    /// recomputing them. Disable (`--no-orphan-reuse` in the bench bins) to
    /// measure the ablation: every orphaned result is recomputed.
    pub orphan_reuse: bool,
    /// Flight-recorder cadence: when set, a read-only probe event samples
    /// cluster state (busy cores, queue depths, steal rate, in-flight
    /// bytes, placement mix) every `probe_interval` of virtual time into a
    /// [`ProbeSeries`]. Sampling consumes no randomness and the pending
    /// probe is cancelled at root completion, so enabling it changes no
    /// simulated outcome. Must be positive.
    pub probe_interval: Option<SimTime>,
    /// Steal-victim selection policy. The default ([`StealKind::UniformRandom`])
    /// reproduces the historical inline random pick draw-for-draw, so
    /// default-config runs are byte-identical across the policy refactor.
    pub steal: StealKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 1,
            cores_per_node: 8,
            net: NetConfig::qdr_infiniband(),
            seed: 42,
            job_overhead: SimTime::from_micros(20),
            steal_retry: SimTime::from_micros(200),
            steal_retry_max: SimTime::from_secs(10),
            max_concurrent_leaves: usize::MAX,
            trace: false,
            faults: FaultPlan::default(),
            steal_timeout: SimTime::from_millis(5),
            orphan_reuse: true,
            probe_interval: None,
            steal: StealKind::default(),
        }
    }
}

/// CPU time to divide a job (spawning is cheap but not free).
const DIVIDE_COST: SimTime = SimTime::from_micros(5);

/// Who holds a job: the one record of its ownership, changed only by
/// [`World::hold`]. The module doc's ownership table gives each variant's
/// meaning and the sites that set it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Holder {
    Deque(usize),
    Transfer { from: usize },
    Running(usize),
    Divided(usize),
    Owed { from: usize },
    Acked,
    Lost,
}

impl Holder {
    /// The node whose crash takes the job down: where it is queued, runs
    /// or divided, or the victim it is being stolen from. `None` once the
    /// job is done or lost.
    fn node(self) -> Option<usize> {
        match self {
            Holder::Deque(n)
            | Holder::Running(n)
            | Holder::Divided(n)
            | Holder::Transfer { from: n } => Some(n),
            Holder::Owed { .. } | Holder::Acked | Holder::Lost => None,
        }
    }
}

struct JobRec<A: ClusterApp> {
    input: Option<A::Input>,
    parent: Option<(usize, usize)>,
    /// Node where this job's record lives (its parent's combine runs here).
    home_node: usize,
    holder: Holder,
    /// Records of the current division's children. [`World::new_job`]
    /// hands out consecutive ids, so a division is a range.
    children: Range<usize>,
    /// This job's result once delivered to its parent, held in this record
    /// until the parent's combine takes it.
    delivered: Option<A::Output>,
    /// Bumped on crash-reset; stale events check this.
    generation: u64,
    /// True for jobs (re-)executed because of a failure: restart roots and
    /// everything divided under them. Their leaf compute is accounted as
    /// recovery cost.
    replay: bool,
    /// Span that caused this job to run where it runs: the parent's divide
    /// span at creation, replaced by the steal span when the job is stolen.
    /// Lineage only — `SpanId::NONE` whenever tracing is off.
    origin_span: SpanId,
    /// This job's own divide span; parents its children and its combine.
    divide_span: SpanId,
    /// Deque entries of this job held back by the leaf cap (see
    /// [`TaskDeque`]); non-zero only while a leaf is queued.
    capped_entries: u32,
}

#[derive(Clone, Copy)]
enum Task {
    Job(usize),
    Combine(usize),
}

/// One deque entry.
struct Queued {
    /// Push order. Every push goes to the back, so the deque is sorted by
    /// it and a sequence number names an entry while others are removed
    /// around it.
    seq: u64,
    task: Task,
    /// A job whose input is a leaf: startable only below the leaf cap.
    /// Equal at all times to "the job's input is `Some` and a leaf": the
    /// input only ever goes from `Some` to `None`, and
    /// [`World::drop_input`] clears the flag when it does.
    capped: bool,
}

/// A node's task deque, indexed for `tick`: below the leaf cap the node
/// starts its back entry; at the cap, the backmost entry that is not
/// `capped`. `eager` holds exactly those entries' sequence numbers, so
/// neither case scans the deque.
#[derive(Default)]
struct TaskDeque {
    entries: VecDeque<Queued>,
    next_seq: u64,
    /// Sequence numbers of the entries startable at the leaf cap
    /// (combines, non-leaf jobs, stale jobs), ascending.
    eager: Vec<u64>,
    /// `Task::Job` entries queued, stale ones included.
    jobs: usize,
}

impl TaskDeque {
    fn push(&mut self, task: Task, capped: bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if !capped {
            self.eager.push(seq);
        }
        if matches!(task, Task::Job(_)) {
            self.jobs += 1;
        }
        self.entries.push_back(Queued { seq, task, capped });
    }

    /// Position of the task to start next, given whether a leaf may start.
    fn pick(&self, leaf_ok: bool) -> Option<usize> {
        if leaf_ok {
            return self.entries.len().checked_sub(1);
        }
        let seq = *self.eager.last()?;
        let idx = self
            .entries
            .binary_search_by_key(&seq, |q| q.seq)
            .expect("indexed entry is queued");
        Some(idx)
    }

    fn remove(&mut self, idx: usize) -> Queued {
        let q = self.entries.remove(idx).expect("index valid");
        if !q.capped {
            let at = self
                .eager
                .binary_search(&q.seq)
                .expect("eager entry is indexed");
            self.eager.remove(at);
        }
        if matches!(q.task, Task::Job(_)) {
            self.jobs -= 1;
        }
        q
    }

    /// Job `j`'s input was dropped: its capped entries become startable.
    fn uncap(&mut self, j: usize) {
        for q in &mut self.entries {
            if q.capped && matches!(q.task, Task::Job(k) if k == j) {
                q.capped = false;
                let at = self.eager.binary_search(&q.seq).unwrap_err();
                self.eager.insert(at, q.seq);
            }
        }
    }
}

/// A slot for one pending timer event; the only place events are cancelled.
#[derive(Default)]
struct Timer(Option<EventHandle>);

impl Timer {
    /// Schedule `event` at `at` into the slot. A previous event still
    /// pending is not cancelled: it stays live, but the slot forgets it.
    fn arm<E>(&mut self, sim: &mut Sim<E>, at: SimTime, event: E) {
        self.0 = Some(sim.schedule_at(at, event));
    }

    /// Cancel the pending event, if any.
    fn cancel<E>(&mut self, sim: &mut Sim<E>) {
        if let Some(h) = self.0.take() {
            sim.cancel(h);
        }
    }

    /// The slot's event fired (or a stale one did): forget the handle.
    fn fired(&mut self) {
        self.0 = None;
    }
}

/// A thief's open steal attempt.
struct Attempt {
    /// Names the attempt in its in-flight events, which ignore themselves
    /// once it has closed.
    token: u64,
    /// When it was initiated (steal RTT metric).
    started: SimTime,
    /// Abandons the attempt if no answer arrives (armed only under an
    /// active fault plan).
    timeout: Timer,
}

struct NodeState {
    deque: TaskDeque,
    busy_cores: usize,
    running_leaves: usize,
    /// The open steal attempt, if any.
    attempt: Option<Attempt>,
    steal_failures: u32,
    /// Tokens handed out to this node's steal attempts so far.
    steal_seq: u64,
    /// Pending steal retry, cancelled when the run completes so that
    /// trailing no-op polls do not advance the clock past the real finish.
    retry: Timer,
    alive: bool,
    /// Bumped every time the node crashes. Events scheduled by a previous
    /// incarnation (leaf completions, combines, in-flight steals)
    /// capture the value and ignore themselves after a rejoin, when `alive`
    /// is true again but the node's runtime state has been rebuilt from
    /// scratch.
    incarnation: u64,
    tick_scheduled: bool,
    cpu_lane: LaneId,
    net_lane: LaneId,
}

impl NodeState {
    /// The open steal attempt, if any, is over (success, refusal, crash or
    /// root completion): close it and disarm its timeout. In-flight events
    /// carrying its token are stale from now on.
    fn close_attempt<E>(&mut self, sim: &mut Sim<E>) {
        if let Some(mut a) = self.attempt.take() {
            a.timeout.cancel(sim);
        }
    }

    /// The open attempt's request was answered: its timeout no longer
    /// applies.
    fn disarm_steal_timeout<E>(&mut self, sim: &mut Sim<E>) {
        if let Some(a) = &mut self.attempt {
            a.timeout.cancel(sim);
        }
    }
}

/// A salvaged orphan result in the global result table: the output of a
/// completed subtree whose enclosing tree was reset by a crash, still held
/// by a surviving node.
struct OrphanEntry<O> {
    output: O,
    /// Node physically holding the result; fetching it from elsewhere is
    /// charged as a network transfer.
    node: usize,
    bytes: u64,
}

/// The simulation world: nodes, jobs, application, leaf runtime, and the
/// trace and metrics the run records.
struct World<A: ClusterApp, L: LeafRuntime<A>> {
    app: A,
    leaf: L,
    cfg: SimConfig,
    nodes: Vec<NodeState>,
    jobs: Vec<JobRec<A>>,
    nics: Vec<NodeNic>,
    rng: StreamRng,
    /// Per-thief steal-policy state: the node that last fed each thief
    /// (`recent-victim`) and each thief's scan offset (`round-robin-scan`).
    recent_victim: Vec<Option<usize>>,
    scan_cursor: Vec<usize>,
    /// `(thief, victim)` per initiated steal attempt, recorded only when
    /// `cfg.trace` is set (determinism tests read it back via
    /// [`ClusterSim::steal_victims`]).
    victim_log: Vec<(usize, usize)>,
    faults: FaultInjector,
    root_job: usize,
    root_result: Option<A::Output>,
    done: bool,
    /// Global result table (Satin's orphan-job salvage): completed subtree
    /// results keyed by tree path. Divides are deterministic, so a
    /// re-executed tree is isomorphic to the lost one and the path (child
    /// indices from the root) identifies "the same job" across re-execution.
    /// The map is only ever probed by key and purged by node — iteration
    /// order is never observed, so determinism holds.
    orphans: HashMap<Vec<u32>, OrphanEntry<A::Output>>,
    /// Crash-restarted subtree roots not yet re-completed; drives
    /// `report[Counter::TimeToRecover]`.
    recovery_outstanding: Vec<usize>,
    /// When the current recovery episode (≥ 1 outstanding restart root)
    /// began.
    recovering_since: Option<SimTime>,
    /// Flight-recorder series (`Some` iff `cfg.probe_interval` is set).
    probe: Option<ProbeSeries>,
    /// Pending probe, cancelled at root completion so sampling never
    /// advances the clock past the real finish.
    probe_timer: Timer,
    report: RunReport,
    /// Gantt spans and metrics of the run; both record only when
    /// `cfg.trace` is set.
    trace: Trace,
    metrics: MetricsRegistry,
    /// Jobs handed to a new holder during the current event, checked when
    /// it ends ([`World::check_event`]).
    #[cfg(debug_assertions)]
    touched: Vec<usize>,
}

impl<A: ClusterApp, L: LeafRuntime<A>> World<A, L> {
    fn busy_fraction(&self, node: usize) -> f64 {
        self.nodes[node].busy_cores as f64 / self.cfg.cores_per_node as f64
    }

    /// Charge a transfer of `bytes` from node `src` to node `dst`, requested
    /// at `now`, to both nodes' NICs; each end's CPU load slows its message
    /// handling.
    fn transfer(&mut self, now: SimTime, src: usize, dst: usize, bytes: u64) -> Transfer {
        debug_assert_ne!(src, dst, "a transfer needs two nodes");
        let (src_busy, dst_busy) = (self.busy_fraction(src), self.busy_fraction(dst));
        let (lo, hi) = (src.min(dst), src.max(dst));
        let (first, second) = self.nics.split_at_mut(hi);
        let (src_nic, dst_nic) = if src < dst {
            (&mut first[lo], &mut second[0])
        } else {
            (&mut second[0], &mut first[lo])
        };
        let net = &self.cfg.net;
        schedule_transfer(net, now, src_nic, dst_nic, bytes, src_busy, dst_busy)
    }

    /// Node `n` is up in incarnation `inc`: an event scheduled by that
    /// incarnation still applies.
    fn is_current(&self, n: usize, inc: u64) -> bool {
        self.nodes[n].alive && self.nodes[n].incarnation == inc
    }

    /// Hand job `j` to `holder`.
    fn hold(&mut self, j: usize, holder: Holder) {
        self.jobs[j].holder = holder;
        #[cfg(debug_assertions)]
        self.touched.push(j);
    }

    /// Whether every child of job `p`'s division has handed it its result.
    fn children_done(&self, p: usize) -> bool {
        let mut children = self.jobs[p].children.clone();
        children.all(|c| self.jobs[c].holder == Holder::Acked)
    }

    /// Create a job and queue it on its `home` node.
    fn new_job(&mut self, input: A::Input, parent: Option<(usize, usize)>, home: usize) -> usize {
        // Records are kept for the lifetime of the simulation (inputs and
        // outputs are dropped on completion, bookkeeping stays): iterative
        // drivers accumulate O(jobs × iterations) small records. Fine for
        // the paper's 2–3 iterations; a reclaiming arena is the extension
        // point if thousand-iteration studies ever need it.
        let id = self.jobs.len();
        self.jobs.push(JobRec {
            input: Some(input),
            parent,
            home_node: home,
            holder: Holder::Deque(home),
            children: 0..0,
            delivered: None,
            generation: 0,
            replay: false,
            origin_span: SpanId::NONE,
            divide_span: SpanId::NONE,
            capped_entries: 0,
        });
        self.report[Counter::JobsCreated] += 1;
        self.enqueue(home, id);
        id
    }

    /// Queue job `j` on node `n`: its holder becomes its entry at the back
    /// of `n`'s deque.
    fn enqueue(&mut self, n: usize, j: usize) {
        self.hold(j, Holder::Deque(n));
        let leaf = self.jobs[j]
            .input
            .as_ref()
            .is_some_and(|i| self.app.is_leaf(i));
        if leaf {
            self.jobs[j].capped_entries += 1;
        }
        self.nodes[n].deque.push(Task::Job(j), leaf);
    }

    /// Take the entry at `idx` out of node `n`'s deque.
    fn dequeue(&mut self, n: usize, idx: usize) -> Queued {
        let q = self.nodes[n].deque.remove(idx);
        if let (true, Task::Job(j)) = (q.capped, q.task) {
            self.jobs[j].capped_entries -= 1;
        }
        q
    }

    /// Empty node `n`'s deque (crash, join).
    fn clear_deque(&mut self, n: usize) {
        let deque = std::mem::take(&mut self.nodes[n].deque);
        for q in deque.entries {
            if let (true, Task::Job(j)) = (q.capped, q.task) {
                self.jobs[j].capped_entries -= 1;
            }
        }
    }

    /// Drop job `j`'s input. A queued duplicate of the job left behind by a
    /// crash restart turns stale here, and a stale entry is startable at
    /// the leaf cap: `start_job` discards it. Rare (it takes a crash), so
    /// the deques are searched only when the job has capped entries.
    fn drop_input(&mut self, j: usize) {
        self.jobs[j].input = None;
        if self.jobs[j].capped_entries > 0 {
            self.jobs[j].capped_entries = 0;
            for node in &mut self.nodes {
                node.deque.uncap(j);
            }
        }
    }

    /// Check the ownership invariants over the whole world:
    /// - a `Deque(n)` job has exactly one entry in `n`'s deque;
    /// - `Deque`, `Running` and `Divided` name a live node, and a
    ///   `Transfer`'s victim is alive;
    /// - a node with an open steal attempt, which owns the armed steal
    ///   timeout, is alive, and the run is not done.
    ///
    /// Two invariants are left out because the engine breaks them today:
    /// nothing re-executes a child whose result is `Owed` by a crashed
    /// sender, and a node can have more than one live steal retry, since
    /// [`Timer::arm`] does not cancel the retry it replaces.
    #[cfg(any(debug_assertions, test))]
    fn check_ownership(&self) -> Result<(), String> {
        self.check_nodes()?;
        let mut entries = vec![0u32; self.jobs.len()];
        for (n, node) in self.nodes.iter().enumerate() {
            for q in &node.deque.entries {
                match q.task {
                    Task::Job(j) if self.jobs[j].holder == Holder::Deque(n) => entries[j] += 1,
                    _ => {}
                }
            }
        }
        for (j, &count) in entries.iter().enumerate() {
            self.check_job(j, Some(count))?;
        }
        Ok(())
    }

    /// The check after one event: every node, but only the jobs the event
    /// handed to a new holder. A crash or join changes which nodes are
    /// alive and a finished root ends the run; those check everything.
    #[cfg(debug_assertions)]
    fn check_event(&mut self, full: bool) -> Result<(), String> {
        let touched = std::mem::take(&mut self.touched);
        if full {
            return self.check_ownership();
        }
        self.check_nodes()?;
        touched.iter().try_for_each(|&j| self.check_job(j, None))
    }

    /// Job `j`'s holder names a live node and, if it is queued, its deque
    /// holds it once (`entries`, when already counted).
    #[cfg(any(debug_assertions, test))]
    fn check_job(&self, j: usize, entries: Option<u32>) -> Result<(), String> {
        let holder = self.jobs[j].holder;
        let Some(n) = holder.node() else {
            return Ok(());
        };
        if !self.nodes[n].alive {
            return Err(format!(
                "job {j} is held by {holder:?}, but node {n} is down"
            ));
        }
        if holder == Holder::Deque(n) {
            let entries = entries.unwrap_or_else(|| {
                let deque = &self.nodes[n].deque.entries;
                deque
                    .iter()
                    .filter(|q| matches!(q.task, Task::Job(k) if k == j))
                    .count() as u32
            });
            if entries != 1 {
                return Err(format!(
                    "job {j} is held by {holder:?}, but node {n}'s deque has {entries} entries for it"
                ));
            }
        }
        Ok(())
    }

    /// No node has an open steal attempt while it is down or once the run
    /// is done.
    #[cfg(any(debug_assertions, test))]
    fn check_nodes(&self) -> Result<(), String> {
        for (n, node) in self.nodes.iter().enumerate() {
            let Some(a) = &node.attempt else {
                continue;
            };
            let why = match (node.alive, self.done) {
                (false, _) => "is down",
                (true, true) => "finished its run",
                (true, false) => continue,
            };
            let armed = if a.timeout.0.is_some() {
                "an armed"
            } else {
                "no"
            };
            return Err(format!(
                "node {n} {why}, but its steal attempt {} is open with {armed} timeout",
                a.token
            ));
        }
        Ok(())
    }
}

/// A task (a job's divide or leaf, or its combine) running on a node: the
/// node, the job, and the job generation and node incarnation the task
/// started under. The events of a running task carry it, so they can tell
/// when a crash has reset the job or the node since.
#[derive(Clone, Copy)]
struct Exec {
    n: usize,
    j: usize,
    generation: u64,
    inc: u64,
}

/// A child's result on its way to the parent's node: child `idx` of job `p`
/// (in generation `pgen`), held by node `n`, owed to the parent's node
/// `home`.
struct ResultMsg<O> {
    n: usize,
    home: usize,
    p: usize,
    idx: usize,
    pgen: u64,
    output: O,
}

/// Stolen job `j` (in generation `generation`) on the wire from `victim` to
/// `thief` (in incarnation `thief_inc`) for steal attempt `token`; `lost`
/// if the transfer dropped it.
struct StolenJob {
    victim: usize,
    thief: usize,
    j: usize,
    token: u64,
    generation: u64,
    thief_inc: u64,
    lost: bool,
}

/// The Satin layer's events (paper Sec. III-B; listed in the module doc),
/// dispatched by one `match` in [`World::handle`].
enum Event<A: ClusterApp> {
    /// Node `n`'s scheduler starts tasks or steals ([`tick`]).
    Tick { n: usize },
    /// A job's management overhead is paid: it divides or plans its leaf
    /// ([`process_job`]).
    ProcessJob { exec: Exec, is_leaf: bool },
    /// A divide is done: the job's children are queued.
    FinishDivide { exec: Exec, children: Vec<A::Input> },
    /// A leaf's output is ready: it releases the core it held.
    LeafDone { exec: Exec, output: A::Output },
    /// A reused orphan result for job `j` reaches node `n`.
    Deliver {
        n: usize,
        j: usize,
        output: A::Output,
        generation: u64,
    },
    /// A child's result is (re)transmitted ([`send_result`]).
    SendResult {
        msg: ResultMsg<A::Output>,
        attempt: u32,
    },
    /// A child's result arrives at the parent's node.
    ReceiveChild(ResultMsg<A::Output>),
    /// A combine is done ([`finish_combine`]).
    Combine(Exec),
    /// A steal request from `thief` arrives at `victim`.
    Steal { victim: usize, thief: usize },
    /// `thief`'s steal attempt `token` has had no answer in time.
    StealTimeout { thief: usize, token: u64 },
    /// `thief` polls again. A retry after a refusal carries the attempt it
    /// resolves; one after a timeout or a no-victim poll carries none.
    StealRetry { thief: usize, token: Option<u64> },
    /// A stolen job's transfer ends: the job arrives, or it was lost in
    /// transit ([`finish_steal_transfer`]).
    StealTransfer(StolenJob),
    /// The flight recorder samples cluster state.
    Probe,
    /// Node `n` crashes.
    Crash { n: usize },
    /// Node `n` (re)joins.
    Join { n: usize },
    /// The last arrival of an inter-iteration broadcast: only advances the
    /// clock.
    Broadcast,
}

type S<A> = Sim<Event<A>>;

impl<A: ClusterApp, L: LeafRuntime<A>> Handler for World<A, L> {
    type Event = Event<A>;

    fn kind(ev: &Event<A>) -> &'static str {
        match ev {
            Event::Tick { .. } => "event::tick",
            Event::ProcessJob { .. } => "event::process-job",
            Event::FinishDivide { .. } => "event::finish-divide",
            Event::LeafDone { .. } => "event::leaf-done",
            Event::Deliver { .. } => "event::deliver",
            Event::SendResult { .. } => "event::send-result",
            Event::ReceiveChild(_) => "event::receive-child",
            Event::Combine(_) => "event::combine",
            Event::Steal { .. } => "event::steal",
            Event::StealTimeout { .. } => "event::steal-timeout",
            Event::StealRetry { .. } => "event::steal-retry",
            Event::StealTransfer(_) => "event::steal-transfer",
            Event::Probe => "event::probe",
            Event::Crash { .. } => "event::crash",
            Event::Join { .. } => "event::join",
            Event::Broadcast => "event::broadcast",
        }
    }

    /// Dispatch `ev`, then (debug builds) check ownership.
    fn handle(&mut self, ev: Event<A>, sim: &mut S<A>) {
        #[cfg(debug_assertions)]
        let (kind, membership, was_done) = (
            Self::kind(&ev),
            matches!(ev, Event::Crash { .. } | Event::Join { .. }),
            self.done,
        );
        dispatch(self, ev, sim);
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_event(membership || (self.done && !was_done)) {
            panic!("ownership broken after {kind} at {}: {e}", sim.now());
        }
    }
}

fn dispatch<A: ClusterApp, L: LeafRuntime<A>>(w: &mut World<A, L>, ev: Event<A>, sim: &mut S<A>) {
    match ev {
        Event::Tick { n } => tick(w, sim, n),
        Event::ProcessJob { exec, is_leaf } => process_job(w, sim, exec, is_leaf),
        Event::FinishDivide { exec, children } => {
            if task_live(w, sim, exec, false) {
                finish_divide(w, sim, exec.n, exec.j, children);
            }
        }
        Event::LeafDone { exec, output } => {
            let n = exec.n;
            if !w.is_current(n, exec.inc) {
                return;
            }
            w.nodes[n].running_leaves -= 1;
            release_core(w, sim, n);
            deliver(w, sim, n, exec.j, output, exec.generation);
        }
        Event::Deliver {
            n,
            j,
            output,
            generation,
        } => {
            if w.nodes[n].alive {
                deliver(w, sim, n, j, output, generation);
            }
        }
        Event::SendResult { msg, attempt } => send_result(w, sim, msg, attempt),
        Event::ReceiveChild(msg) => {
            if w.nodes[msg.home].alive {
                receive_child(w, sim, msg.p, msg.idx, msg.output, msg.pgen);
            } else if w.cfg.orphan_reuse && !w.done && w.nodes[msg.n].alive {
                // The parent's node died while the result was in
                // flight; the sender still holds it.
                stash_result(w, msg);
            }
        }
        Event::Combine(exec) => finish_combine(w, sim, exec),
        Event::Steal { victim, thief } => handle_steal_request(w, sim, victim, thief),
        Event::StealTimeout { thief, token } => steal_timeout(w, sim, thief, token),
        Event::StealRetry { thief, token } => {
            // Clears the slot even when it names a newer retry that is
            // still pending.
            let node = &mut w.nodes[thief];
            node.retry.fired();
            if let Some(mut a) = node.attempt.take_if(|a| Some(a.token) == token) {
                a.timeout.cancel(sim);
            }
            if !w.done && w.nodes[thief].alive {
                schedule_tick(w, sim, thief);
            }
        }
        Event::StealTransfer(stolen) => finish_steal_transfer(w, sim, stolen),
        Event::Probe => {
            w.probe_timer.fired();
            if w.done {
                return;
            }
            sample_probe(w, sim.now());
            if let Some(iv) = w.cfg.probe_interval {
                let at = sim.now() + iv;
                w.probe_timer.arm(sim, at, Event::Probe);
            }
        }
        Event::Crash { n } => crash(w, sim, n),
        Event::Join { n } => join(w, sim, n),
        Event::Broadcast => {}
    }
}

/// The simulated cluster: create once, then run one or more root jobs
/// (iterative applications run one root per iteration with a broadcast in
/// between).
pub struct ClusterSim<A: ClusterApp, L: LeafRuntime<A>> {
    sim: S<A>,
    world: World<A, L>,
}

/// What a finished run leaves behind, moved out of its cluster by
/// [`ClusterSim::into_record`]: the counters, the recordings, and the leaf
/// runtime (which holds its own logs, such as Cashmere's placement audit).
pub struct RunRecord<L> {
    pub report: RunReport,
    pub trace: Trace,
    pub metrics: MetricsRegistry,
    /// Flight-recorder series (`Some` iff [`SimConfig::probe_interval`] is
    /// set).
    pub probes: Option<ProbeSeries>,
    pub leaf: L,
}

impl<A: ClusterApp, L: LeafRuntime<A>> ClusterSim<A, L> {
    pub fn new(app: A, leaf: L, cfg: SimConfig) -> Self {
        let _prof = prof::scope("cluster::build");
        assert!(cfg.nodes >= 1, "need at least one node");
        assert!(cfg.cores_per_node >= 1);
        if let Err(e) = cfg.faults.validate(cfg.nodes) {
            panic!("invalid fault plan: {e}");
        }
        assert!(
            cfg.probe_interval != Some(SimTime::ZERO),
            "probe_interval must be positive"
        );
        let mut trace = Trace::new();
        trace.set_enabled(cfg.trace);
        let mut metrics = MetricsRegistry::new();
        metrics.set_enabled(cfg.trace);
        let nodes = (0..cfg.nodes)
            .map(|n| NodeState {
                deque: TaskDeque::default(),
                busy_cores: 0,
                running_leaves: 0,
                attempt: None,
                steal_failures: 0,
                steal_seq: 0,
                retry: Timer::default(),
                alive: true,
                incarnation: 0,
                tick_scheduled: false,
                cpu_lane: trace.add_lane(format!("node{n}.cpu")),
                net_lane: trace.add_lane(format!("node{n}.net")),
            })
            .collect();
        let world = World {
            app,
            leaf,
            nics: vec![NodeNic::default(); cfg.nodes],
            nodes,
            jobs: Vec::new(),
            rng: StreamRng::new(cfg.seed, 0x57EA1),
            recent_victim: vec![None; cfg.nodes],
            scan_cursor: vec![0; cfg.nodes],
            victim_log: Vec::new(),
            faults: FaultInjector::new(cfg.faults.clone(), cfg.seed),
            root_job: 0,
            root_result: None,
            done: false,
            orphans: HashMap::new(),
            recovery_outstanding: Vec::new(),
            recovering_since: None,
            probe: cfg.probe_interval.map(ProbeSeries::new),
            probe_timer: Timer::default(),
            report: RunReport::new(cfg.nodes),
            trace,
            metrics,
            cfg,
            #[cfg(debug_assertions)]
            touched: Vec::new(),
        };
        let mut cs = ClusterSim {
            sim: Sim::new(),
            world,
        };
        // Crashes and joins named in the plan are ordinary scheduled events.
        for c in cs.world.cfg.faults.node_crashes.clone() {
            cs.schedule_crash(c.node, c.at)
                .expect("validated plan entries schedule cleanly at t=0");
        }
        for j in cs.world.cfg.faults.node_joins.clone() {
            cs.schedule_join(j.node, j.at)
                .expect("validated plan entries schedule cleanly at t=0");
        }
        // Nodes whose first plan event is a join start the run offline.
        for n in cs.world.cfg.faults.initially_offline(cs.world.cfg.nodes) {
            cs.world.nodes[n].alive = false;
        }
        cs
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    pub fn report(&self) -> &RunReport {
        &self.world.report
    }

    pub fn trace(&self) -> &Trace {
        &self.world.trace
    }

    /// The flight-recorder series sampled so far (`Some` iff
    /// [`SimConfig::probe_interval`] is set).
    pub fn probe_series(&self) -> Option<&ProbeSeries> {
        self.world.probe.as_ref()
    }

    /// Consume the cluster, moving out what its runs recorded.
    pub fn into_record(self) -> RunRecord<L> {
        let w = self.world;
        RunRecord {
            report: w.report,
            trace: w.trace,
            metrics: w.metrics,
            probes: w.probe,
            leaf: w.leaf,
        }
    }

    /// `(thief, victim)` per initiated steal attempt, in simulation order.
    /// Recorded only when [`SimConfig::trace`] is on (empty otherwise);
    /// determinism tests compare this sequence across runs.
    pub fn steal_victims(&self) -> &[(usize, usize)] {
        &self.world.victim_log
    }

    /// The application the cluster runs.
    pub fn app(&self) -> &A {
        &self.world.app
    }

    /// Access the leaf runtime (e.g. to inspect Cashmere device state).
    pub fn leaf_runtime(&self) -> &L {
        &self.world.leaf
    }

    /// Mutable access to the leaf runtime, for pre-run configuration such
    /// as the advisor's virtual speed/link scaling. Call before `run`.
    pub fn leaf_runtime_mut(&mut self) -> &mut L {
        &mut self.world.leaf
    }

    /// Schedule node `n` to crash at absolute time `at`. Must be scheduled
    /// before the run that it should interrupt. Node 0 (the master) cannot
    /// crash — as in Satin, the master holds the root. Rejects (rather than
    /// silently accepting or panicking on) the master, out-of-range nodes,
    /// and crash times already in the past.
    ///
    /// Crashing a node that is already down when the event fires is a
    /// documented **no-op**: the event is discarded and
    /// `report[Counter::Crashes]` counts only real alive→dead transitions,
    /// so scheduling two crashes for the same node never double-counts.
    /// (Plan files additionally reject consecutive crashes without a join
    /// in between at validation time.)
    pub fn schedule_crash(&mut self, node: usize, at: SimTime) -> Result<(), String> {
        self.check_membership_change(node, at, "crash", "crash")?;
        self.sim.schedule_at(at, Event::Crash { n: node });
        Ok(())
    }

    /// Schedule node `n` to (re)join the cluster at absolute time `at`. A
    /// joining node comes up empty — no jobs, no steal state, a fresh NIC —
    /// and immediately re-enters the steal victim sets (victim selection
    /// only checks liveness). Joining a node that is already up is a no-op.
    /// Same request validation as [`ClusterSim::schedule_crash`].
    pub fn schedule_join(&mut self, node: usize, at: SimTime) -> Result<(), String> {
        self.check_membership_change(node, at, "join", "leave or join")?;
        self.sim.schedule_at(at, Event::Join { n: node });
        Ok(())
    }

    /// Validate a crash or join request: never the master (which cannot
    /// `master_verb`), a node of the cluster, and not in the past.
    fn check_membership_change(
        &self,
        node: usize,
        at: SimTime,
        what: &str,
        master_verb: &str,
    ) -> Result<(), String> {
        if node == 0 {
            return Err(format!(
                "the master node (0) cannot {master_verb} in this model"
            ));
        }
        if node >= self.world.cfg.nodes {
            return Err(format!(
                "node {node} out of range (cluster has {} nodes)",
                self.world.cfg.nodes
            ));
        }
        if at < self.sim.now() {
            return Err(format!(
                "{what} time {at} is in the past (virtual time is {})",
                self.sim.now()
            ));
        }
        Ok(())
    }

    /// Run one root job to completion and return its output. Virtual time
    /// continues from where the previous call left off.
    pub fn run_root(&mut self, input: A::Input) -> A::Output {
        let _prof = prof::scope("satin::run-root");
        self.world.done = false;
        self.world.root_result = None;
        // Orphan results and recovery episodes never span root runs (both
        // are settled when the previous root completed); clear defensively.
        self.world.orphans.clear();
        self.world.recovery_outstanding.clear();
        self.world.recovering_since = None;
        let start = self.sim.now();
        self.world.root_job = self.world.new_job(input, None, 0);
        for n in 0..self.world.cfg.nodes {
            schedule_tick(&mut self.world, &mut self.sim, n);
        }
        if let Some(iv) = self.world.cfg.probe_interval {
            // Probes fire on the global cadence grid (multiples of the
            // interval), starting strictly after `start` so iterative
            // drivers never record a duplicate timestamp.
            let first = SimTime::from_nanos((start.as_nanos() / iv.as_nanos() + 1) * iv.as_nanos());
            self.world
                .probe_timer
                .arm(&mut self.sim, first, Event::Probe);
        }
        self.sim.run(&mut self.world);
        let out = self
            .world
            .root_result
            .take()
            .expect("cluster drained without producing the root result");
        self.world.report.makespan = self.sim.now() - start;
        self.world.report.total_time = self.sim.now();
        out
    }

    /// Master broadcasts `bytes` to every other node (iterative apps'
    /// inter-iteration synchronization). Advances virtual time to the last
    /// arrival.
    pub fn broadcast(&mut self, bytes: u64) {
        let w = &mut self.world;
        let now = self.sim.now();
        let mut last = now;
        for n in 1..w.cfg.nodes {
            if !w.nodes[n].alive {
                continue;
            }
            let tr = w.transfer(now, 0, n, bytes);
            w.report[Counter::BytesBroadcast] += bytes;
            if w.trace.enabled() {
                w.trace.record(
                    w.nodes[n].net_lane,
                    SpanKind::Network,
                    "broadcast",
                    tr.start,
                    tr.arrival,
                );
            }
            w.metrics.observe("net.transfer", tr.duration());
            last = last.max(tr.arrival);
        }
        // Advance virtual time to the end of the broadcast. Events due
        // later (a crash or join from the fault plan, steal polls it set
        // off) stay queued for the next root.
        if last > self.sim.now() {
            self.sim.schedule_at(last, Event::Broadcast);
            self.sim.run_until(&mut self.world, last);
        }
    }
}

/// Update the node's busy-core gauge after `busy_cores` changed. The
/// `enabled` check keeps the label formatting off the hot path.
fn note_busy_cores<A: ClusterApp, L: LeafRuntime<A>>(w: &mut World<A, L>, sim: &S<A>, n: usize) {
    if w.metrics.enabled() {
        let busy = w.nodes[n].busy_cores as f64;
        w.metrics
            .gauge_set(&format!("node{n}.busy_cores"), sim.now(), busy);
    }
}

/// Take one flight-recorder sample: strictly read-only over the world (no
/// RNG, no state mutation outside the series itself), so probing cannot
/// perturb the simulation. Column order is fixed by this function, which
/// makes the series layout — and every export — byte-deterministic.
fn sample_probe<A: ClusterApp, L: LeafRuntime<A>>(w: &mut World<A, L>, now: SimTime) {
    let mut cols: Vec<(String, f64)> = Vec::with_capacity(16 + 2 * w.cfg.nodes);
    let alive = w.nodes.iter().filter(|n| n.alive).count();
    let busy: usize = w.nodes.iter().map(|n| n.busy_cores).sum();
    let queued: usize = w.nodes.iter().map(|n| n.deque.entries.len()).sum();
    let stealing = w.nodes.iter().filter(|n| n.attempt.is_some()).count();
    let total_cores = (w.cfg.cores_per_node * w.cfg.nodes) as f64;
    cols.push(("alive".into(), alive as f64));
    for c in [Counter::Crashes, Counter::Joins] {
        cols.push((c.name().into(), w.report[c] as f64));
    }
    cols.push(("busy_cores".into(), busy as f64));
    cols.push(("busy_frac".into(), busy as f64 / total_cores));
    cols.push(("queued_jobs".into(), queued as f64));
    cols.push(("stealing_nodes".into(), stealing as f64));
    for c in [Counter::StealAttempts, Counter::StealsOk] {
        cols.push((c.name().into(), w.report[c] as f64));
    }
    cols.push(("steal_rate".into(), w.report.steal_success_rate()));
    let tx: u64 = w.nics.iter().map(|nic| nic.bytes_tx).sum();
    cols.push(("net_tx_bytes".into(), tx as f64));
    // Bytes still draining out of send queues: each NIC's TX backlog
    // (time until free) at line rate.
    let inflight: f64 = w
        .nics
        .iter()
        .map(|nic| nic.tx_free_at.saturating_sub(now).as_secs_f64() * w.cfg.net.bandwidth_gbs * 1e9)
        .sum();
    cols.push(("net_inflight_bytes".into(), inflight));
    cols.push(("orphan_results".into(), w.orphans.len() as f64));
    for (i, n) in w.nodes.iter().enumerate() {
        cols.push((format!("n{i}.busy"), n.busy_cores as f64));
        cols.push((format!("n{i}.queue"), n.deque.entries.len() as f64));
    }
    // Runtime-specific gauges (Cashmere placement mix; no-op for CPU).
    w.leaf.probe(&w.report, &mut cols);
    if let Some(p) = &mut w.probe {
        p.sample(now, &cols);
    }
}

fn schedule_tick<A: ClusterApp, L: LeafRuntime<A>>(w: &mut World<A, L>, sim: &mut S<A>, n: usize) {
    if w.nodes[n].tick_scheduled || !w.nodes[n].alive {
        return;
    }
    w.nodes[n].tick_scheduled = true;
    sim.schedule_now(Event::Tick { n });
}

/// Node scheduler: start tasks while cores are free; steal when idle.
fn tick<A: ClusterApp, L: LeafRuntime<A>>(w: &mut World<A, L>, sim: &mut S<A>, n: usize) {
    w.nodes[n].tick_scheduled = false;
    if !w.nodes[n].alive || w.done {
        return;
    }
    while w.nodes[n].busy_cores < w.cfg.cores_per_node {
        // Start the most recent task this node may start: combines and
        // divides always may; leaves only while below the concurrency cap
        // (blocked leaves stay queued — and stealable). Re-read every
        // round: each started leaf counts immediately.
        let leaf_ok = w.nodes[n].running_leaves < w.cfg.max_concurrent_leaves;
        let pick = w.nodes[n].deque.pick(leaf_ok);
        debug_assert_eq!(pick, scan_pick(w, n, leaf_ok), "tick index on node {n}");
        let Some(idx) = pick else {
            break;
        };
        let q = w.dequeue(n, idx);
        match q.task {
            Task::Job(j) => start_job(w, sim, n, j, q.capped),
            Task::Combine(j) => start_combine(w, sim, n, j),
        }
    }
    // Idle with no startable local work: steal from a random victim.
    if w.nodes[n].deque.entries.is_empty()
        && w.nodes[n].busy_cores < w.cfg.cores_per_node
        && w.nodes[n].attempt.is_none()
        && !w.done
        && w.cfg.nodes > 1
    {
        initiate_steal(w, sim, n);
    }
}

/// The task `tick` would start, found by scanning node `n`'s deque from the
/// back: the oracle the indexed [`TaskDeque::pick`] must agree with (debug
/// builds check it on every pick).
fn scan_pick<A: ClusterApp, L: LeafRuntime<A>>(
    w: &World<A, L>,
    n: usize,
    leaf_ok: bool,
) -> Option<usize> {
    let deque = &w.nodes[n].deque;
    debug_assert_eq!(
        deque.jobs,
        deque
            .entries
            .iter()
            .filter(|q| matches!(q.task, Task::Job(_)))
            .count()
    );
    deque.entries.iter().rposition(|q| match q.task {
        Task::Combine(_) => true,
        Task::Job(j) => {
            leaf_ok
                || match &w.jobs[j].input {
                    Some(input) => !w.app.is_leaf(input),
                    None => true,
                }
        }
    })
}

/// The job's tree path: child indices from the root. Divides are
/// deterministic, so a re-executed subtree is isomorphic to the lost one
/// and the path identifies "the same job" across fresh records. O(depth),
/// computed only while the orphan table is non-empty.
fn path_of<A: ClusterApp, L: LeafRuntime<A>>(w: &World<A, L>, mut j: usize) -> Vec<u32> {
    let mut path = Vec::new();
    while let Some((p, idx)) = w.jobs[j].parent {
        path.push(idx as u32);
        j = p;
    }
    path.reverse();
    path
}

/// Salvage one completed result into the global result table.
fn stash_orphan<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    key: Vec<u32>,
    output: A::Output,
    node: usize,
) {
    let bytes = w.app.output_bytes(&output);
    w.orphans.insert(
        key,
        OrphanEntry {
            output,
            node,
            bytes,
        },
    );
    w.report[Counter::OrphansHarvested] += 1;
}

/// Drop every table entry held by node `n` (it just crashed and physically
/// lost them).
fn expire_orphans_of<A: ClusterApp, L: LeafRuntime<A>>(w: &mut World<A, L>, n: usize) {
    let before = w.orphans.len();
    w.orphans.retain(|_, e| e.node != n);
    w.report[Counter::OrphansExpired] += (before - w.orphans.len()) as u64;
}

/// A recovery episode ends when no crash-restarted subtree root is still
/// outstanding; the elapsed episode time accumulates into
/// `report[Counter::TimeToRecover]`.
fn note_recovery<A: ClusterApp, L: LeafRuntime<A>>(w: &mut World<A, L>, now: SimTime) {
    if w.recovery_outstanding.is_empty() {
        return;
    }
    let jobs = &w.jobs;
    w.recovery_outstanding
        .retain(|&r| jobs[r].holder.node().is_some());
    if w.recovery_outstanding.is_empty() {
        if let Some(since) = w.recovering_since.take() {
            w.report[Counter::TimeToRecover] += (now - since).as_nanos();
        }
    }
}

/// Start job `j` on node `n`; `is_leaf` is its deque entry's `capped` flag.
fn start_job<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    n: usize,
    j: usize,
    is_leaf: bool,
) {
    if w.jobs[j].holder != Holder::Deque(n) {
        return; // stale (crash reset)
    }
    debug_assert_eq!(
        is_leaf,
        w.jobs[j].input.as_ref().is_some_and(|i| w.app.is_leaf(i))
    );
    // Reuse-first recovery: before spending a core, probe the global result
    // table. A hit means a crashed subtree's result survived on some node —
    // consume it (exactly once), charge the fetch to the network if it is
    // remote, and deliver it through the ordinary result path instead of
    // re-executing the subtree. The empty-table guard keeps fault-free runs
    // on the exact original code path.
    if w.cfg.orphan_reuse && !w.orphans.is_empty() {
        let key = path_of(w, j);
        if let Some(entry) = w.orphans.remove(&key) {
            let OrphanEntry {
                output,
                node: src,
                bytes,
            } = entry;
            w.report[Counter::OrphansReused] += 1;
            w.hold(j, Holder::Running(n));
            let generation = w.jobs[j].generation;
            let at = if src == n {
                // Local table hit: a lookup costs one job overhead.
                sim.now() + w.cfg.job_overhead
            } else {
                // Remote hit: fetch the result from its holder. The result
                // table is master-mediated bookkeeping; the fetch itself is
                // modelled as a reliable transfer (retransmission of table
                // traffic is below the model's resolution).
                let tr = w.transfer(sim.now(), src, n, bytes);
                w.report[Counter::BytesOrphans] += bytes;
                if w.trace.enabled() {
                    w.trace.record_child(
                        w.nodes[n].net_lane,
                        SpanKind::Network,
                        "orphan-fetch",
                        tr.start,
                        tr.arrival,
                        w.jobs[j].origin_span,
                    );
                }
                w.metrics.observe("net.transfer", tr.duration());
                tr.arrival
            };
            let ev = Event::Deliver {
                n,
                j,
                output,
                generation,
            };
            sim.schedule_at(at, ev);
            return;
        }
    }
    w.hold(j, Holder::Running(n));
    w.nodes[n].busy_cores += 1;
    note_busy_cores(w, sim, n);
    w.nodes[n].steal_failures = 0;
    // Leaves count against the concurrency cap from the moment they grab a
    // core, not when their plan runs (which is a job-overhead later).
    if is_leaf {
        w.nodes[n].running_leaves += 1;
    }
    let exec = Exec {
        n,
        j,
        generation: w.jobs[j].generation,
        inc: w.nodes[n].incarnation,
    };
    sim.schedule_in(w.cfg.job_overhead, Event::ProcessJob { exec, is_leaf });
}

/// Whether running task `exec` still applies when its next event fires. It
/// does not if its node crashed (and possibly rejoined) since the task
/// started: the node's core accounting was rebuilt from zero, so nothing is
/// released. Nor does it if a crash reset the job while the task held the
/// core (and, for a `leaf`, a leaf slot): both are released.
fn task_live<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    exec: Exec,
    leaf: bool,
) -> bool {
    if !w.is_current(exec.n, exec.inc) {
        return false;
    }
    if w.jobs[exec.j].generation != exec.generation {
        if leaf {
            w.nodes[exec.n].running_leaves -= 1;
        }
        release_core(w, sim, exec.n);
        return false;
    }
    true
}

fn process_job<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    exec: Exec,
    is_leaf: bool,
) {
    if !task_live(w, sim, exec, is_leaf) {
        return;
    }
    let (n, j) = (exec.n, exec.j);
    let input = w.jobs[j].input.clone().expect("running job has input");
    match w.app.step(&input) {
        DcStep::Divide(children) => {
            let start = sim.now() - w.cfg.job_overhead;
            if w.trace.enabled() {
                w.jobs[j].divide_span = w.trace.record_child(
                    w.nodes[n].cpu_lane,
                    SpanKind::CpuTask,
                    "divide",
                    start,
                    sim.now() + DIVIDE_COST,
                    w.jobs[j].origin_span,
                );
            }
            sim.schedule_in(DIVIDE_COST, Event::FinishDivide { exec, children });
        }
        DcStep::Leaf => {
            debug_assert!(is_leaf, "is_leaf must agree with step()");
            let replay = w.jobs[j].replay;
            w.report[Counter::Leaves] += 1;
            // The leaf span is recorded up front (with a provisional end) so
            // the device activity planned inside it can parent to it; the
            // real end is patched in below once the plan is known.
            let leaf_start = sim.now() - w.cfg.job_overhead;
            let leaf_span = w.trace.record_child(
                w.nodes[n].cpu_lane,
                SpanKind::CpuTask,
                "leaf",
                leaf_start,
                sim.now(),
                w.jobs[j].origin_span,
            );
            let (compute, output) = {
                let World {
                    leaf,
                    app,
                    faults,
                    report,
                    trace,
                    metrics,
                    ..
                } = w;
                leaf.plan(
                    app,
                    &input,
                    LeafCtx {
                        node: n,
                        now: sim.now(),
                        trace,
                        metrics,
                        parent_span: leaf_span,
                        faults,
                        report,
                    },
                )
            };
            if replay {
                // Leaf work repeated because of a failure is recovery cost.
                w.report[Counter::RecoveryTime] += compute.as_nanos();
            }
            w.trace.set_end(leaf_span, sim.now() + compute);
            w.report.node_busy[n] += compute;
            sim.schedule_in(compute, Event::LeafDone { exec, output });
        }
    }
}

fn finish_divide<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    n: usize,
    j: usize,
    children: Vec<A::Input>,
) {
    assert!(!children.is_empty(), "divide produced no children");
    w.report[Counter::Divides] += 1;
    let count = children.len();
    let replay = w.jobs[j].replay;
    w.hold(j, Holder::Divided(n));
    let divide_span = w.jobs[j].divide_span;
    let first = w.jobs.len();
    for (idx, input) in children.into_iter().enumerate() {
        let c = w.new_job(input, Some((j, idx)), n);
        debug_assert_eq!(c, first + idx, "a division's records are consecutive");
        // A restarted subtree re-divides into fresh records; mark them so
        // their leaf compute is accounted as recovery cost.
        w.jobs[c].replay = replay;
        w.jobs[c].origin_span = divide_span;
    }
    w.jobs[j].children = first..first + count;
    release_core(w, sim, n);
    schedule_tick(w, sim, n);
}

fn release_core<A: ClusterApp, L: LeafRuntime<A>>(w: &mut World<A, L>, sim: &mut S<A>, n: usize) {
    debug_assert!(w.nodes[n].busy_cores > 0);
    w.nodes[n].busy_cores -= 1;
    note_busy_cores(w, sim, n);
    schedule_tick(w, sim, n);
}

/// A leaf/combined output is ready on node `n` for job `j`.
fn deliver<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    n: usize,
    j: usize,
    output: A::Output,
    generation: u64,
) {
    if w.jobs[j].generation != generation || w.jobs[j].holder == Holder::Lost {
        // A late orphan result: the subtree completed, but its record was
        // reset by a crash in the meantime. Report the result to the global
        // table so the re-executed copy can reuse it instead of recomputing
        // the whole subtree.
        if w.cfg.orphan_reuse && !w.done && w.nodes[n].alive {
            stash_orphan(w, path_of(w, j), output, n);
        }
        return;
    }
    let parent = w.jobs[j].parent;
    w.hold(
        j,
        parent.map_or(Holder::Acked, |_| Holder::Owed { from: n }),
    );
    w.drop_input(j);
    note_recovery(w, sim.now());
    match parent {
        None => {
            w.root_result = Some(output);
            w.done = true;
            // The run is over: whatever the result table still holds was
            // never needed.
            w.report[Counter::OrphansExpired] += w.orphans.len() as u64;
            w.orphans.clear();
            // Cancel trailing steal polls and timeouts: the run is over and
            // their only effect would be to advance the virtual clock.
            for node in 0..w.cfg.nodes {
                w.nodes[node].retry.cancel(sim);
                w.nodes[node].close_attempt(sim);
            }
            // Likewise the pending flight-recorder probe: sampling must not
            // advance the clock past the real finish.
            w.probe_timer.cancel(sim);
        }
        Some((p, idx)) => {
            let (home, pgen) = (w.jobs[p].home_node, w.jobs[p].generation);
            if home == n {
                receive_child(w, sim, p, idx, output, pgen);
            } else {
                let msg = ResultMsg {
                    n,
                    home,
                    p,
                    idx,
                    pgen,
                    output,
                };
                send_result(w, sim, msg, 0);
            }
        }
    }
}

/// Return a child output over the network to the parent's node. A lost
/// message is retransmitted with bounded exponential backoff; fault windows
/// are finite, so the loop always terminates.
fn send_result<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    msg: ResultMsg<A::Output>,
    attempt: u32,
) {
    let (n, home, p) = (msg.n, msg.home, msg.p);
    if !w.nodes[n].alive {
        // Sender crashed before (re)transmitting; its copy of the result is
        // gone and recovery re-executes the subtree.
        return;
    }
    if w.jobs[p].generation != msg.pgen {
        // The parent was reset by a crash, but the sender still holds the
        // finished child result: salvage it into the global result table
        // for the re-executed tree to pick up.
        if w.cfg.orphan_reuse && !w.done {
            stash_result(w, msg);
        }
        return;
    }
    let bytes = w.app.output_bytes(&msg.output);
    let tr = w.transfer(sim.now(), n, home, bytes);
    w.report[Counter::BytesResults] += bytes;
    if w.trace.enabled() {
        w.trace.record_child(
            w.nodes[n].net_lane,
            SpanKind::Network,
            if attempt == 0 {
                "result"
            } else {
                "result-retx"
            },
            tr.start,
            tr.arrival,
            w.jobs[p].divide_span,
        );
    }
    w.metrics.observe("net.transfer", tr.duration());
    match w.faults.message_fate(n, home, sim.now()) {
        MessageFate::Dropped => {
            w.report[Counter::MessagesLost] += 1;
            w.report[Counter::ResultRetransmits] += 1;
            // The sender notices the missing acknowledgement and resends.
            let backoff =
                (w.cfg.steal_retry * (1u64 << attempt.min(20))).min(w.cfg.steal_retry_max);
            let attempt = attempt + 1;
            sim.schedule_at(tr.arrival + backoff, Event::SendResult { msg, attempt });
        }
        MessageFate::Delivered { delay } => {
            if delay > SimTime::ZERO {
                w.report[Counter::LatencySpikes] += 1;
            }
            sim.schedule_at(tr.arrival + delay, Event::ReceiveChild(msg));
        }
    }
}

/// Salvage a finished child result its sender still holds into the global
/// result table, for the re-executed tree to pick up.
fn stash_result<A: ClusterApp, L: LeafRuntime<A>>(w: &mut World<A, L>, msg: ResultMsg<A::Output>) {
    let mut key = path_of(w, msg.p);
    key.push(msg.idx as u32);
    stash_orphan(w, key, msg.output, msg.n);
}

fn receive_child<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    p: usize,
    idx: usize,
    output: A::Output,
    pgen: u64,
) {
    if w.jobs[p].generation != pgen || !matches!(w.jobs[p].holder, Holder::Divided(_)) {
        return;
    }
    let c = w.jobs[p].children.start + idx;
    if w.jobs[c].delivered.is_some() {
        return; // duplicate after re-execution
    }
    w.jobs[c].delivered = Some(output);
    w.hold(c, Holder::Acked);
    if w.children_done(p) {
        let home = w.jobs[p].home_node;
        w.nodes[home].deque.push(Task::Combine(p), false);
        schedule_tick(w, sim, home);
    }
}

fn start_combine<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    n: usize,
    p: usize,
) {
    if !matches!(w.jobs[p].holder, Holder::Divided(_)) || !w.children_done(p) {
        return; // stale
    }
    w.nodes[n].busy_cores += 1;
    note_busy_cores(w, sim, n);
    let exec = Exec {
        n,
        j: p,
        generation: w.jobs[p].generation,
        inc: w.nodes[n].incarnation,
    };
    let input = w.jobs[p].input.clone().expect("waiting job has input");
    let cost = w.app.combine_cost(&input);
    if w.trace.enabled() {
        w.trace.record_child(
            w.nodes[n].cpu_lane,
            SpanKind::CpuTask,
            "combine",
            sim.now(),
            sim.now() + cost,
            w.jobs[p].divide_span,
        );
    }
    sim.schedule_in(cost, Event::Combine(exec));
}

/// A combine is done: merge the child outputs and deliver the result.
fn finish_combine<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    exec: Exec,
) {
    if !task_live(w, sim, exec, false) {
        return;
    }
    let (n, p) = (exec.n, exec.j);
    let outputs: Vec<A::Output> = w.jobs[p]
        .children
        .clone()
        .map(|c| w.jobs[c].delivered.take().expect("all children delivered"))
        .collect();
    let input = w.jobs[p].input.clone().expect("combining job has input");
    let output = w.app.combine(&input, outputs);
    release_core(w, sim, n);
    deliver(w, sim, n, p, output, exec.generation);
}

/// Current retry delay for a thief: base rate for the first three
/// consecutive failures, then doubling up to the configured cap.
fn steal_backoff<A: ClusterApp, L: LeafRuntime<A>>(w: &World<A, L>, thief: usize) -> SimTime {
    let failures = w.nodes[thief].steal_failures;
    let doublings = failures.saturating_sub(3).min(30);
    (w.cfg.steal_retry * (1u64 << doublings)).min(w.cfg.steal_retry_max)
}

fn initiate_steal<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    thief: usize,
) {
    // Ask the configured steal policy for a live victim. Field borrows are
    // split so the pick can read liveness while drawing from the steal rng
    // stream and updating the thief's policy state.
    let victim = {
        let World {
            rng,
            nodes,
            cfg,
            recent_victim,
            scan_cursor,
            ..
        } = w;
        cfg.steal.pick_victim(
            thief,
            cfg.nodes,
            |v| nodes[v].alive,
            rng,
            &mut recent_victim[thief],
            &mut scan_cursor[thief],
        )
    };
    let Some(victim) = victim else {
        // No live victim found (most nodes crashed): poll again later with
        // bounded exponential backoff — each fruitless poll counts as a
        // steal failure so a mostly-dead cluster is not busy-polled at the
        // base rate forever (a rejoining node wakes everyone via its tick).
        w.report[Counter::NoVictimPolls] += 1;
        w.nodes[thief].steal_failures = w.nodes[thief].steal_failures.saturating_add(1);
        let at = sim.now() + steal_backoff(w, thief);
        w.nodes[thief]
            .retry
            .arm(sim, at, Event::StealRetry { thief, token: None });
        return;
    };
    debug_assert!(victim != thief && w.nodes[victim].alive);
    if w.cfg.trace {
        w.victim_log.push((thief, victim));
    }
    w.nodes[thief].steal_seq += 1;
    let token = w.nodes[thief].steal_seq;
    w.report[Counter::StealAttempts] += 1;
    // Steal request: a small message, subject to CPU contention on both ends.
    let mut req_time = w.cfg.net.wire_time(64)
        + w.cfg.net.handling_time(w.busy_fraction(thief))
        + w.cfg.net.handling_time(w.busy_fraction(victim));
    match w.faults.message_fate(thief, victim, sim.now()) {
        MessageFate::Dropped => {
            // The request vanishes; the timeout below recovers the thief.
            w.report[Counter::MessagesLost] += 1;
        }
        MessageFate::Delivered { delay } => {
            if delay > SimTime::ZERO {
                w.report[Counter::LatencySpikes] += 1;
                req_time += delay;
            }
            sim.schedule_in(req_time, Event::Steal { victim, thief });
        }
    }
    // With faults in play, a request or refusal may never arrive. Arm a
    // timeout that abandons the attempt and retries with backoff. Fault-free
    // runs skip this entirely, so they schedule exactly the same events as
    // a build without fault support.
    let mut timeout = Timer::default();
    if w.faults.is_active() {
        let at = sim.now() + w.cfg.steal_timeout;
        timeout.arm(sim, at, Event::StealTimeout { thief, token });
    }
    w.nodes[thief].attempt = Some(Attempt {
        token,
        started: sim.now(),
        timeout,
    });
}

/// `thief`'s steal attempt `token` timed out: abandon it unless it already
/// resolved, and retry with backoff.
fn steal_timeout<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    thief: usize,
    token: u64,
) {
    // Closing an attempt cancels its timeout, and a node that is down or
    // done has none open: a timeout that fires closes its own attempt.
    if w.nodes[thief]
        .attempt
        .take_if(|a| a.token == token)
        .is_none()
    {
        return;
    }
    w.report[Counter::StealTimeouts] += 1;
    w.nodes[thief].steal_failures = w.nodes[thief].steal_failures.saturating_add(1);
    let at = sim.now() + steal_backoff(w, thief);
    w.nodes[thief]
        .retry
        .arm(sim, at, Event::StealRetry { thief, token: None });
}

fn handle_steal_request<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    victim: usize,
    thief: usize,
) {
    let Some(token) = w.nodes[thief].attempt.as_ref().map(|a| a.token) else {
        // The thief is down, its run is done, or it gave up on this attempt
        // (timeout) and owns a fresh retry: a late request must not disturb
        // it.
        return;
    };
    // Steal from the FIFO end: the oldest (largest) job. Combines stay
    // home. Stale entries (a crash-restart requeues a job at its home
    // while an old deque entry survives elsewhere; the fresh copy may
    // already have run) are skipped — `start_job` skips them too.
    let stolen = if w.nodes[victim].alive && w.nodes[victim].deque.jobs > 0 {
        let pos = w.nodes[victim].deque.entries.iter().position(
            |q| matches!(q.task, Task::Job(j) if w.jobs[j].holder == Holder::Deque(victim)),
        );
        pos.map(|p| w.dequeue(victim, p).task)
    } else {
        None
    };
    match stolen {
        Some(Task::Job(j)) => {
            w.hold(j, Holder::Transfer { from: victim });
            w.report[Counter::StealsOk] += 1;
            w.recent_victim[thief] = Some(victim);
            let input = w.jobs[j].input.as_ref().expect("queued job has input");
            let bytes = w.app.input_bytes(input);
            let tr = w.transfer(sim.now(), victim, thief, bytes);
            w.report[Counter::BytesStolen] += bytes;
            if w.trace.enabled() {
                // The steal span becomes the job's new origin: everything
                // the job does on the thief chains through it, which is what
                // draws the cross-node flow arrow in the Chrome export.
                let steal_span = w.trace.record_child(
                    w.nodes[thief].net_lane,
                    SpanKind::Steal,
                    "steal",
                    tr.start,
                    tr.arrival,
                    w.jobs[j].origin_span,
                );
                w.jobs[j].origin_span = steal_span;
            }
            // The handshake succeeded; only the bulk transfer remains. The
            // timeout covered the request/reply phase, so disarm it (no-op
            // in fault-free runs, which never arm one).
            w.nodes[thief].disarm_steal_timeout(sim);
            let (lost, arrival) = match w.faults.message_fate(victim, thief, sim.now()) {
                MessageFate::Dropped => {
                    // The job data is lost in transit; the victim notices
                    // when the transfer window elapses unacknowledged.
                    w.report[Counter::MessagesLost] += 1;
                    (true, tr.arrival)
                }
                MessageFate::Delivered { delay } => {
                    if delay > SimTime::ZERO {
                        w.report[Counter::LatencySpikes] += 1;
                    }
                    (false, tr.arrival + delay)
                }
            };
            let stolen = StolenJob {
                victim,
                thief,
                j,
                token,
                generation: w.jobs[j].generation,
                thief_inc: w.nodes[thief].incarnation,
                lost,
            };
            sim.schedule_at(arrival, Event::StealTransfer(stolen));
        }
        _ => {
            if w.recent_victim[thief] == Some(victim) {
                w.recent_victim[thief] = None;
            }
            // Nothing to steal: small refusal message, then retry. The first
            // few consecutive failures retry at the base rate (responsive
            // during normal imbalance); sustained failure — the idle tail of
            // a run — backs off exponentially so a long tail does not flood
            // the event queue with poll events.
            let mut reply = w.cfg.net.wire_time(32);
            match w.faults.message_fate(victim, thief, sim.now()) {
                MessageFate::Dropped => {
                    // The refusal never reaches the thief; its steal timeout
                    // recovers the attempt.
                    w.report[Counter::MessagesLost] += 1;
                    return;
                }
                MessageFate::Delivered { delay } => {
                    if delay > SimTime::ZERO {
                        w.report[Counter::LatencySpikes] += 1;
                        reply += delay;
                    }
                    // The refusal will arrive: disarm the timeout so a long
                    // retry backoff is not misread as a lost reply.
                    w.nodes[thief].disarm_steal_timeout(sim);
                }
            }
            // Back off only when no node in the cluster has stealable work
            // (the idle tail / drain phase): a random victim simply being
            // empty while others still have jobs keeps the base poll rate.
            let any_work = w.nodes.iter().any(|n| n.alive && n.deque.jobs > 0);
            if any_work {
                w.nodes[thief].steal_failures = 0;
            } else {
                w.nodes[thief].steal_failures = w.nodes[thief].steal_failures.saturating_add(1);
            }
            let at = sim.now() + reply + steal_backoff(w, thief);
            let retry = Event::StealRetry {
                thief,
                token: Some(token),
            };
            w.nodes[thief].retry.arm(sim, at, retry);
        }
    }
}

/// The transfer of a stolen job ends. Either way the job has left the
/// victim's deque and is held by the transfer alone: a job lost in transit,
/// or one whose thief died meanwhile, is re-queued on a live node, or it is
/// lost and the run never terminates.
fn finish_steal_transfer<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    stolen: StolenJob,
) {
    let (victim, thief, j) = (stolen.victim, stolen.thief, stolen.j);
    if let Some(mut a) = w.nodes[thief].attempt.take_if(|a| a.token == stolen.token) {
        a.timeout.cancel(sim);
        if stolen.lost {
            w.nodes[thief].steal_failures = w.nodes[thief].steal_failures.saturating_add(1);
            if w.nodes[thief].alive && !w.done {
                schedule_tick(w, sim, thief);
            }
        } else {
            w.metrics.observe("steal.rtt", sim.now() - a.started);
            w.nodes[thief].steal_failures = 0;
        }
    }
    if w.jobs[j].generation != stolen.generation || (stolen.lost && w.done) {
        return;
    }
    let home = w.jobs[j].home_node;
    let live = |n: &usize| w.nodes[*n].alive;
    let target = if stolen.lost {
        [victim, home].into_iter().find(live).unwrap_or(0)
    } else if !w.is_current(thief, stolen.thief_inc) {
        // The thief died while the job was in flight (and perhaps already
        // rebooted — the transfer's connection died with the old
        // incarnation): bounce the job back to a live node.
        w.jobs[j].replay = true;
        w.report[Counter::JobsRestarted] += 1;
        Some(home).filter(live).unwrap_or(0)
    } else {
        thief
    };
    w.enqueue(target, j);
    schedule_tick(w, sim, target);
}

/// Crash node `n`: it stops participating and every job it was executing or
/// queueing is re-executed from a healthy node, exactly in the spirit of
/// Satin's orphan-job recovery.
fn crash<A: ClusterApp, L: LeafRuntime<A>>(w: &mut World<A, L>, sim: &mut S<A>, n: usize) {
    if !w.nodes[n].alive {
        return;
    }
    w.nodes[n].alive = false;
    w.clear_deque(n);
    w.nodes[n].busy_cores = 0;
    w.nodes[n].running_leaves = 0;
    note_busy_cores(w, sim, n);
    // Dead nodes fire no timers; drop their pending steal events so stale
    // no-op polls cannot advance the clock past the real finish.
    w.nodes[n].retry.cancel(sim);
    w.nodes[n].close_attempt(sim);
    w.nodes[n].steal_failures = 0;
    w.nodes[n].incarnation += 1;
    // The crashed node leaves every victim set: no thief keeps it as its
    // recent victim. This is the one place cluster membership shrinks.
    for r in w.recent_victim.iter_mut().filter(|r| **r == Some(n)) {
        *r = None;
    }
    w.report[Counter::Crashes] += 1;
    // Per-node leaf-runtime state (device timelines, pending device jobs,
    // resident buffers) dies with the node.
    w.leaf.on_node_crash(n, sim.now());
    // Table entries physically held by the crashed node are gone.
    if w.cfg.orphan_reuse {
        expire_orphans_of(w, n);
    }

    // Restart roots: jobs whose record lives on a healthy node but whose
    // execution was on (or under) the crashed node. Each job held on the
    // node (done and lost jobs are held nowhere) or recorded there restarts
    // from the first job of its lineage whose record lives on a live node
    // (with multiple failures the home may be a *different* dead node; the
    // root's home is the master, which cannot crash).
    let lineage = |j: usize| std::iter::successors(Some(j), |&c| w.jobs[c].parent.map(|(p, _)| p));
    let mut restart = Vec::new();
    for (j, rec) in w.jobs.iter().enumerate() {
        let Some(at) = rec.holder.node() else {
            continue;
        };
        if at == n || rec.home_node == n {
            let r = lineage(j).find(|&c| w.nodes[w.jobs[c].home_node].alive);
            restart.push(r.expect("the master holds the root"));
        }
    }
    restart.sort_unstable();
    restart.dedup();
    // Keep only the topmost restart roots: those below no other one.
    let roots: Vec<usize> = restart
        .iter()
        .copied()
        .filter(|&r| {
            !lineage(r)
                .skip(1)
                .any(|a| restart.binary_search(&a).is_ok())
        })
        .collect();

    let crashed_any_root = !roots.is_empty();
    for r in roots {
        // Before discarding the subtree, salvage what survived: every
        // already-delivered child output held in a Waiting record whose
        // home node is alive is a completed subtree result the re-executed
        // tree can reuse instead of recomputing (Satin's global result
        // table). The crashed node's own holdings are skipped — they died
        // with it.
        if w.cfg.orphan_reuse {
            let mut scan = vec![r];
            while let Some(q) = scan.pop() {
                scan.extend(w.jobs[q].children.clone());
                if !matches!(w.jobs[q].holder, Holder::Divided(_)) {
                    continue;
                }
                let home = w.jobs[q].home_node;
                if home == n || !w.nodes[home].alive {
                    continue;
                }
                let base = path_of(w, q);
                for (idx, c) in w.jobs[q].children.clone().enumerate() {
                    if let Some(out) = w.jobs[c].delivered.clone() {
                        let mut key = base.clone();
                        key.push(idx as u32);
                        stash_orphan(w, key, out, home);
                    }
                }
            }
        }
        // Discard the subtree below r and re-queue r at its home node.
        let mut stack: Vec<usize> = w.jobs[r].children.clone().collect();
        while let Some(c) = stack.pop() {
            stack.extend(w.jobs[c].children.clone());
            w.hold(c, Holder::Lost);
            w.jobs[c].generation += 1;
            w.jobs[c].delivered = None;
            w.drop_input(c);
        }
        let home = w.jobs[r].home_node;
        debug_assert!(
            w.nodes[home].alive,
            "restart root must live on a healthy node"
        );
        w.jobs[r].children = 0..0;
        w.jobs[r].generation += 1;
        w.jobs[r].replay = true;
        w.report[Counter::JobsRestarted] += 1;
        if !w.recovery_outstanding.contains(&r) {
            w.recovery_outstanding.push(r);
        }
        w.enqueue(home, r);
        schedule_tick(w, sim, home);
    }
    if crashed_any_root {
        // A new recovery episode begins (or the current one widens). Roots
        // superseded by this crash just went Lost — drop them first.
        note_recovery(w, sim.now());
        if !w.recovery_outstanding.is_empty() && w.recovering_since.is_none() {
            w.recovering_since = Some(sim.now());
        }
    }
    // Wake everyone alive: sudden loss of a victim must not deadlock
    // thieves.
    for k in 0..w.cfg.nodes {
        schedule_tick(w, sim, k);
    }
}

/// Node `n` (re)joins the cluster: it comes up empty — clean deque, fresh
/// steal state, a fresh NIC — re-registers its leaf-runtime devices, and
/// immediately re-enters steal victim sets (victim selection only checks
/// liveness). Joining an already-live node is a no-op.
fn join<A: ClusterApp, L: LeafRuntime<A>>(w: &mut World<A, L>, sim: &mut S<A>, n: usize) {
    if w.nodes[n].alive {
        return;
    }
    w.nodes[n].alive = true;
    w.clear_deque(n);
    w.nodes[n].busy_cores = 0;
    w.nodes[n].running_leaves = 0;
    w.nodes[n].steal_failures = 0;
    // A rebooted node has no half-open connections: reset its NIC.
    w.nics[n] = NodeNic::default();
    w.report[Counter::Joins] += 1;
    note_busy_cores(w, sim, n);
    // Bring the node's leaf runtime back up (re-register devices, rebuild
    // its balancer).
    w.leaf.on_node_join(n, sim.now());
    if !w.done {
        // Wake everyone alive: backed-off thieves should notice the new
        // victim promptly, and the joiner itself starts stealing.
        for k in 0..w.cfg.nodes {
            schedule_tick(w, sim, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::app::{CpuLeafRuntime, DcStep};

    /// Sums `n` ones by halving: the smallest app with a tree.
    struct Ones;

    impl ClusterApp for Ones {
        type Input = u64;
        type Output = u64;

        fn step(&self, &n: &u64) -> DcStep<u64> {
            if n <= 1 {
                DcStep::Leaf
            } else {
                DcStep::Divide(vec![n / 2, n - n / 2])
            }
        }

        fn leaf_cpu(&self, &n: &u64) -> (SimTime, u64) {
            (SimTime::from_micros(10), n)
        }

        fn combine(&self, _n: &u64, children: Vec<u64>) -> u64 {
            children.into_iter().sum()
        }

        fn input_bytes(&self, _n: &u64) -> u64 {
            64
        }

        fn output_bytes(&self, _o: &u64) -> u64 {
            8
        }
    }

    fn cluster(nodes: usize) -> ClusterSim<Ones, CpuLeafRuntime> {
        let cfg = SimConfig {
            nodes,
            ..SimConfig::default()
        };
        ClusterSim::new(Ones, CpuLeafRuntime, cfg)
    }

    /// A three-node world with job 0 queued on node 1.
    fn world() -> World<Ones, CpuLeafRuntime> {
        let mut w = cluster(3).world;
        w.new_job(4, None, 1);
        assert_eq!(w.check_ownership(), Ok(()));
        w
    }

    fn violation(w: &World<Ones, CpuLeafRuntime>) -> String {
        w.check_ownership()
            .expect_err("the corrupted world must fail")
    }

    #[test]
    fn a_queued_job_has_exactly_one_entry_in_its_deque() {
        let mut w = world();
        w.nodes[1].deque.push(Task::Job(0), false);
        assert_eq!(
            violation(&w),
            "job 0 is held by Deque(1), but node 1's deque has 2 entries for it"
        );
        w.clear_deque(1);
        // An entry on another node's deque is stale: it does not count.
        w.nodes[2].deque.push(Task::Job(0), false);
        assert_eq!(
            violation(&w),
            "job 0 is held by Deque(1), but node 1's deque has 0 entries for it"
        );
    }

    #[test]
    fn queued_running_and_divided_jobs_are_on_live_nodes() {
        for holder in [Holder::Deque(2), Holder::Running(2), Holder::Divided(2)] {
            let mut w = world();
            w.hold(0, holder);
            w.nodes[2].alive = false;
            assert_eq!(
                violation(&w),
                format!("job 0 is held by {holder:?}, but node 2 is down")
            );
        }
    }

    #[test]
    fn a_stolen_job_leaves_a_live_victim() {
        let mut w = world();
        w.clear_deque(1);
        w.hold(0, Holder::Transfer { from: 1 });
        assert_eq!(w.check_ownership(), Ok(()));
        // The thief may die in flight: the transfer bounces the job.
        w.nodes[2].alive = false;
        assert_eq!(w.check_ownership(), Ok(()));
        w.nodes[1].alive = false;
        assert_eq!(
            violation(&w),
            "job 0 is held by Transfer { from: 1 }, but node 1 is down"
        );
    }

    #[test]
    fn an_armed_steal_timeout_belongs_to_a_live_unfinished_node() {
        let mut w = world();
        let mut sim: S<Ones> = Sim::new();
        let mut timeout = Timer::default();
        timeout.arm(&mut sim, SimTime::from_millis(5), Event::Probe);
        w.nodes[2].attempt = Some(Attempt {
            token: 7,
            started: SimTime::ZERO,
            timeout,
        });
        assert_eq!(w.check_ownership(), Ok(()));
        w.done = true;
        assert_eq!(
            violation(&w),
            "node 2 finished its run, but its steal attempt 7 is open with an armed timeout"
        );
        w.nodes[2].alive = false;
        assert_eq!(
            violation(&w),
            "node 2 is down, but its steal attempt 7 is open with an armed timeout"
        );
    }

    #[test]
    fn finished_and_lost_jobs_hold_nothing() {
        let mut w = world();
        w.clear_deque(1);
        w.nodes[1].alive = false;
        for holder in [Holder::Owed { from: 1 }, Holder::Acked, Holder::Lost] {
            w.hold(0, holder);
            assert_eq!(w.check_ownership(), Ok(()), "{holder:?}");
        }
    }

    /// A stolen job lost in transit goes back to its victim, or to its home
    /// when the victim is down.
    #[test]
    fn a_lost_transfer_requeues_on_a_live_node() {
        let mut cs = cluster(3);
        cs.world.new_job(4, None, 1);
        cs.world.clear_deque(1);
        cs.world.hold(0, Holder::Transfer { from: 2 });
        cs.world.nodes[2].alive = false;
        let stolen = StolenJob {
            victim: 2,
            thief: 0,
            j: 0,
            token: 0,
            generation: 0,
            thief_inc: 0,
            lost: true,
        };
        cs.sim.schedule_now(Event::StealTransfer(stolen));
        cs.sim.step(&mut cs.world);
        assert_eq!(cs.world.jobs[0].holder, Holder::Deque(1));
        assert_eq!(cs.world.check_ownership(), Ok(()));
    }

    /// The per-event check runs after every event and sees the jobs the
    /// event touched, even when nothing else would.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(
        expected = "ownership broken after event::broadcast at 0ns: job 0 is held by Deque(1), but node 1's deque has 0 entries for it"
    )]
    fn every_event_is_checked() {
        let mut cs = cluster(3);
        cs.world.new_job(4, None, 1);
        cs.world.clear_deque(1);
        cs.sim.schedule_now(Event::Broadcast);
        cs.sim.step(&mut cs.world);
    }

    #[test]
    fn crash_and_rejoin_runs_keep_ownership() {
        let mut cs = cluster(4);
        cs.schedule_crash(2, SimTime::from_micros(1000)).unwrap();
        cs.schedule_join(2, SimTime::from_micros(1500)).unwrap();
        cs.schedule_crash(3, SimTime::from_micros(1200)).unwrap();
        assert_eq!(cs.run_root(1 << 10), 1 << 10);
        assert!(cs.report()[Counter::Crashes] == 2 && cs.report()[Counter::JobsRestarted] > 0);
        assert_eq!(cs.world.check_ownership(), Ok(()));
    }
}
