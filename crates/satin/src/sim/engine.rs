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

use super::steal::StealKind;
use crate::sim::app::{ClusterApp, DcStep, LeafCtx, LeafRuntime};
use crate::sim::report::{Counter, RunReport};
use cashmere_des::fault::{FaultInjector, FaultPlan, MessageFate};
use cashmere_des::obs::{prof, MetricsRegistry, ProbeSeries};
use cashmere_des::rng::StreamRng;
use cashmere_des::trace::{LaneId, SpanId, SpanKind, Trace};
use cashmere_des::{Handler, Sim, SimTime};
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    /// Divided; waiting for children.
    Waiting,
    Done,
    /// Discarded after a crash; superseded by a re-executed ancestor.
    Lost,
}

struct JobRec<A: ClusterApp> {
    input: Option<A::Input>,
    parent: Option<(usize, usize)>,
    /// Node where this job's record lives (its parent's combine runs here).
    home_node: usize,
    /// Node currently assigned to execute the job.
    exec_node: usize,
    state: JobState,
    pending: usize,
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
    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

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

struct NodeState {
    deque: TaskDeque,
    busy_cores: usize,
    running_leaves: usize,
    stealing: bool,
    steal_failures: u32,
    /// Bumped whenever an outstanding steal attempt resolves (success,
    /// refusal, timeout, crash). In-flight timeout and arrival events
    /// capture the value at initiation and ignore themselves when stale.
    steal_seq: u64,
    /// Pending steal-retry event, cancelled when the run completes so that
    /// trailing no-op polls do not advance the clock past the real finish.
    retry_event: Option<cashmere_des::EventHandle>,
    /// Pending steal-timeout event (armed only under an active fault plan).
    steal_timeout_event: Option<cashmere_des::EventHandle>,
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
    /// When the outstanding steal attempt was initiated (steal RTT metric).
    steal_started: SimTime,
}

/// A salvaged orphan result in the global result table: the output of a
/// completed subtree whose enclosing tree was reset by a crash, still held
/// by a surviving node.
struct OrphanEntry<O> {
    output: O,
    /// Node physically holding the result; fetching it from elsewhere is
    /// charged as a network transfer.
    holder: usize,
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
    /// The map is only ever probed by key and purged by holder — iteration
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
    /// Pending probe event, cancelled at root completion so sampling never
    /// advances the clock past the real finish.
    probe_event: Option<cashmere_des::EventHandle>,
    report: RunReport,
    /// Gantt spans and metrics of the run; both record only when
    /// `cfg.trace` is set.
    trace: Trace,
    metrics: MetricsRegistry,
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
            exec_node: home,
            state: JobState::Queued,
            pending: 0,
            children: 0..0,
            delivered: None,
            generation: 0,
            replay: false,
            origin_span: SpanId::NONE,
            divide_span: SpanId::NONE,
            capped_entries: 0,
        });
        self.report[Counter::JobsCreated] += 1;
        id
    }

    /// Queue `task` at the back of node `n`'s deque.
    fn enqueue(&mut self, n: usize, task: Task) {
        let capped = match task {
            Task::Job(j) => {
                let leaf = self.jobs[j]
                    .input
                    .as_ref()
                    .is_some_and(|i| self.app.is_leaf(i));
                if leaf {
                    self.jobs[j].capped_entries += 1;
                }
                leaf
            }
            Task::Combine(_) => false,
        };
        self.nodes[n].deque.push(task, capped);
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
    /// The transfer of stolen job `j` from `victim` to `thief` ends: the job
    /// arrives, or it was `lost` in transit.
    StealTransfer {
        victim: usize,
        thief: usize,
        j: usize,
        token: u64,
        generation: u64,
        thief_inc: u64,
        lost: bool,
    },
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
            Event::StealTransfer { .. } => "event::steal-transfer",
            Event::Probe => "event::probe",
            Event::Crash { .. } => "event::crash",
            Event::Join { .. } => "event::join",
            Event::Broadcast => "event::broadcast",
        }
    }

    fn handle(&mut self, ev: Event<A>, sim: &mut S<A>) {
        let w = self;
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
                // Clears the handle even when it names a newer retry that is
                // still pending.
                w.nodes[thief].retry_event = None;
                if let Some(token) = token {
                    if w.nodes[thief].steal_seq == token && w.nodes[thief].stealing {
                        resolve_steal(w, sim, thief);
                    }
                }
                if !w.done && w.nodes[thief].alive {
                    schedule_tick(w, sim, thief);
                }
            }
            Event::StealTransfer {
                victim,
                thief,
                j,
                token,
                generation,
                thief_inc,
                lost,
            } => {
                finish_steal_transfer(w, sim, victim, thief, j, token, generation, thief_inc, lost)
            }
            Event::Probe => {
                w.probe_event = None;
                if w.done {
                    return;
                }
                sample_probe(w, sim.now());
                if let Some(iv) = w.cfg.probe_interval {
                    let at = sim.now() + iv;
                    schedule_probe(w, sim, at);
                }
            }
            Event::Crash { n } => crash(w, sim, n),
            Event::Join { n } => join(w, sim, n),
            Event::Broadcast => {}
        }
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
                stealing: false,
                steal_failures: 0,
                steal_seq: 0,
                retry_event: None,
                steal_timeout_event: None,
                alive: true,
                incarnation: 0,
                tick_scheduled: false,
                cpu_lane: trace.add_lane(format!("node{n}.cpu")),
                net_lane: trace.add_lane(format!("node{n}.net")),
                steal_started: SimTime::ZERO,
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
            probe_event: None,
            report: RunReport::new(cfg.nodes),
            trace,
            metrics,
            cfg,
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
        if node == 0 {
            return Err("the master node (0) cannot crash in this model".into());
        }
        if node >= self.world.cfg.nodes {
            return Err(format!(
                "node {node} out of range (cluster has {} nodes)",
                self.world.cfg.nodes
            ));
        }
        if at < self.sim.now() {
            return Err(format!(
                "crash time {at} is in the past (virtual time is {})",
                self.sim.now()
            ));
        }
        self.sim.schedule_at(at, Event::Crash { n: node });
        Ok(())
    }

    /// Schedule node `n` to (re)join the cluster at absolute time `at`. A
    /// joining node comes up empty — no jobs, no steal state, a fresh NIC —
    /// and immediately re-enters the steal victim sets (victim selection
    /// only checks liveness). Joining a node that is already up is a no-op.
    /// Same request validation as [`ClusterSim::schedule_crash`].
    pub fn schedule_join(&mut self, node: usize, at: SimTime) -> Result<(), String> {
        if node == 0 {
            return Err("the master node (0) cannot leave or join in this model".into());
        }
        if node >= self.world.cfg.nodes {
            return Err(format!(
                "node {node} out of range (cluster has {} nodes)",
                self.world.cfg.nodes
            ));
        }
        if at < self.sim.now() {
            return Err(format!(
                "join time {at} is in the past (virtual time is {})",
                self.sim.now()
            ));
        }
        self.sim.schedule_at(at, Event::Join { n: node });
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
        let root = self.world.new_job(input, None, 0);
        self.world.root_job = root;
        self.world.enqueue(0, Task::Job(root));
        for n in 0..self.world.cfg.nodes {
            schedule_tick(&mut self.world, &mut self.sim, n);
        }
        if let Some(iv) = self.world.cfg.probe_interval {
            // Probes fire on the global cadence grid (multiples of the
            // interval), starting strictly after `start` so iterative
            // drivers never record a duplicate timestamp.
            let first = SimTime::from_nanos((start.as_nanos() / iv.as_nanos() + 1) * iv.as_nanos());
            schedule_probe(&mut self.world, &mut self.sim, first);
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

/// Arm the flight recorder's next firing at absolute time `at`.
fn schedule_probe<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    at: SimTime,
) {
    let h = sim.schedule_at(at, Event::Probe);
    w.probe_event = Some(h);
}

/// Take one flight-recorder sample: strictly read-only over the world (no
/// RNG, no state mutation outside the series itself), so probing cannot
/// perturb the simulation. Column order is fixed by this function, which
/// makes the series layout — and every export — byte-deterministic.
fn sample_probe<A: ClusterApp, L: LeafRuntime<A>>(w: &mut World<A, L>, now: SimTime) {
    let mut cols: Vec<(String, f64)> = Vec::with_capacity(16 + 2 * w.cfg.nodes);
    let alive = w.nodes.iter().filter(|n| n.alive).count();
    let busy: usize = w.nodes.iter().map(|n| n.busy_cores).sum();
    let queued: usize = w.nodes.iter().map(|n| n.deque.len()).sum();
    let stealing = w.nodes.iter().filter(|n| n.stealing).count();
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
        cols.push((format!("n{i}.queue"), n.deque.len() as f64));
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
    if w.nodes[n].deque.is_empty()
        && w.nodes[n].busy_cores < w.cfg.cores_per_node
        && !w.nodes[n].stealing
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
    holder: usize,
) {
    let bytes = w.app.output_bytes(&output);
    w.orphans.insert(
        key,
        OrphanEntry {
            output,
            holder,
            bytes,
        },
    );
    w.report[Counter::OrphansHarvested] += 1;
}

/// Drop every table entry held by node `n` (it just crashed and physically
/// lost them).
fn expire_orphans_of<A: ClusterApp, L: LeafRuntime<A>>(w: &mut World<A, L>, n: usize) {
    let before = w.orphans.len();
    w.orphans.retain(|_, e| e.holder != n);
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
    w.recovery_outstanding.retain(|&r| {
        let s = jobs[r].state;
        s != JobState::Done && s != JobState::Lost
    });
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
    if w.jobs[j].state != JobState::Queued {
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
                holder,
                bytes,
            } = entry;
            w.report[Counter::OrphansReused] += 1;
            w.jobs[j].state = JobState::Running;
            w.jobs[j].exec_node = n;
            let generation = w.jobs[j].generation;
            let at = if holder == n {
                // Local table hit: a lookup costs one job overhead.
                sim.now() + w.cfg.job_overhead
            } else {
                // Remote hit: fetch the result from its holder. The result
                // table is master-mediated bookkeeping; the fetch itself is
                // modelled as a reliable transfer (retransmission of table
                // traffic is below the model's resolution).
                let tr = w.transfer(sim.now(), holder, n, bytes);
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
    w.jobs[j].state = JobState::Running;
    w.jobs[j].exec_node = n;
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
    w.jobs[j].state = JobState::Waiting;
    w.jobs[j].pending = count;
    let divide_span = w.jobs[j].divide_span;
    let first = w.jobs.len();
    for (idx, input) in children.into_iter().enumerate() {
        let c = w.new_job(input, Some((j, idx)), n);
        debug_assert_eq!(c, first + idx, "a division's records are consecutive");
        // A restarted subtree re-divides into fresh records; mark them so
        // their leaf compute is accounted as recovery cost.
        w.jobs[c].replay = replay;
        w.jobs[c].origin_span = divide_span;
        w.enqueue(n, Task::Job(c));
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
    if w.jobs[j].generation != generation || w.jobs[j].state == JobState::Lost {
        // A late orphan result: the subtree completed, but its record was
        // reset by a crash in the meantime. Report the result to the global
        // table so the re-executed copy can reuse it instead of recomputing
        // the whole subtree.
        if w.cfg.orphan_reuse && !w.done && w.nodes[n].alive {
            stash_orphan(w, path_of(w, j), output, n);
        }
        return;
    }
    w.jobs[j].state = JobState::Done;
    w.drop_input(j);
    note_recovery(w, sim.now());
    match w.jobs[j].parent {
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
                if let Some(h) = w.nodes[node].retry_event.take() {
                    sim.cancel(h);
                }
                if let Some(h) = w.nodes[node].steal_timeout_event.take() {
                    sim.cancel(h);
                }
                w.nodes[node].stealing = false;
            }
            // Likewise the pending flight-recorder probe: sampling must not
            // advance the clock past the real finish.
            if let Some(h) = w.probe_event.take() {
                sim.cancel(h);
            }
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
    if w.jobs[p].generation != pgen || w.jobs[p].state != JobState::Waiting {
        return;
    }
    let c = w.jobs[p].children.start + idx;
    if w.jobs[c].delivered.is_some() {
        return; // duplicate after re-execution
    }
    w.jobs[c].delivered = Some(output);
    w.jobs[p].pending -= 1;
    if w.jobs[p].pending == 0 {
        let home = w.jobs[p].home_node;
        w.enqueue(home, Task::Combine(p));
        schedule_tick(w, sim, home);
    }
}

fn start_combine<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    n: usize,
    p: usize,
) {
    if w.jobs[p].state != JobState::Waiting || w.jobs[p].pending != 0 {
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

/// The thief's outstanding steal attempt is over (success, refusal,
/// timeout, or crash): clear the flag, invalidate in-flight events keyed on
/// the old sequence number, and disarm the timeout.
fn resolve_steal<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    thief: usize,
) {
    w.nodes[thief].stealing = false;
    w.nodes[thief].steal_seq += 1;
    if let Some(h) = w.nodes[thief].steal_timeout_event.take() {
        sim.cancel(h);
    }
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
        let retry = steal_backoff(w, thief);
        let h = sim.schedule_in(retry, Event::StealRetry { thief, token: None });
        w.nodes[thief].retry_event = Some(h);
        return;
    };
    debug_assert!(victim != thief && w.nodes[victim].alive);
    if w.cfg.trace {
        w.victim_log.push((thief, victim));
    }
    w.nodes[thief].stealing = true;
    w.nodes[thief].steal_seq += 1;
    w.nodes[thief].steal_started = sim.now();
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
    if w.faults.is_active() {
        let h = sim.schedule_in(w.cfg.steal_timeout, Event::StealTimeout { thief, token });
        w.nodes[thief].steal_timeout_event = Some(h);
    }
}

/// `thief`'s steal attempt `token` timed out: abandon it unless it already
/// resolved, and retry with backoff.
fn steal_timeout<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    thief: usize,
    token: u64,
) {
    w.nodes[thief].steal_timeout_event = None;
    if w.done
        || !w.nodes[thief].alive
        || !w.nodes[thief].stealing
        || w.nodes[thief].steal_seq != token
    {
        return;
    }
    resolve_steal(w, sim, thief);
    w.report[Counter::StealTimeouts] += 1;
    w.nodes[thief].steal_failures = w.nodes[thief].steal_failures.saturating_add(1);
    let retry = steal_backoff(w, thief);
    let h = sim.schedule_in(retry, Event::StealRetry { thief, token: None });
    w.nodes[thief].retry_event = Some(h);
}

fn handle_steal_request<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    victim: usize,
    thief: usize,
) {
    if w.done || !w.nodes[thief].alive {
        resolve_steal(w, sim, thief);
        return;
    }
    if !w.nodes[thief].stealing {
        // The thief already gave up on this attempt (timeout) and owns a
        // fresh retry; a late request must not disturb it.
        return;
    }
    let token = w.nodes[thief].steal_seq;
    // Steal from the FIFO end: the oldest (largest) job. Combines stay
    // home. Stale entries (a crash-restart requeues a job at its home
    // while an old deque entry survives elsewhere; the fresh copy may
    // already have run) are skipped — `start_job` skips them too.
    let stolen = if w.nodes[victim].alive && w.nodes[victim].deque.jobs > 0 {
        let pos = w.nodes[victim].deque.entries.iter().position(|q| {
            matches!(q.task, Task::Job(j) if w.jobs[j].state == JobState::Queued
                && w.jobs[j].input.is_some())
        });
        pos.map(|p| w.dequeue(victim, p).task)
    } else {
        None
    };
    match stolen {
        Some(Task::Job(j)) => {
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
            let generation = w.jobs[j].generation;
            let thief_inc = w.nodes[thief].incarnation;
            // The handshake succeeded; only the bulk transfer remains. The
            // timeout covered the request/reply phase, so disarm it (no-op
            // in fault-free runs, which never arm one).
            if let Some(h) = w.nodes[thief].steal_timeout_event.take() {
                sim.cancel(h);
            }
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
            sim.schedule_at(
                arrival,
                Event::StealTransfer {
                    victim,
                    thief,
                    j,
                    token,
                    generation,
                    thief_inc,
                    lost,
                },
            );
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
                    if let Some(h) = w.nodes[thief].steal_timeout_event.take() {
                        sim.cancel(h);
                    }
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
            let retry = steal_backoff(w, thief);
            let h = sim.schedule_in(
                reply + retry,
                Event::StealRetry {
                    thief,
                    token: Some(token),
                },
            );
            w.nodes[thief].retry_event = Some(h);
        }
    }
}

/// The transfer of stolen job `j` from `victim` to `thief` ends. Either way
/// the job has left the victim's deque, so nobody else knows about it: a job
/// `lost` in transit, or one whose thief died meanwhile, is re-queued on a
/// live node, or it is lost and the run never terminates.
#[allow(clippy::too_many_arguments)]
fn finish_steal_transfer<A: ClusterApp, L: LeafRuntime<A>>(
    w: &mut World<A, L>,
    sim: &mut S<A>,
    victim: usize,
    thief: usize,
    j: usize,
    token: u64,
    generation: u64,
    thief_inc: u64,
    lost: bool,
) {
    let attempt_open = w.nodes[thief].steal_seq == token && w.nodes[thief].stealing;
    if lost {
        if attempt_open {
            resolve_steal(w, sim, thief);
            w.nodes[thief].steal_failures = w.nodes[thief].steal_failures.saturating_add(1);
            if w.nodes[thief].alive && !w.done {
                schedule_tick(w, sim, thief);
            }
        }
        if w.done || w.jobs[j].generation != generation {
            return;
        }
        let home = w.jobs[j].home_node;
        let target = if w.nodes[victim].alive {
            victim
        } else if w.nodes[home].alive {
            home
        } else {
            0
        };
        w.jobs[j].exec_node = target;
        w.enqueue(target, Task::Job(j));
        schedule_tick(w, sim, target);
        return;
    }
    if attempt_open {
        let rtt = sim.now() - w.nodes[thief].steal_started;
        w.metrics.observe("steal.rtt", rtt);
        resolve_steal(w, sim, thief);
        w.nodes[thief].steal_failures = 0;
    }
    if w.jobs[j].generation != generation {
        return;
    }
    if !w.is_current(thief, thief_inc) {
        // The thief died while the job was in flight (and perhaps already
        // rebooted — the transfer's connection died with the old
        // incarnation): bounce the job back to a live node.
        let home = w.jobs[j].home_node;
        let target = if w.nodes[home].alive { home } else { 0 };
        w.jobs[j].exec_node = target;
        w.enqueue(target, Task::Job(j));
        w.jobs[j].replay = true;
        w.report[Counter::JobsRestarted] += 1;
        schedule_tick(w, sim, target);
        return;
    }
    w.jobs[j].exec_node = thief;
    w.enqueue(thief, Task::Job(j));
    schedule_tick(w, sim, thief);
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
    if let Some(h) = w.nodes[n].retry_event.take() {
        sim.cancel(h);
    }
    if let Some(h) = w.nodes[n].steal_timeout_event.take() {
        sim.cancel(h);
    }
    w.nodes[n].stealing = false;
    w.nodes[n].steal_failures = 0;
    w.nodes[n].steal_seq += 1;
    w.nodes[n].incarnation += 1;
    // The crashed node leaves every victim set: no thief keeps it as its
    // recent victim. This is the one place cluster membership shrinks.
    for r in &mut w.recent_victim {
        if *r == Some(n) {
            *r = None;
        }
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
    // execution was on (or under) the crashed node.
    let mut restart = Vec::new();
    for j in 0..w.jobs.len() {
        let rec = &w.jobs[j];
        if rec.state == JobState::Done || rec.state == JobState::Lost {
            continue;
        }
        let on_crashed = rec.exec_node == n || rec.home_node == n;
        if !on_crashed {
            continue;
        }
        // Walk up to the first ancestor whose record lives on a healthy
        // node (with multiple failures the home may be a *different* dead
        // node — keep climbing; the root's home is the master, which
        // cannot crash).
        let mut cur = j;
        loop {
            let rec = &w.jobs[cur];
            if rec.home_node != n && w.nodes[rec.home_node].alive {
                restart.push(cur);
                break;
            }
            match rec.parent {
                Some((p, _)) => cur = p,
                None => {
                    restart.push(cur);
                    break;
                }
            }
        }
    }
    restart.sort_unstable();
    restart.dedup();
    // Keep only the topmost restart roots (drop any that is a descendant of
    // another restart root).
    let is_descendant = |w: &World<A, L>, mut x: usize, anc: usize| -> bool {
        while let Some((p, _)) = w.jobs[x].parent {
            if p == anc {
                return true;
            }
            x = p;
        }
        false
    };
    let roots: Vec<usize> = restart
        .iter()
        .copied()
        .filter(|&r| !restart.iter().any(|&a| a != r && is_descendant(w, r, a)))
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
                if w.jobs[q].state != JobState::Waiting {
                    continue;
                }
                let holder = w.jobs[q].home_node;
                if holder == n || !w.nodes[holder].alive {
                    continue;
                }
                let base = path_of(w, q);
                for (idx, c) in w.jobs[q].children.clone().enumerate() {
                    if let Some(out) = w.jobs[c].delivered.clone() {
                        let mut key = base.clone();
                        key.push(idx as u32);
                        stash_orphan(w, key, out, holder);
                    }
                }
            }
        }
        // Discard the subtree below r and re-queue r at its home node.
        let mut stack: Vec<usize> = w.jobs[r].children.clone().collect();
        while let Some(c) = stack.pop() {
            stack.extend(w.jobs[c].children.clone());
            w.jobs[c].state = JobState::Lost;
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
        w.jobs[r].pending = 0;
        w.jobs[r].generation += 1;
        w.jobs[r].state = JobState::Queued;
        w.jobs[r].exec_node = home;
        w.jobs[r].replay = true;
        w.report[Counter::JobsRestarted] += 1;
        if !w.recovery_outstanding.contains(&r) {
            w.recovery_outstanding.push(r);
        }
        w.enqueue(home, Task::Job(r));
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
    // Wake everyone: sudden loss of a victim must not deadlock thieves.
    for k in 0..w.cfg.nodes {
        if w.nodes[k].alive {
            schedule_tick(w, sim, k);
        }
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
    w.nodes[n].stealing = false;
    w.nodes[n].steal_failures = 0;
    w.nodes[n].steal_seq += 1;
    w.nodes[n].steal_started = SimTime::ZERO;
    // A rebooted node has no half-open connections: reset its NIC.
    w.nics[n] = NodeNic::default();
    w.report[Counter::Joins] += 1;
    note_busy_cores(w, sim, n);
    // Bring the node's leaf runtime back up (re-register devices, rebuild
    // its balancer).
    w.leaf.on_node_join(n, sim.now());
    if !w.done {
        // Wake everyone: backed-off thieves should notice the new victim
        // promptly, and the joiner itself starts stealing.
        for k in 0..w.cfg.nodes {
            if w.nodes[k].alive {
                schedule_tick(w, sim, k);
            }
        }
    }
}
