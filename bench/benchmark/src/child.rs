//! One pass = the ops of one workload, run in fresh child processes under
//! a per-op watchdog.
//!
//! The child regenerates the op list from `(workload, seed)`, says `Ready`,
//! then for each op times the host-speed probe and streams one `Start` and
//! one `Done` line over stdout. The parent times set-up from spawn to
//! `Ready`. When an op outlives the deadline, the parent kills the child,
//! records the timeout, and spawns a new child for the ops that have not
//! finished.

use crate::host::{probe_ns, vmhwm_kb};
use crate::workloads::{Outcome, Workload};
use cashmere_bench::sweep;
use cashmere_des::obs::{prof, ProfTree};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-op deadline: over 10× the slowest op of any workload, traced.
pub const OP_DEADLINE: Duration = Duration::from_secs(5);

/// Longest a child may take to say `Ready`.
const SETUP_DEADLINE: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum OpResult {
    Completed(Outcome),
    Panicked(String),
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Done {
    pub op: usize,
    /// Sweep worker that ran the op (0 on the calling thread).
    pub worker: usize,
    /// Start, relative to the child's `Ready`.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// The host-speed probe, timed on the same worker just before the op.
    pub probe_ns: u64,
    pub result: OpResult,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Msg {
    Ready,
    Start {
        op: usize,
    },
    Done(Done),
    End {
        vmhwm_kb: Option<u64>,
        prof: Option<ProfTree>,
    },
}

fn emit(msg: &Msg) {
    println!(
        "{}",
        serde_json::to_string(msg).expect("message serializes")
    );
}

static NEXT_WORKER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static WORKER: usize = NEXT_WORKER.fetch_add(1, Ordering::Relaxed);
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// The child side: run `todo` (indices into the op list) and report.
pub fn child_main(
    workload: Workload,
    seed: u64,
    todo: Vec<usize>,
    traced: bool,
) -> Result<(), String> {
    if traced {
        prof::set_enabled(true);
    }
    let ops = {
        let _setup = prof::scope("bench::setup");
        workload.ops(seed)?
    };
    if let Some(&bad) = todo.iter().find(|&&i| i >= ops.len()) {
        return Err(format!("op {bad} out of range"));
    }
    emit(&Msg::Ready);
    let t0 = Instant::now();
    sweep(todo, workload.jobs(), |op| {
        let probe = probe_ns();
        emit(&Msg::Start { op });
        let start = t0.elapsed();
        let result = {
            let _op = prof::scope("bench::op");
            catch_unwind(AssertUnwindSafe(|| ops[op].run()))
        };
        let dur = t0.elapsed() - start;
        emit(&Msg::Done(Done {
            op,
            worker: WORKER.with(|w| *w),
            start_ns: start.as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
            probe_ns: probe,
            result: match result {
                Ok(o) => OpResult::Completed(o),
                Err(p) => OpResult::Panicked(panic_message(p)),
            },
        }));
    });
    emit(&Msg::End {
        vmhwm_kb: vmhwm_kb(),
        prof: traced.then(prof::take),
    });
    Ok(())
}

/// Everything one pass produced, over every child it took.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Spawn-to-`Ready` time of each child.
    pub setup_ns: Vec<u64>,
    pub done: Vec<Done>,
    pub timeouts: Vec<usize>,
    /// Ops running when their child died without a panic report.
    pub crashed: Vec<usize>,
    pub vmhwm_kb: Option<u64>,
    pub prof: Option<ProfTree>,
}

/// A running child and the thread that forwards its stdout lines. Dropping
/// it kills the child if it is still running and waits for both.
struct Spawned {
    child: Child,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Spawned {
    fn start(
        workload: Workload,
        seed: u64,
        todo: &[usize],
        traced: bool,
    ) -> Result<Spawned, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate benchmark: {e}"))?;
        let list: Vec<String> = todo.iter().map(usize::to_string).collect();
        let mut cmd = Command::new(exe);
        cmd.args(["--child", "--workload", workload.name()])
            .args(["--seed", &seed.to_string(), "--ops", &list.join(",")])
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if traced {
            cmd.arg("--traced");
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn child: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Spawned {
            child,
            lines,
            reader: Some(reader),
        })
    }

    /// The next message; a line that is not one comes back as `Err`.
    fn recv(&self, timeout: Duration) -> Result<Result<Msg, String>, RecvTimeoutError> {
        let line = self.lines.recv_timeout(timeout)?;
        Ok(serde_json::from_str(&line).map_err(|_| line))
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Run one pass over `todo`, respawning after every timeout or crash.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    todo: &[usize],
    traced: bool,
    deadline: Duration,
) -> Result<PassOutput, String> {
    let mut out = PassOutput::default();
    let mut pending: Vec<usize> = todo.to_vec();
    while !pending.is_empty() {
        let spawned_at = Instant::now();
        let child = Spawned::start(workload, seed, &pending, traced)?;
        match child.recv(SETUP_DEADLINE) {
            Ok(Ok(Msg::Ready)) => out.setup_ns.push(spawned_at.elapsed().as_nanos() as u64),
            other => {
                return Err(format!(
                    "{} child failed to start: {other:?}",
                    workload.name()
                ))
            }
        }
        let mut running: BTreeMap<usize, Instant> = BTreeMap::new();
        loop {
            let wait = running.values().min().map_or(deadline, |s| {
                (*s + deadline).saturating_duration_since(Instant::now())
            });
            match child.recv(wait) {
                Ok(Ok(Msg::Start { op })) => {
                    running.insert(op, Instant::now());
                }
                Ok(Ok(Msg::Done(d))) => {
                    running.remove(&d.op);
                    pending.retain(|&p| p != d.op);
                    out.done.push(d);
                }
                Ok(Ok(Msg::End { vmhwm_kb, prof })) => {
                    if !pending.is_empty() {
                        return Err(format!("{} child ended with ops left", workload.name()));
                    }
                    out.vmhwm_kb = out.vmhwm_kb.max(vmhwm_kb);
                    if let Some(tree) = prof {
                        out.prof.get_or_insert_with(ProfTree::default).merge(&tree);
                    }
                    break;
                }
                Ok(Ok(Msg::Ready)) => {
                    return Err(format!("{} child said Ready twice", workload.name()))
                }
                Ok(Err(line)) => {
                    return Err(format!(
                        "unexpected line from {} child: {line}",
                        workload.name()
                    ))
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = Instant::now();
                    let overdue: Vec<usize> = running
                        .iter()
                        .filter(|(_, s)| now.duration_since(**s) >= deadline)
                        .map(|(op, _)| *op)
                        .collect();
                    if running.is_empty() {
                        return Err(format!("{} child stalled between ops", workload.name()));
                    }
                    if overdue.is_empty() {
                        continue;
                    }
                    pending.retain(|p| !overdue.contains(p));
                    out.timeouts.extend(overdue);
                    break;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    if running.is_empty() {
                        return Err(format!("{} child died between ops", workload.name()));
                    }
                    pending.retain(|p| !running.contains_key(p));
                    out.crashed.extend(running.keys());
                    break;
                }
            }
        }
    }
    Ok(out)
}
