//! What the host, not the simulator, contributes to a measurement: its
//! current speed and a process's peak memory.
//!
//! Host time on a shared machine drifts between runs minutes apart, and
//! within a run: other tenants' load slowed the simulator by up to 2× for
//! minutes at a time. So the child times a fixed probe, code of this
//! benchmark that no change to the simulator can touch, on the worker
//! thread just before every op, and each op's host time is scaled by
//! `PROBE_REF_NS / its probe`, i.e. reported in nanoseconds of a host on
//! which the probe takes exactly `PROBE_REF_NS`.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// About the probe's time on the 2-core host the benchmark was calibrated
/// on, when quiet. It only fixes the unit; any constant would compare runs
/// equally well.
pub const PROBE_REF_NS: f64 = 1_500_000.0;

/// Time a fixed mix of the two kinds of work the simulator's time goes to:
/// dispatch in a small register machine (branchy integer and float
/// arithmetic, like the kernel VM) and a hash map of short vectors that
/// grow and are freed (like the engine's job and event tables).
///
/// Under load from other tenants the simulator slowed as much as this mix,
/// but about twice as much, in log terms, as a binary heap over 256 KiB, so
/// a probe of cache-resident data structures alone corrects only half the
/// drift. Timed next to each op, the mix cut the spread of op times over
/// 20 s windows by 3–5× on a host loaded that way.
pub fn probe_ns() -> u64 {
    let t0 = Instant::now();
    dispatch(250_000);
    churn(13_000);
    t0.elapsed().as_nanos() as u64
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// `steps` instructions of a fixed random 64-instruction program over
/// eight registers.
fn dispatch(steps: u32) {
    let mut x = 0x1234_5678_9ABC_DEF1;
    let program: Vec<u8> = (0..64).map(|_| (xorshift(&mut x) % 8) as u8).collect();
    let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut pc = 0usize;
    for _ in 0..steps {
        let (a, b) = ((pc * 3) & 7, (pc * 5 + 1) & 7);
        match program[pc] {
            0 => r[a] = r[a].wrapping_add(r[b]),
            1 => r[a] = r[a].wrapping_mul(r[b] | 1),
            2 => r[a] ^= r[b].rotate_left(7),
            3 => r[a] = r[a].wrapping_sub(r[b] >> 3),
            4 if r[a] & 1 == 1 => pc = (pc + 1) & 63,
            4 => {}
            5 => r[a] = (r[a] as f64 * 1.000001 + r[b] as f64).to_bits() >> 12,
            6 => r[b] = r[a].min(r[b]).wrapping_add(3),
            _ => r[a] = r[a].count_ones() as u64 + r[b],
        }
        pc = (pc + 1) & 63;
    }
    black_box(r);
}

/// `steps` updates of a map from 4096 keys to vectors that grow to nine
/// entries and are then dropped.
fn churn(steps: u64) {
    let mut x = 7;
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    for i in 0..steps {
        let k = xorshift(&mut x) % 4096;
        if let Some(v) = map.get_mut(&k) {
            v.push(i);
            if v.len() > 8 {
                map.remove(&k);
            }
        } else {
            map.insert(k, vec![i; 3]);
        }
    }
    black_box(map.len());
}

/// Peak resident set of this process (Linux `VmHWM`), in KiB.
pub fn vmhwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_and_memory_peak_read_something() {
        assert!(probe_ns() > 0);
        assert!(vmhwm_kb().is_some_and(|kb| kb > 0));
    }
}
