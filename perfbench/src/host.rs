//! Host-speed normalization.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of percent
//! within seconds as neighbours come and go, so whole-run host times of the
//! same code can differ by a quarter minutes apart. A [`HostClock`] runs a
//! fixed calibration probe between timed operations, so each stretch of
//! work has a measure of how fast the host was right then, and rescales
//! every operation's time to what it would have taken at the reference
//! speed. The probe is the benchmark's own code, so a change to the
//! simulator never moves it.

use crate::stats::median;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// How long one round of the calibration kernel takes at the reference
/// speed: a fixed scale near what a 2-core x86-64 Xeon takes when its
/// neighbours are quiet. Normalized times are what the operations would
/// have taken on a host that fast.
pub const REFERENCE_ROUND_S: f64 = 40e-9;
/// Operation time between two probes.
const PROBE_EVERY_S: f64 = 0.005;
/// A probe lasts this share of the operation time since the last one, at
/// least [`MIN_PROBE_ROUNDS`]: a long run between two probes gets a long
/// probe, which averages over more of the host's swings.
const PROBE_SHARE: f64 = 0.05;
/// Rounds of the shortest probe, about a quarter of a millisecond.
const MIN_PROBE_ROUNDS: u32 = 6_000;

/// Words of the probe's memory: 1 MiB, the size of the simulated machine's
/// memory and half the L2 cache of the baseline host. A static, so the
/// heap metrics do not count it.
const PROBE_WORDS: usize = 1 << 18;
static PROBE_MEM: Mutex<[u32; PROBE_WORDS]> = Mutex::new([0; PROBE_WORDS]);

/// The calibration kernel: a small bytecode interpreter whose program
/// loads from and stores to scattered words of `mem`, the same kind of work
/// as the simulator — indirect dispatch, register traffic, branches and
/// memory accesses — so both slow down together when a neighbour contends
/// for the core or its caches.
fn kernel(rounds: u32, mem: &mut [u32; PROBE_WORDS]) -> u64 {
    const PROG: [u8; 8] = [0, 1, 2, 3, 1, 4, 2, 5];
    let word = |x: u64| (x >> 40) as usize % PROBE_WORDS;
    let mut r = [1u64, 2, 3, 4];
    let mut acc = 0u64;
    for i in 0..rounds {
        let (mut pc, mut loops) = (0, 4);
        while pc < PROG.len() {
            match black_box(PROG[pc]) {
                0 => {
                    r[0] = r[0]
                        .wrapping_mul(0x5851_f42d_4c95_7f2d)
                        .wrapping_add(u64::from(i))
                }
                1 => r[1] ^= u64::from(mem[word(r[0])]),
                2 => r[2] = r[2].rotate_left(7).wrapping_add(r[1]),
                3 => {
                    mem[word(r[2])] ^= r[3] as u32;
                    r[3] = r[3].wrapping_sub(r[2] & 0xff);
                }
                4 if loops > 0 => {
                    loops -= 1;
                    pc = 0;
                    continue;
                }
                4 => {}
                _ => acc = acc.wrapping_add(r[3]),
            }
            pc += 1;
        }
    }
    acc ^ r[0]
}

/// Runs a calibration probe sized for `work_s` seconds of operations since
/// the last one; returns its seconds per round. The probe first writes its
/// whole memory, untimed, so the timed part starts from the same cache
/// state whatever the simulator left behind: only contention at that
/// moment moves it, never the footprint of the code under test.
fn probe(work_s: f64) -> f64 {
    let rounds = ((work_s * PROBE_SHARE / REFERENCE_ROUND_S) as u32).max(MIN_PROBE_ROUNDS);
    let mut mem = PROBE_MEM
        .lock()
        .expect("no probe panics while holding its memory");
    for w in mem.iter_mut() {
        *w = w.wrapping_add(1);
    }
    let t0 = Instant::now();
    black_box(kernel(black_box(rounds), &mut mem));
    t0.elapsed().as_secs_f64() / f64::from(rounds)
}

/// Records timed operations, probing the host between them.
#[derive(Debug, Default)]
pub struct HostClock {
    /// Each probe's seconds per round, in order.
    probes: Vec<f64>,
    /// Each operation's seconds and the index of the probe that follows it.
    ops: Vec<(f64, usize)>,
    /// Operation seconds since the last probe.
    pending: f64,
}

impl HostClock {
    /// A clock that has timed nothing yet.
    pub fn new() -> HostClock {
        HostClock::default()
    }

    /// Records an operation that took `secs`, probing the host once
    /// [`PROBE_EVERY_S`] of operations have passed since the last probe.
    pub fn record(&mut self, secs: f64) {
        self.ops.push((secs, self.probes.len()));
        self.pending += secs;
        if self.pending >= PROBE_EVERY_S {
            self.probes.push(probe(self.pending));
            self.pending = 0.0;
        }
    }

    /// Every recorded operation's seconds at the reference speed, in order.
    /// An operation is rescaled by the median of the probe that follows it
    /// and that probe's two neighbours, so one probe that an interrupt
    /// slowed does not skew its stretch.
    pub fn normalized(&mut self) -> Vec<f64> {
        if self.pending > 0.0 || self.probes.is_empty() {
            self.probes.push(probe(self.pending));
            self.pending = 0.0;
        }
        let n = self.probes.len();
        self.ops
            .iter()
            .map(|&(secs, k)| {
                let k = k.min(n - 1);
                let near = median(&self.probes[k.saturating_sub(1)..(k + 2).min(n)]);
                secs * REFERENCE_ROUND_S / near
            })
            .collect()
    }

    /// Host speed relative to the reference over everything recorded: above
    /// 1 when the host ran faster.
    pub fn speed(&self) -> f64 {
        REFERENCE_ROUND_S / median(&self.probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_times_scale_by_the_nearby_probes() {
        let mut c = HostClock {
            probes: vec![2.0 * REFERENCE_ROUND_S, 2.0 * REFERENCE_ROUND_S],
            ops: vec![(1.0, 0), (3.0, 1)],
            pending: 0.0,
        };
        let got = c.normalized();
        assert!(
            (got[0] - 0.5).abs() < 1e-12 && (got[1] - 1.5).abs() < 1e-12,
            "{got:?}"
        );
        assert!((c.speed() - 0.5).abs() < 1e-12);
        let mut real = HostClock::new();
        for _ in 0..4 {
            real.record(PROBE_EVERY_S);
        }
        assert_eq!(real.normalized().len(), 4);
        assert!(real.speed() > 0.0 && real.speed().is_finite());
    }
}
