//! Seeded input generation. Everything a workload feeds the programs comes
//! from here and from the `--seed` argument alone: the order of runs, the
//! serve job mix, job arguments, injection seeds and the positions of
//! duplicate submissions. The same seed always yields the same inputs.

use risc1_ir::Module;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long loop-dominated programs on the default engine.
    RunLoops,
    /// Long call-dominated programs on the default engine.
    RunCalls,
    /// Every suite program at `small_args`, each on a fresh machine.
    RunCold,
    /// A closed-loop TCP campaign against `serve_tcp`.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::RunLoops,
        Workload::RunCalls,
        Workload::RunCold,
        Workload::ServeMixed,
    ];

    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RunLoops => "run_loops",
            Workload::RunCalls => "run_calls",
            Workload::RunCold => "run_cold",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parses the command-line spelling.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// SplitMix64: small, fast, and its sequence is fixed for a given seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole sequence is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next value of the sequence.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A seeded permutation of `0..n`: the order of one pass over a run set.
pub fn pass_order(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// `run_loops`: the loop-dominated suite programs and the `by_id_scaled`
/// scale each runs at, chosen so every run retires a few million
/// instructions and takes a similar share of host time.
const LOOPS: [(&str, u32); 6] = [
    ("e_string_search", 1),
    ("f_bit_test", 4),
    ("h_linked_list", 8),
    ("sieve", 8),
    ("bubble", 7),
    ("intmm", 8),
];

/// `run_calls`: the call-dominated programs, sized the same way. Ackermann
/// must stay at scale 4 or below: scale 16 (n = 8) overflows the window
/// stack of the default 1 MiB machine.
const CALLS: [(&str, u32); 5] = [
    ("acker", 1),
    ("fib", 10),
    ("hanoi", 8),
    ("qsort", 30),
    ("puzzle", 20),
];

/// One program of a run workload.
#[derive(Debug, Clone)]
pub struct RunInput {
    /// Suite id.
    pub id: &'static str,
    /// The program.
    pub module: Module,
    /// Arguments to `main`.
    pub args: Vec<i32>,
}

fn scaled_input(id: &'static str, scale: u32) -> RunInput {
    let w = risc1_workloads::by_id_scaled(id, scale).expect("suite id");
    RunInput {
        id,
        module: w.module,
        args: w.args,
    }
}

/// The program set of a workload. `run_cold` and `serve_mixed` share the
/// whole suite at `small_args`.
pub fn run_inputs(w: Workload) -> Vec<RunInput> {
    match w {
        Workload::RunLoops => LOOPS.iter().map(|&(id, s)| scaled_input(id, s)).collect(),
        Workload::RunCalls => CALLS.iter().map(|&(id, s)| scaled_input(id, s)).collect(),
        Workload::RunCold | Workload::ServeMixed => risc1_workloads::all()
            .into_iter()
            .map(|w| RunInput {
                id: w.id,
                module: w.module,
                args: w.small_args,
            })
            .collect(),
    }
}

/// The long version of a suite program, as `run_loops` or `run_calls`
/// runs it: long enough that warm-up is a negligible share of its time.
pub fn steady_input(id: &'static str) -> RunInput {
    let scale = LOOPS
        .iter()
        .chain(CALLS.iter())
        .find(|(i, _)| *i == id)
        .map_or(1, |&(_, s)| s);
    scaled_input(id, scale)
}

/// Range of the single `main` argument of each serve job, around the
/// program's `small_args` and inside the bounds of its arrays.
const SERVE_ARG: [(&str, i32, i32); 11] = [
    ("e_string_search", 15, 35),
    ("f_bit_test", 200, 400),
    ("h_linked_list", 24, 56),
    ("sieve", 400, 800),
    ("bubble", 24, 56),
    ("qsort", 24, 56),
    ("intmm", 4, 8),
    ("puzzle", 4, 6),
    ("acker", 2, 4),
    ("fib", 9, 14),
    ("hanoi", 6, 10),
];

/// The argument range serve jobs draw from for suite program `id`.
pub fn serve_arg_range(id: &str) -> (i32, i32) {
    SERVE_ARG
        .iter()
        .find(|(i, _, _)| *i == id)
        .map(|&(_, lo, hi)| (lo, hi))
        .expect("every suite id has a serve argument range")
}

/// The kinds of serve job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Repeats an earlier job's spec, so the service answers by dedup.
    Resubmit,
    /// A fresh job under fault injection with recovery.
    Injected,
    /// A fresh clean job.
    Clean,
}

/// Every ten serve jobs hold two resubmits, three fresh injected jobs and
/// five fresh clean ones, in seeded order. Dealing kinds, programs and
/// arguments from decks rather than drawing each independently keeps the
/// work in a run the same from seed to seed, so the seed changes the order
/// and not the load.
const KINDS: [Kind; 10] = [
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::Injected,
    Kind::Injected,
    Kind::Injected,
    Kind::Clean,
    Kind::Clean,
    Kind::Clean,
    Kind::Clean,
    Kind::Clean,
];

/// Arguments a fresh job can take per program: evenly spaced over the
/// program's range, both ends included.
const ARG_LEVELS: usize = 4;

/// A seeded deck of `0..n`: each card comes once per shuffle.
#[derive(Debug, Clone)]
struct Deck {
    order: Vec<usize>,
    dealt: usize,
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck {
            order: (0..n).collect(),
            dealt: n,
        }
    }

    fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.dealt == self.order.len() {
            self.order = pass_order(rng, self.order.len());
            self.dealt = 0;
        }
        self.dealt += 1;
        self.order[self.dealt - 1]
    }
}

/// One serve job. Equal fields mean an identical submit, which the service
/// answers by dedup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInput {
    /// Index into the serve program list.
    pub program: usize,
    /// The argument to `main`.
    pub arg: i32,
    /// Injection seed, or `None` for a clean run.
    pub inject_seed: Option<u64>,
    /// Added to a clean job's fuel so every fresh clean job has its own
    /// dedup key; fuel only bounds a run, so results do not change.
    pub fuel_offset: u64,
    /// For a resubmit, the index of the fresh job whose spec it repeats.
    pub repeats: Option<usize>,
}

/// The seeded, unbounded sequence of serve jobs. Clients draw from one
/// stream in turn, so the sequence does not depend on which client sends
/// which job.
#[derive(Debug, Clone)]
pub struct JobStream {
    rng: Rng,
    ranges: Vec<(i32, i32)>,
    kinds: Deck,
    /// Card `program * ARG_LEVELS + level` of every fresh job.
    fresh: Deck,
    history: Vec<JobInput>,
}

impl JobStream {
    /// A stream over programs whose argument ranges are `ranges`.
    pub fn new(seed: u64, ranges: Vec<(i32, i32)>) -> JobStream {
        assert!(!ranges.is_empty(), "a job stream needs programs");
        let fresh = Deck::new(ranges.len() * ARG_LEVELS);
        JobStream {
            rng: Rng::new(seed),
            ranges,
            kinds: Deck::new(KINDS.len()),
            fresh,
            history: Vec::new(),
        }
    }

    /// Jobs handed out so far, by index.
    pub fn history(&self) -> &[JobInput] {
        &self.history
    }

    /// The next job and its index in the sequence.
    pub fn next_job(&mut self) -> (usize, JobInput) {
        let index = self.history.len();
        let kind = KINDS[self.kinds.deal(&mut self.rng)];
        let job = if index > 0 && kind == Kind::Resubmit {
            let j = self.rng.below(index as u64) as usize;
            let earlier = &self.history[j];
            JobInput {
                repeats: Some(earlier.repeats.unwrap_or(j)),
                ..earlier.clone()
            }
        } else {
            let card = self.fresh.deal(&mut self.rng);
            let (program, level) = (card / ARG_LEVELS, card % ARG_LEVELS);
            let (lo, hi) = self.ranges[program];
            let arg = lo + (hi - lo) * level as i32 / (ARG_LEVELS as i32 - 1);
            // The index in the high half keeps every fresh seed distinct.
            let inject_seed = (kind == Kind::Injected)
                .then(|| ((index as u64) << 32) | (self.rng.next_u64() & 0xffff_ffff));
            JobInput {
                program,
                arg,
                inject_seed,
                fuel_offset: if inject_seed.is_some() {
                    0
                } else {
                    index as u64
                },
                repeats: None,
            }
        };
        self.history.push(job.clone());
        (index, job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(seed: u64, n: usize) -> Vec<JobInput> {
        let mut s = JobStream::new(seed, vec![(1, 5), (10, 20), (7, 7)]);
        (0..n).map(|_| s.next_job().1).collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(jobs(7, 500), jobs(7, 500));
        assert_ne!(jobs(7, 500), jobs(8, 500));
        let orders = |seed| {
            let mut rng = Rng::new(seed);
            (0..50)
                .map(|_| pass_order(&mut rng, 11))
                .collect::<Vec<_>>()
        };
        assert_eq!(orders(3), orders(3));
        assert_ne!(orders(3), orders(4));
        for w in Workload::ALL {
            let a: Vec<_> = run_inputs(w).into_iter().map(|r| (r.id, r.args)).collect();
            let b: Vec<_> = run_inputs(w).into_iter().map(|r| (r.id, r.args)).collect();
            assert_eq!(a, b, "{}", w.name());
        }
    }

    #[test]
    fn the_mix_holds_every_kind_and_resubmits_repeat_fresh_specs() {
        let js = jobs(11, 1000);
        let resubmits = js.iter().filter(|j| j.repeats.is_some()).count();
        let injected = js
            .iter()
            .filter(|j| j.repeats.is_none() && j.inject_seed.is_some())
            .count();
        // The first job cannot repeat anything, so it runs fresh instead.
        assert!((199..=200).contains(&resubmits), "{resubmits}");
        assert_eq!(injected, 300);
        for j in js.iter().filter(|j| j.repeats.is_some()) {
            let orig = &js[j.repeats.unwrap()];
            assert!(orig.repeats.is_none());
            assert_eq!(
                (orig.program, orig.arg, orig.inject_seed, orig.fuel_offset),
                (j.program, j.arg, j.inject_seed, j.fuel_offset)
            );
        }
        let mut fresh: Vec<_> = js
            .iter()
            .filter(|j| j.repeats.is_none())
            .map(|j| (j.inject_seed, j.fuel_offset))
            .collect();
        let n = fresh.len();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), n, "fresh jobs never collide");
    }

    #[test]
    fn workload_names_round_trip_and_every_suite_id_has_a_range() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
        for w in risc1_workloads::all() {
            let (lo, hi) = serve_arg_range(w.id);
            assert!(lo <= w.small_args[0] && w.small_args[0] <= hi, "{}", w.id);
        }
    }
}
