//! The repository's benchmark: drives the real `netd` daemon over
//! loopback on three workloads, checks every reply against an
//! in-process reference service, and replays the same op sequences
//! in-process under span tracing to split the cost by layer.
//!
//! See `perfbench/README.md` for why each workload exists, what each
//! metric means, and the run-to-run spreads behind the bounds in
//! `BENCHMARK.json`.

#![forbid(unsafe_code)]

pub mod check;
pub mod host;
pub mod replay;
pub mod report;
pub mod stream;
pub mod wire;

use qarith_core::afpras::{AfprasOptions, SampleCount};
use qarith_core::{BatchOptions, MeasureOptions, MethodChoice};
use qarith_datagen::WorkloadScale;
use qarith_serve::{QueryService, ServeConfig};
use qarith_types::Database;

/// The ε `netd` serves by default.
pub const EPSILON: f64 = 0.02;

/// One traffic mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Repeat dashboard reads: every request hits both caches.
    Warm,
    /// Threshold sweeps: every request is a new template.
    Adhoc,
    /// Reads interleaved with write batches.
    WriteMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Warm, Workload::Adhoc, Workload::WriteMix];

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Warm => "warm",
            Workload::Adhoc => "adhoc",
            Workload::WriteMix => "write_mix",
        }
    }

    /// The database scale `netd` generates for this workload.
    pub fn scale(self) -> WorkloadScale {
        match self {
            Workload::Warm | Workload::WriteMix => WorkloadScale::Medium,
            Workload::Adhoc => WorkloadScale::Small,
        }
    }

    /// Databases one run spreads its window over, each behind its own
    /// fresh `netd`. Every template reads the first 25 candidates of its
    /// join, so on `adhoc` and `write_mix`, whose cost is in building
    /// plans and measuring groups, one database makes a run's cost that
    /// database's draw (directions per read differ 2.3× between
    /// `write_mix` seeds); several databases a run average the draw
    /// down. `write_mix`, whose read p50 differs by up to 40% between
    /// databases, needs eight, and so does `adhoc`, whose read p95 and
    /// peak RSS on four spread 16% and 18% over six seeds (5% and 9%
    /// on eight). `warm` only looks groups up, but one `netd` a run
    /// left its read p95 differing by a third between runs of one seed;
    /// four processes average that out.
    pub fn databases(self) -> usize {
        match self {
            Workload::Warm => 4,
            Workload::Adhoc | Workload::WriteMix => 8,
        }
    }

    /// `netd` spawns per database; `setup_s` is their median. On `warm`
    /// and `adhoc` all but the last also take the write probe: 20
    /// daemons a run on `warm`, 80 on `adhoc`. `write_mix` has no probe,
    /// and its eight databases give 48 spawns a run with six each.
    pub fn setup_spawns(self) -> usize {
        match self {
            Workload::Adhoc => 11,
            Workload::Warm | Workload::WriteMix => 6,
        }
    }

    /// Ops at the start of the sequence sent untimed, after the warm-up
    /// pass and before the window. On `write_mix` the first rotations
    /// still hit the caches the warm-up pass filled, and their reads
    /// cost about a third less than later ones, so a window that
    /// included them would read slower as the program got faster and
    /// reached further past them. Five rotations reach the steady
    /// state of invalidation and rebuilds.
    pub fn ramp_ops(self) -> usize {
        match self {
            Workload::Warm | Workload::Adhoc => 0,
            Workload::WriteMix => 5 * 11,
        }
    }

    /// Equal sub-windows each database's timed window is cut into. Each
    /// end-to-end metric is the median of its per-sub-window values, so
    /// a burst of outside load moves a few sub-windows, not the run.
    /// Each holds more than 200 reads (ten beyond its p95): an `adhoc`
    /// database's window (an eighth of the run) is cut in five, and a
    /// `write_mix` database's is one sub-window, its eight databases
    /// playing the sub-windows' part.
    pub fn subwindows(self) -> usize {
        match self {
            Workload::Warm => 10,
            Workload::Adhoc => 5,
            Workload::WriteMix => 1,
        }
    }
}

/// The seed of database `i` of a run under `seed`: the run seed itself
/// first, then seeds derived from it.
pub fn database_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        seed
    } else {
        mix(seed, i as u64)
    }
}

/// The measurement options `netd` builds for `--seed seed` at its
/// default ε (see `crates/net/src/bin/netd.rs`): forced AFPRAS, the
/// paper's `m = ⌈ε⁻²⌉`, the suite's sampling-seed derivation, one
/// measuring thread per request. The reply check compares every wire
/// answer bit for bit with a service built from these options, so a
/// drift between the two fails the run instead of passing unnoticed.
pub fn serving_options(seed: u64) -> MeasureOptions {
    MeasureOptions {
        method: MethodChoice::Afpras,
        afpras: AfprasOptions {
            epsilon: EPSILON,
            samples: SampleCount::Paper,
            seed: seed ^ 0xF1616,
            ..AfprasOptions::default()
        },
        batch: BatchOptions { threads: 1, dedup: true },
        ..MeasureOptions::default()
    }
}

/// The workload's database, as `netd --scale <scale> --seed <seed>`
/// generates it.
pub fn database(workload: Workload, seed: u64) -> Database {
    qarith_datagen::sales::sales_database(&workload.scale().params(), seed)
}

/// A service configured exactly as `netd` configures its own.
pub fn service(db: Database, seed: u64) -> QueryService {
    QueryService::new(db, ServeConfig { options: serving_options(seed), ..ServeConfig::default() })
}

/// SplitMix64: the benchmark's own seeded generator for query literals
/// and sample selection (the workload crates keep theirs private).
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// A stable hash of `(seed, index)`, for seeded per-op decisions that
/// must not depend on how many ops a run reaches.
pub fn mix(seed: u64, index: u64) -> u64 {
    SplitMix::new(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}
