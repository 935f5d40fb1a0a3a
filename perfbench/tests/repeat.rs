//! The traced replay's work counts repeat exactly across runs of one
//! seed, at a reduced size. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::check::Outcome;
use perfbench::replay::{replay, Ops, ReplayRun};
use perfbench::stream::Stream;
use perfbench::Workload;

fn run(workload: Workload, seed: u64, ops: usize, traced: bool) -> ReplayRun {
    let stream = Stream::new(workload, seed, &perfbench::database(workload, seed), ops);
    replay(workload, seed, &stream, &Ops::Prefix(ops), traced, false)
}

fn outcomes(run: &ReplayRun) -> Vec<&Outcome> {
    run.ops.iter().map(|op| &op.outcome).collect()
}

#[test]
fn counts_repeat_exactly() {
    // write_mix: two rotations of 10 reads and a write, then the reads
    // of the third.
    for (workload, ops) in [(Workload::Warm, 400), (Workload::Adhoc, 120), (Workload::WriteMix, 32)]
    {
        let (a, b) = (run(workload, 7, ops, false), run(workload, 7, ops, true));
        assert_eq!(a.counts(), b.counts(), "{}", workload.name());
        assert_eq!(outcomes(&a), outcomes(&b), "{}", workload.name());
        assert!(a.ops.iter().all(|op| op.outcome.ok()), "{}", workload.name());
    }
}

#[test]
fn write_mix_invalidates_and_rebuilds() {
    let counts = run(Workload::WriteMix, 7, 32, false).counts();
    let get = |name: &str| counts.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    assert!(get("plans_invalidated") > Some(0), "{counts:?}");
    assert!(get("plan_misses") > Some(0), "{counts:?}");
}

#[test]
fn adhoc_never_hits_a_plan_and_draws_directions() {
    let counts = run(Workload::Adhoc, 7, 120, false).counts();
    assert_eq!(counts[0], ("plan_hits", 0), "{counts:?}");
    assert!(counts[4].1 > 0, "adhoc must draw directions: {counts:?}");
}
