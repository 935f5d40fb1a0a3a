//! `perfbench --workload warm|adhoc|write_mix --seed N --seconds S
//! --trace 0|1 --netd PATH [--validation-seed M] [--spans-dir DIR]`
//!
//! With `--trace 0`, drives a fresh `netd` for S seconds and prints the
//! end-to-end metrics; with `--trace 1`, also replays the op sequence
//! in-process, untraced and traced, and prints the per-layer metrics.
//! Either way every reply is checked, a human-readable report goes to
//! stdout, and the last stdout line is the JSON result. A reply that
//! fails or differs from the reference makes the exit code non-zero.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::check::{epoch_chain, outcomes_digest, AccuracyReference, Outcome};
use perfbench::replay::{replay, spans_tsv, Ops, ReplayRun, SpanTotals, LAYERS};
use perfbench::report::{mean, median, quantile, ratio, result_line, Metric};
use perfbench::stream::Stream;
use perfbench::wire::{self, WireRun};
use perfbench::{database_seed, mix, Workload};

const USAGE: &str = "usage: perfbench --workload warm|adhoc|write_mix --seed N --seconds S \
                     --trace 0|1 --netd PATH [--validation-seed M] [--spans-dir DIR]";

/// write_mix rotations a second the generated batches are sized for,
/// about 60 times the rate measured (a write clones and digests the
/// whole database). A run that outpaces them fails.
const WRITE_MIX_ROTATIONS_PER_SECOND: usize = 1_000;
/// On adhoc, past the checked prefix, one op in this many (chosen by
/// the validation seed) is checked against the reference service.
const ADHOC_CHECK_EVERY: u64 = 16;
/// The validation seed unless `--validation-seed` says otherwise (netd's
/// default `--seed`). It picks the adhoc replies checked against the
/// reference, and it seeds the accuracy sample and reference.
const DEFAULT_VALIDATION_SEED: u64 = 2020;
/// Leading ops whose replies are all checked against the reference,
/// on `adhoc` too. A database whose window reached them all prints a
/// digest of their replies, which repeats across runs of one seed
/// (`warm` and `adhoc` always reach them; a `write_mix` database's
/// window ends before).
const CHECKED_PREFIX: usize = 512;
/// At most this many distinct sampled answers are re-measured.
const ACCURACY_CAP: usize = 400;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    validation_seed: u64,
    netd: PathBuf,
    spans_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} expects a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag);
    let number = |flag: &str, v: Option<String>| -> Result<Option<u64>, String> {
        v.map(|v| v.parse().map_err(|_| format!("{flag} expects a non-negative integer")))
            .transpose()
    };
    let workload = take("--workload")
        .as_deref()
        .and_then(Workload::parse)
        .ok_or("--workload expects warm|adhoc|write_mix")?;
    let seed = number("--seed", take("--seed"))?.ok_or("--seed is required")?;
    let seconds = number("--seconds", take("--seconds"))?.ok_or("--seconds is required")?;
    let trace = match take("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace expects 0 or 1".to_string()),
    };
    let validation_seed =
        number("--validation-seed", take("--validation-seed"))?.unwrap_or(DEFAULT_VALIDATION_SEED);
    let netd = take("--netd").map(PathBuf::from).ok_or("--netd is required")?;
    let spans_dir =
        take("--spans-dir").map_or_else(|| PathBuf::from(".bench_build/spans"), PathBuf::from);
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args { workload, seed, seconds: seconds as f64, trace, validation_seed, netd, spans_dir })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Ops the in-process replays of a `--trace 1` run cover: fixed, so the
/// exact counts repeat across runs of one seed.
fn replay_ops(workload: Workload) -> usize {
    match workload {
        Workload::Warm => 20_000,
        // More distinct templates than the 1024-plan cap.
        Workload::Adhoc => 2_048,
        // 40 rotations, then the reads of the 41st: the replay ends on
        // reads, so the ν-cache it reports is not freshly invalidated.
        Workload::WriteMix => 40 * 11 + 10,
    }
}

/// Ops whose answers enter the `mean_abs_err` sample: a fixed prefix
/// of the sequence, so the sample does not depend on how far a run
/// gets (`warm`: the 10 strings; `write_mix`: six rotations, epochs
/// 0–5; `adhoc`: one op in 16 among the first 1024, chosen by the
/// validation seed).
fn accuracy_prefix(workload: Workload) -> usize {
    match workload {
        Workload::Warm => 10,
        Workload::Adhoc => 1_024,
        Workload::WriteMix => 6 * 11,
    }
}

/// Runs one benchmark invocation; `Ok(false)` means a check failed.
fn run(args: &Args) -> Result<bool, String> {
    let workload = args.workload;
    let replay_n = replay_ops(workload);
    let part_seconds = args.seconds / workload.databases() as f64;
    // The ops `write_mix`'s generated batches must cover.
    let capacity = (WRITE_MIX_ROTATIONS_PER_SECOND * 11 * part_seconds.ceil() as usize)
        .max(replay_n)
        .max(accuracy_prefix(workload));
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // The in-process replays of a `--trace 1` run go first, on the run
    // seed's own database (the first part), while this process's heap
    // is still small: run after the wire runs and their checks, the
    // traced `write_mix` replay's op mean read 7.7 ms, against 5.2 ms
    // when run first.
    let replays = args.trace.then(|| {
        let stream =
            Stream::new(workload, args.seed, &perfbench::database(workload, args.seed), capacity);
        let ops = Ops::Prefix(replay_n);
        let untraced = replay(workload, args.seed, &stream, &ops, false, false);
        let traced = replay(workload, args.seed, &stream, &ops, true, false);
        (untraced, traced)
    });
    let mut parts = Vec::new();
    for i in 0..workload.databases() {
        let seed = database_seed(args.seed, i);
        let stream = Stream::new(workload, seed, &perfbench::database(workload, seed), capacity);
        let wire = wire::run(&args.netd, workload, seed, &stream, part_seconds)?;
        parts.push((seed, stream, wire));
    }
    for (seed, stream, wire) in &parts {
        let verdict = check_wire(args.workload, *seed, args.validation_seed, stream, wire)?;
        for problem in verdict.problems.iter().take(20) {
            println!("MISMATCH database seed {seed}: {problem}");
        }
        let prefix: Vec<&Outcome> =
            wire.ops.iter().take_while(|op| op.k < CHECKED_PREFIX).map(|op| &op.outcome).collect();
        if prefix.len() == CHECKED_PREFIX {
            let digest = outcomes_digest(prefix);
            println!(
                "database seed {seed}: reply digest over ops 0..{CHECKED_PREFIX}: {digest:016x}"
            );
        }
        attempted += (wire.ops.len() + wire.probe.len()) as u64;
        failed += verdict.failed;
    }

    let metrics = if let Some((untraced, traced)) = replays {
        attempted += (untraced.ops.len() + traced.ops.len()) as u64;
        let (replay_failed, replay_problems) = compare_replays(&untraced, &traced);
        for problem in replay_problems.iter().take(20) {
            println!("MISMATCH {problem}");
        }
        failed += replay_failed;
        std::fs::create_dir_all(&args.spans_dir).map_err(|e| format!("create spans dir: {e}"))?;
        let path = args.spans_dir.join(format!("{}-{}.tsv", workload.name(), args.seed));
        std::fs::write(&path, spans_tsv(&traced.log)).map_err(|e| format!("write spans: {e}"))?;
        println!("spans: {}", path.display());
        per_layer(&parts[0].2, &untraced, &traced)
    } else {
        let wires: Vec<&WireRun> = parts.iter().map(|(_, _, wire)| wire).collect();
        end_to_end(args, capacity, &wires)?
    };
    println!(
        "error_frac {:.6} ({failed} of {attempted} ops failed or mismatched)",
        ratio(failed as f64, attempted as f64)
    );
    let correct = failed == 0;
    println!("{}", result_line(correct, attempted.max(1), failed, &metrics)?);
    Ok(correct)
}

/// What checking the wire replies found.
struct Verdict {
    /// Ops that failed or mismatched.
    failed: u64,
    problems: Vec<String>,
}

/// Compares the wire replies with an in-process reference service built
/// from the same seed: every read on `warm` and `write_mix`, the checked
/// prefix and a seeded sample on `adhoc`, and every write ack.
fn check_wire(
    workload: Workload,
    seed: u64,
    validation_seed: u64,
    stream: &Stream,
    wire: &WireRun,
) -> Result<Verdict, String> {
    let completed = wire.ops.last().map_or(0, |op| op.k + 1);
    let ops = match workload {
        Workload::Warm => Ops::Prefix(stream.warmup().len()),
        Workload::WriteMix => Ops::Prefix(completed),
        Workload::Adhoc => Ops::List(
            (0..completed)
                .filter(|&k| {
                    k < CHECKED_PREFIX
                        || mix(validation_seed, k as u64).is_multiple_of(ADHOC_CHECK_EVERY)
                })
                .collect(),
        ),
    };
    let reference = replay(workload, seed, stream, &ops, false, false);
    let expected: BTreeMap<usize, &Outcome> =
        reference.ops.iter().map(|op| (op.k, &op.outcome)).collect();

    let mut problems = Vec::new();
    let mut failed = 0u64;
    for op in &wire.ops {
        let reference_k = match workload {
            Workload::Warm => op.k % stream.warmup().len(),
            Workload::Adhoc | Workload::WriteMix => op.k,
        };
        let problem = match (&op.outcome, expected.get(&reference_k)) {
            (Outcome::Failed(msg), _) => Some(msg.clone()),
            (got, Some(want)) if got != *want => Some(format!("reply {got:?}, reference {want:?}")),
            _ => None,
        };
        if let Some(problem) = problem {
            failed += 1;
            problems.push(format!("op {}: {problem}", op.k));
        }
    }
    // Reads name the epoch of the last acknowledged write. On `warm` and
    // `adhoc` there are no timed writes, so every read names epoch 0.
    let outcomes: Vec<&Outcome> = wire.ops.iter().map(|op| &op.outcome).collect();
    let chain = epoch_chain(&outcomes, reference.initial);
    failed += chain.len() as u64;
    problems.extend(chain);

    // Each set-up daemon's probe acks against the same batches applied
    // in-process, from epoch 0.
    if !stream.probe().is_empty() {
        let service = perfbench::service(perfbench::database(workload, seed), seed);
        let want = stream
            .probe()
            .iter()
            .map(|batch| service.apply(batch).map(|o| Outcome::of_write(&o)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        for daemon in wire.probe.chunks(want.len()) {
            for (op, want) in daemon.iter().zip(&want) {
                if op.outcome != *want {
                    failed += 1;
                    problems.push(format!(
                        "probe write {}: ack {:?}, reference {want:?}",
                        op.k, op.outcome
                    ));
                }
            }
            let probe: Vec<&Outcome> = daemon.iter().map(|op| &op.outcome).collect();
            let chain = epoch_chain(&probe, reference.initial);
            failed += chain.len() as u64;
            problems.extend(chain);
        }
    }
    Ok(Verdict { failed, problems })
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// The median of the values that are not NaN (NaN if there are none).
fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.into_iter().filter(|v| !v.is_nan()).collect();
    if values.is_empty() {
        return f64::NAN;
    }
    median(&mut values)
}

/// Scales one sub-window's figures (read p50, read p95, read mean,
/// write p50, ops/s, CPU ms/op) to the nominal host speed: times are
/// divided by the host's `slowdown`, throughput is multiplied by it.
fn nominal(figures: [f64; 6], slowdown: f64) -> [f64; 6] {
    let mut scaled = figures.map(|v| v / slowdown);
    scaled[4] = figures[4] * slowdown;
    scaled
}

/// The end-to-end metrics of a `--trace 0` run. Every timed figure is
/// scaled to the nominal host speed (see `perfbench::host`) by the
/// slowdown measured around it; the figures as measured are printed
/// next to them.
fn end_to_end(
    args: &Args,
    stream_capacity: usize,
    wires: &[&WireRun],
) -> Result<Vec<Metric>, String> {
    // Per database: the six figures at the nominal speed, and as measured.
    let mut parts: Vec<[[f64; 6]; 2]> = Vec::new();
    let (mut n_reads, mut n_writes, mut n_subs) = (0, 0, 0);
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    for wire in wires {
        let mut subs: Vec<[[f64; 6]; 2]> = Vec::new();
        for (j, sub) in wire.subs.iter().enumerate() {
            let ops: Vec<&wire::WireOp> =
                wire.ops.iter().filter(|op| op.outcome.ok() && op.sub == Some(j)).collect();
            let mut reads: Vec<f64> =
                ops.iter().filter(|op| !op.write).map(|op| ms(op.nanos)).collect();
            let mut writes: Vec<f64> =
                ops.iter().filter(|op| op.write).map(|op| ms(op.nanos)).collect();
            if reads.is_empty() {
                continue;
            }
            n_reads += reads.len();
            n_writes += writes.len();
            let raw = [
                quantile(&mut reads, 0.50),
                quantile(&mut reads, 0.95),
                mean(reads.iter().copied()),
                if writes.is_empty() { f64::NAN } else { median(&mut writes) },
                ops.len() as f64 / sub.seconds,
                sub.cpu_seconds * 1e3 / ops.len() as f64,
            ];
            subs.push([nominal(raw, sub.slowdown), raw]);
        }
        if subs.len() * 2 < args.workload.subwindows() {
            return Err(format!(
                "only {} of {} sub-windows completed a read",
                subs.len(),
                args.workload.subwindows()
            ));
        }
        n_subs += subs.len();
        let mut part = [0, 1].map(|v| {
            let column = |i: usize| median_of(subs.iter().map(|s| s[v][i]));
            [column(0), column(1), column(2), column(3), column(4), column(5)]
        });
        if args.workload != Workload::WriteMix {
            let timed: Vec<&wire::WireOp> =
                wire.probe.iter().filter(|op| op.k > 0 && op.outcome.ok()).collect();
            n_writes += timed.len();
            let slowdown = |op: &wire::WireOp| op.sub.map_or(f64::NAN, |d| wire.setups[d].1);
            part[0][3] = median_of(timed.iter().map(|op| ms(op.nanos) / slowdown(op)));
            part[1][3] = median_of(timed.iter().map(|op| ms(op.nanos)));
        }
        parts.push(part);
        raw_setups.extend(wire.setups.iter().map(|&(setup, _)| setup));
        setups.extend(wire.setups.iter().map(|&(setup, slowdown)| setup / slowdown));
    }
    let across = |v: usize, i: usize| mean(parts.iter().map(|p| p[v][i]));
    let rss = mean(wires.iter().map(|w| w.rss_mib));
    let n_setups = setups.len();
    let (mae, covered) = accuracy(args, stream_capacity)?;
    let timed = [
        ("read_p50_ms", "ms"),
        ("read_p95_ms", "ms"),
        ("read_mean_ms", "ms"),
        ("write_p50_ms", "ms"),
        ("throughput_ops", "ops/s"),
        ("server_cpu_ms_per_op", "ms"),
    ];
    let mut metrics: Vec<Metric> = timed
        .iter()
        .enumerate()
        .map(|(i, &(name, unit))| Metric { name, value: across(0, i), unit })
        .collect();
    metrics.push(Metric { name: "server_rss_mb", value: rss, unit: "MiB" });
    metrics.push(Metric { name: "setup_s", value: median_of(setups), unit: "s" });
    metrics.push(Metric { name: "mean_abs_err", value: mae, unit: "nu" });
    let mut raw: Vec<f64> = (0..timed.len()).map(|i| across(1, i)).collect();
    raw.extend([rss, median_of(raw_setups), mae]);
    let slowdown = median_of(wires.iter().flat_map(|w| w.subs.iter().map(|s| s.slowdown)));
    println!(
        "{} seed={}: {n_reads} reads and {n_writes} writes{} over {} sub-windows on {} database(s); \
         setup over {n_setups} spawns; accuracy over {covered} answers (validation seed {}); \
         host slowdown {slowdown:.4} (median over sub-windows)",
        args.workload.name(),
        args.seed,
        if args.workload == Workload::WriteMix { "" } else { " (probe on the set-up daemons)" },
        n_subs,
        wires.len(),
        args.validation_seed,
    );
    println!("  {:<22} {:>14} {:>14}", "metric", "nominal speed", "as measured");
    for (m, raw) in metrics.iter().zip(&raw) {
        println!("  {:<22} {:>14.6} {:>14.6} {}", m.name, m.value, raw, m.unit);
    }
    Ok(metrics)
}

/// `mean_abs_err` and the answers it covers: the accuracy prefix of the
/// workload replayed on an in-process service built, like `netd`, from
/// the validation seed (database and sampling seed alike). Served
/// estimates are bit-identical to that service's (the reply check
/// proves it for the main seed), and one fixed seed keeps the sample
/// fixed: under one seed every dimension-1 group is estimated from the
/// same directions, so a per-run sample would be one random draw.
fn accuracy(args: &Args, capacity: usize) -> Result<(f64, usize), String> {
    let (workload, seed) = (args.workload, args.validation_seed);
    let stream = Stream::new(workload, seed, &perfbench::database(workload, seed), capacity);
    let prefix = accuracy_prefix(workload);
    let ops = match workload {
        Workload::Adhoc => Ops::List(
            (0..prefix)
                .filter(|&k| mix(seed, k as u64).is_multiple_of(ADHOC_CHECK_EVERY))
                .collect(),
        ),
        Workload::Warm | Workload::WriteMix => Ops::Prefix(prefix),
    };
    let run = replay(workload, seed, &stream, &ops, false, true);
    let answers: Vec<_> = run.kept.into_iter().flat_map(|(_, answers)| answers).collect();
    AccuracyReference::new(seed).mean_abs_err(&answers, seed, ACCURACY_CAP)
}

/// Checks the two replays agree reply for reply and count for count
/// (both run the ops in one fixed order).
fn compare_replays(untraced: &ReplayRun, traced: &ReplayRun) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    let mut failed = 0;
    for (a, b) in untraced.ops.iter().zip(&traced.ops) {
        if !a.outcome.ok() || a.outcome != b.outcome {
            failed += 1;
            problems.push(format!(
                "replay op {}: untraced {:?}, traced {:?}",
                a.k, a.outcome, b.outcome
            ));
        }
    }
    let (cu, ct) = (untraced.counts(), traced.counts());
    println!("exact counts over {} replayed ops (untraced | traced):", traced.ops.len());
    for ((name, u), (_, t)) in cu.iter().zip(&ct) {
        println!("  {name:<18} {u:>12} | {t:>12}");
        if u != t {
            failed += 1;
            problems.push(format!("count {name} differs between identical replays: {u} vs {t}"));
        }
    }
    (failed, problems)
}

/// The per-layer metrics of a `--trace 1` run.
fn per_layer(wire: &WireRun, untraced: &ReplayRun, traced: &ReplayRun) -> Vec<Metric> {
    let mut totals = SpanTotals::default();
    traced.log.fold(&mut totals);
    let reads: Vec<_> = traced.ops.iter().filter_map(|op| op.read).collect();
    let writes: Vec<_> = traced.ops.iter().filter_map(|op| op.write).collect();
    let builds: Vec<u64> = traced.ops.iter().filter_map(|op| op.plan_candidates).collect();
    let (n_reads, n_writes, n_builds) =
        (reads.len() as f64, writes.len() as f64, builds.len() as f64);
    let sum =
        |f: &dyn Fn(&perfbench::replay::ReadStat) -> u64| reads.iter().map(f).sum::<u64>() as f64;
    let us = |names: &[&str], per: f64| {
        ratio(names.iter().map(|n| totals.total(n)).sum::<u64>() as f64 / 1e3, per)
    };
    // `wire` ran the replayed database's sequence; compare the ops both
    // reached (later adhoc ops hit more asymptotic keys and cost less).
    let reached = wire.ops.last().map_or(0, |op| op.k + 1).min(traced.ops.len());
    let read_mean_us = |ops: &[perfbench::replay::OpStat]| {
        mean(
            ops.iter()
                .filter(|op| op.k < reached && op.read.is_some())
                .map(|op| op.nanos as f64 / 1e3),
        )
    };
    let wire_read_us = mean(
        wire.ops
            .iter()
            .filter(|op| op.k < reached && !op.write && op.outcome.ok())
            .map(|op| op.nanos as f64 / 1e3),
    );
    let untraced_op_us = mean(untraced.ops.iter().map(|op| op.nanos as f64 / 1e3));
    let (op_count, op_total) = totals.by_name.get("op").copied().unwrap_or_default();
    let op_us = ratio(op_total as f64 / 1e3, op_count as f64);
    let layer_us = |layer: &str| {
        ratio(totals.layer.get(layer).copied().unwrap_or(0) as f64 / 1e3, op_count as f64)
    };
    let attributed: f64 =
        LAYERS.iter().filter(|l| **l != "unattributed").map(|l| layer_us(l)).sum();

    let mut m = vec![
        ("net.request_codec_us", us(&["net.encode_request", "net.decode_request"], n_reads), "us"),
        ("net.reply_codec_us", us(&["net.encode_reply", "net.decode_reply"], n_reads), "us"),
        ("net.reply_bytes", ratio(sum(&|r| r.reply_bytes), n_reads), "count"),
        ("net.residual_us", wire_read_us - read_mean_us(&untraced.ops), "us"),
        ("sql.fingerprint_us", us(&["stage.fingerprint"], n_reads), "us"),
        ("sql.compile_us", us(&["sql.compile"], n_builds), "us"),
        ("serve.admission_wait_us", us(&["stage.admission_wait"], n_reads), "us"),
        ("serve.plan_lookup_us", us(&["stage.plan_lookup"], n_reads), "us"),
        ("serve.plan_hit_ratio", ratio(sum(&|r| u64::from(r.plan_cached)), n_reads), "ratio"),
        ("serve.plan_evictions_per_op", ratio(traced.plan_evictions as f64, n_reads), "count"),
        ("serve.nu_hit_ratio", ratio(sum(&|r| r.cache_hits), sum(&|r| r.groups)), "ratio"),
        ("serve.nu_resident_mb", traced.nu_resident_bytes as f64 / (1 << 20) as f64, "MiB"),
        ("serve.write_apply_us", us(&["stage.write_apply"], n_writes), "us"),
        ("serve.digest_us", us(&["serve.digest"], n_writes), "us"),
        ("serve.invalidate_us", us(&["stage.invalidate"], n_writes), "us"),
        (
            "serve.invalidated_keys_per_write",
            ratio(writes.iter().map(|w| w.invalidated_keys).sum::<u64>() as f64, n_writes),
            "count",
        ),
        (
            "serve.plans_invalidated_per_write",
            ratio(writes.iter().map(|w| w.plans_invalidated).sum::<u64>() as f64, n_writes),
            "count",
        ),
        ("types.db_clone_us", us(&["types.db_clone"], n_writes), "us"),
        ("types.apply_batch_us", us(&["types.apply_batch"], n_writes), "us"),
        ("engine.cq_us", us(&["engine.cq"], n_builds), "us"),
        ("engine.candidates_per_plan", ratio(builds.iter().sum::<u64>() as f64, n_builds), "count"),
        ("core.prepare_us", us(&["core.prepare_batch"], n_builds), "us"),
        ("core.dedup_ratio", ratio(sum(&|r| r.groups), sum(&|r| r.uncertain)), "ratio"),
        ("core.nu_lookup_us", us(&["stage.nu_lookup"], n_reads), "us"),
        ("core.measure_us", us(&["stage.measure"], n_reads), "us"),
        ("core.rehydrate_us", us(&["stage.rehydrate"], n_reads), "us"),
        ("core.groups_measured_per_op", ratio(sum(&|r| r.measured), n_reads), "count"),
        ("core.directions_per_op", ratio(sum(&|r| r.directions), n_reads), "count"),
        (
            "core.ns_per_direction",
            ratio(totals.total("stage.measure") as f64, sum(&|r| r.directions)),
            "ns",
        ),
        ("core.sampled_share", ratio(sum(&|r| r.sampled), sum(&|r| r.measured)), "ratio"),
        ("ledger.unattributed_us", op_us - attributed, "us"),
        ("trace.overhead_pct", ratio(op_us - untraced_op_us, untraced_op_us) * 100.0, "%"),
        ("ledger.op_us", op_us, "us"),
    ];
    for (layer, name) in [
        ("net", "layer.net_us"),
        ("serve", "layer.serve_us"),
        ("sql", "layer.sql_us"),
        ("engine", "layer.engine_us"),
        ("core", "layer.core_us"),
        ("types", "layer.types_us"),
    ] {
        m.push((name, layer_us(layer), "us"));
    }

    println!(
        "ledger over {op_count} traced ops ({} reads, {} writes, {} plan builds): mean op {op_us:.3} us",
        reads.len(),
        writes.len(),
        builds.len()
    );
    for layer in LAYERS {
        let v = if layer == "unattributed" { op_us - attributed } else { layer_us(layer) };
        println!("  {layer:<13} {v:>12.3} us  {:>6.2}%", ratio(v, op_us) * 100.0);
    }
    println!("  {:<13} {op_us:>12.3} us", "= op mean");
    println!("wire read mean {wire_read_us:.3} us; untraced replay op mean {untraced_op_us:.3} us");
    m.into_iter()
        .map(|(name, value, unit)| {
            println!("  {name:<34} {value:>14.4} {unit}");
            Metric { name, value, unit }
        })
        .collect()
}
