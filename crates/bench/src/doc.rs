//! The one bench document: what every gated run writes, and the one
//! checker CI compares a fresh run against its checked-in baseline
//! with.
//!
//! Every run kind — the workload suite (`suite`), the serving load
//! in-process (`serve`), over the wire (`wire`) and under writes
//! (`mutate`), and the sampling kernel (`kernel`) — reports one
//! [`BenchDoc`]:
//!
//! ```text
//! { schema, schema_version, kind,   // "qarith-bench-suite", 5, the run kind
//!   config,    // what was run: must match exactly
//!   pinned,    // digests and certainty bits: must match bit for bit
//!   counters,  // deterministic work counts: must match exactly
//!   timings,   // { name: { value, better, tolerance, floor } }
//!   info }     // everything else: never gated
//! ```
//!
//! Each section has one rule, applied by [`check`] the same way to
//! every kind, so a value's section is its gating policy. A block
//! present on one side only fails; a config mismatch fails fast (the
//! two runs measured different things, so nothing else is compared).
//! Each timing carries its own bound: a lower-is-better value may rise
//! to `max(base·(1 + tolerance), base + floor)`, a higher-is-better one
//! fall to `min(base / (1 + tolerance), base − floor)`. Only the
//! baseline's bound gates: a bound changes by editing its baseline, and
//! the bound a fresh run states (the bins' `*_TOLERANCE` constants)
//! only seeds a newly recorded baseline.

use crate::json::{parse, Json};

/// The schema identifier stored in every document.
pub const SCHEMA_NAME: &str = "qarith-bench-suite";

/// Version of the document shape. The parser accepts exactly this
/// version: a document of another version is converted or re-recorded,
/// never read through a compatibility branch.
pub const SCHEMA_VERSION: u64 = 5;

/// Which way a timing improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Latencies and wall times.
    Lower,
    /// Throughputs.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One gated timing and the bound it is gated by.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// The measured value.
    pub value: f64,
    /// Which way it improves.
    pub better: Better,
    /// Relative slack against the baseline value.
    pub tolerance: f64,
    /// Absolute slack, in the value's unit (0 for none).
    pub floor: f64,
}

impl Timing {
    /// A lower-is-better timing.
    pub fn lower(value: f64, tolerance: f64, floor: f64) -> Timing {
        Timing { value, better: Better::Lower, tolerance, floor }
    }

    /// A higher-is-better timing with no absolute slack.
    pub fn higher(value: f64, tolerance: f64) -> Timing {
        Timing { value, better: Better::Higher, tolerance, floor: 0.0 }
    }
}

/// One run's document. `config`, `pinned`, `counters` and `info` are
/// JSON objects; [`BenchDoc::from_json`] rejects anything else.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchDoc {
    /// `"suite"`, `"serve"`, `"wire"`, `"mutate"` or `"kernel"`.
    pub kind: String,
    /// What was run.
    pub config: Json,
    /// Bit-exact results.
    pub pinned: Json,
    /// Exact work counts (non-negative integers only).
    pub counters: Json,
    /// Gated timings, by name.
    pub timings: Vec<(String, Timing)>,
    /// Never gated.
    pub info: Json,
}

impl BenchDoc {
    /// Serializes to the pretty-printed document.
    pub fn to_json(&self) -> String {
        let timings = self.timings.iter().map(|(name, t)| {
            let bound = Json::obj([
                ("value", Json::Num(t.value)),
                ("better", Json::str(t.better.name())),
                ("tolerance", Json::Num(t.tolerance)),
                ("floor", Json::Num(t.floor)),
            ]);
            (name.clone(), bound)
        });
        Json::obj([
            ("schema", Json::str(SCHEMA_NAME)),
            ("schema_version", Json::num_u64(SCHEMA_VERSION)),
            ("kind", Json::str(&self.kind)),
            ("config", self.config.clone()),
            ("pinned", self.pinned.clone()),
            ("counters", self.counters.clone()),
            ("timings", Json::obj(timings)),
            ("info", self.info.clone()),
        ])
        .pretty()
    }

    /// Parses a document written by [`BenchDoc::to_json`].
    pub fn from_json(text: &str) -> Result<BenchDoc, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing field `{key}`"));
        let object = |key: &str| match field(key)? {
            v @ Json::Obj(_) => Ok(v.clone()),
            _ => Err(format!("`{key}` is not an object")),
        };
        if field("schema")?.as_str() != Some(SCHEMA_NAME) {
            return Err(format!("not a `{SCHEMA_NAME}` document"));
        }
        let version = field("schema_version")?.as_u64();
        if version != Some(SCHEMA_VERSION) {
            return Err(format!(
                "schema version {version:?}, this build reads only version {SCHEMA_VERSION}"
            ));
        }
        let counters = object("counters")?;
        if let Some(path) = first_non_counter(&counters, "counters") {
            return Err(format!("`{path}` is not a non-negative integer"));
        }
        let Json::Obj(rows) = field("timings")? else {
            return Err("`timings` is not an object".to_string());
        };
        let timings = rows
            .iter()
            .map(|(name, t)| {
                let num = |key: &str| {
                    t.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("timing `{name}` lacks `{key}`"))
                };
                let better = match t.get("better").and_then(Json::as_str) {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    _ => return Err(format!("timing `{name}`: `better` is not lower|higher")),
                };
                let timing = Timing {
                    value: num("value")?,
                    better,
                    tolerance: num("tolerance")?,
                    floor: num("floor")?,
                };
                Ok((name.clone(), timing))
            })
            .collect::<Result<_, String>>()?;
        Ok(BenchDoc {
            kind: field("kind")?.as_str().ok_or("`kind` is not a string")?.to_string(),
            config: object("config")?,
            pinned: object("pinned")?,
            counters,
            timings,
            info: object("info")?,
        })
    }

    /// The named timing, if present.
    pub fn timing(&self, name: &str) -> Option<&Timing> {
        self.timings.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }
}

/// A counter block (`as_pairs` names and values) as a JSON object.
pub(crate) fn counters(pairs: &[(&str, u64)]) -> Json {
    Json::Obj(pairs.iter().map(|(k, v)| ((*k).to_string(), Json::num_u64(*v))).collect())
}

/// The path of the first leaf under `v` that is not a counter.
fn first_non_counter(v: &Json, path: &str) -> Option<String> {
    match v {
        Json::Obj(pairs) => {
            pairs.iter().find_map(|(k, v)| first_non_counter(v, &format!("{path}.{k}")))
        }
        v if v.as_u64().is_some() => None,
        _ => Some(path.to_string()),
    }
}

/// Compares a fresh document against its baseline. Returns every
/// failure (empty ⇒ the gate passes); the rules are the module docs'.
pub fn check(fresh: &BenchDoc, baseline: &BenchDoc) -> Vec<String> {
    let mut failures = Vec::new();
    if fresh.kind != baseline.kind {
        failures.push(format!("kind is `{}`, baseline is `{}`", fresh.kind, baseline.kind));
        return failures;
    }
    diff("config mismatch", "config", &fresh.config, &baseline.config, &mut failures);
    if !failures.is_empty() {
        return failures;
    }
    diff("pinned drift", "pinned", &fresh.pinned, &baseline.pinned, &mut failures);
    diff("counter changed", "counters", &fresh.counters, &baseline.counters, &mut failures);
    for (name, base) in &baseline.timings {
        let Some(now) = fresh.timing(name) else {
            failures.push(format!("timing `{name}` present in the baseline only"));
            continue;
        };
        let (allowed, regressed) = match base.better {
            Better::Lower => {
                let allowed = (base.value * (1.0 + base.tolerance)).max(base.value + base.floor);
                (allowed, now.value > allowed)
            }
            Better::Higher => {
                let allowed = (base.value / (1.0 + base.tolerance)).min(base.value - base.floor);
                (allowed, now.value < allowed)
            }
        };
        if regressed {
            failures.push(format!(
                "timing `{name}` regressed: {} vs baseline {} ({} is better, bound {allowed})",
                now.value,
                base.value,
                base.better.name()
            ));
        }
    }
    for (name, _) in &fresh.timings {
        if baseline.timing(name).is_none() {
            failures.push(format!("timing `{name}` present in the fresh run only"));
        }
    }
    failures
}

/// Exact structural comparison: numbers by bit pattern, objects key by
/// key (a key on one side only fails), arrays element by element with
/// only the first differing element reported.
fn diff(what: &str, path: &str, fresh: &Json, base: &Json, failures: &mut Vec<String>) {
    match (fresh, base) {
        (Json::Obj(f), Json::Obj(b)) => {
            for (key, bv) in b {
                let sub = format!("{path}.{key}");
                match fresh.get(key) {
                    Some(fv) => diff(what, &sub, fv, bv, failures),
                    None => failures.push(format!("{what}: `{sub}` present in the baseline only")),
                }
            }
            for (key, _) in f {
                if base.get(key).is_none() {
                    failures.push(format!("{what}: `{path}.{key}` present in the fresh run only"));
                }
            }
        }
        (Json::Arr(f), Json::Arr(b)) if f.len() == b.len() => {
            let before = failures.len();
            for (i, (fv, bv)) in f.iter().zip(b).enumerate() {
                diff(what, &format!("{path}[{i}]"), fv, bv, failures);
                if failures.len() > before {
                    break;
                }
            }
        }
        (Json::Num(f), Json::Num(b)) if f.to_bits() == b.to_bits() => {}
        (f, b) if !matches!(f, Json::Num(_)) && f == b => {}
        (f, b) => {
            failures.push(format!("{what}: `{path}` is {} vs baseline {}", brief(f), brief(b)));
        }
    }
}

/// A one-line rendering of a value for failure messages.
fn brief(v: &Json) -> String {
    match v {
        Json::Num(n) => n.to_string(),
        Json::Str(s) => s.clone(),
        Json::Arr(items) => format!("an array of {}", items.len()),
        other => other.pretty().split_whitespace().collect::<Vec<_>>().join(" "),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small document of the serve kind's shape, carrying one value
    /// of every rule.
    fn doc() -> BenchDoc {
        BenchDoc {
            kind: "serve".into(),
            config: Json::obj([("scale", Json::str("tiny")), ("clients", Json::num_u64(4))]),
            pinned: Json::obj([
                ("certainty_digest", Json::str("0xff7405cab227c182")),
                ("certainties", Json::Arr(vec![Json::Num(1.0), Json::Num(0.5), Json::Num(0.25)])),
            ]),
            counters: Json::obj([(
                "service",
                Json::obj([
                    ("plan_hits", Json::num_u64(27)),
                    ("plan_invalidations", Json::num_u64(54)),
                ]),
            )]),
            timings: vec![
                ("p95".into(), Timing::lower(0.004, 0.15, 0.001)),
                ("directions_per_sec".into(), Timing::higher(1e8, 0.25)),
            ],
            info: Json::obj([("qps", Json::Num(240.0))]),
        }
    }

    fn failing(fresh: &BenchDoc, needle: &str) {
        let failures = check(fresh, &doc());
        assert!(failures.iter().any(|f| f.contains(needle)), "wanted `{needle}`: {failures:?}");
    }

    fn section<'a>(d: &'a mut BenchDoc, which: &str) -> &'a mut Vec<(String, Json)> {
        let v = match which {
            "config" => &mut d.config,
            "pinned" => &mut d.pinned,
            "counters" => &mut d.counters,
            _ => &mut d.info,
        };
        let Json::Obj(pairs) = v else { panic!("sections are objects") };
        pairs
    }

    #[test]
    fn documents_round_trip_bit_for_bit() {
        let mut d = doc();
        d.timings[0].1.value = 0.1 + 0.2;
        let back = BenchDoc::from_json(&d.to_json()).expect("parse own output");
        assert_eq!(back, d);
        assert_eq!(check(&back, &d), Vec::<String>::new());
    }

    #[test]
    fn a_one_bit_certainty_drift_fails() {
        let mut fresh = doc();
        section(&mut fresh, "pinned")[1].1 = Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(f64::from_bits(0.5f64.to_bits() + 1)),
            Json::Num(0.25),
        ]);
        failing(&fresh, "pinned drift: `pinned.certainties[1]`");
    }

    #[test]
    fn a_digest_change_fails() {
        let mut fresh = doc();
        section(&mut fresh, "pinned")[0].1 = Json::str("0xdeadbeefdeadbeef");
        failing(&fresh, "pinned drift: `pinned.certainty_digest` is 0xdeadbeefdeadbeef");
    }

    #[test]
    fn a_config_mismatch_fails_fast() {
        let mut fresh = doc();
        section(&mut fresh, "config")[1].1 = Json::num_u64(16);
        section(&mut fresh, "pinned")[0].1 = Json::str("0xdead");
        let failures = check(&fresh, &doc());
        assert_eq!(failures, vec!["config mismatch: `config.clients` is 16 vs baseline 4"]);
        let mut other = doc();
        other.kind = "wire".into();
        assert_eq!(check(&other, &doc()), vec!["kind is `wire`, baseline is `serve`"]);
    }

    #[test]
    fn a_counter_change_fails() {
        let mut fresh = doc();
        section(&mut fresh, "counters")[0].1 = Json::obj([
            ("plan_hits", Json::num_u64(27)),
            ("plan_invalidations", Json::num_u64(55)),
        ]);
        failing(&fresh, "counter changed: `counters.service.plan_invalidations` is 55");
    }

    #[test]
    fn lower_is_better_timings_fail_past_their_bound() {
        let mut fresh = doc();
        // Past the 15 % tolerance (4.6 ms) but inside the 1 ms floor (5 ms).
        fresh.timings[0].1.value = 0.0047;
        assert_eq!(check(&fresh, &doc()), Vec::<String>::new());
        fresh.timings[0].1.value = 0.0051;
        failing(&fresh, "timing `p95` regressed");
    }

    #[test]
    fn higher_is_better_timings_fail_past_their_bound() {
        let mut fresh = doc();
        fresh.timings[1].1.value = 1e8 / 1.2;
        assert_eq!(check(&fresh, &doc()), Vec::<String>::new());
        fresh.timings[1].1.value = 1e8 / 1.3;
        failing(&fresh, "timing `directions_per_sec` regressed");
    }

    #[test]
    fn a_p95_inside_the_floor_passes() {
        let mut base = doc();
        base.timings[0].1.value = 2e-5;
        let mut fresh = base.clone();
        fresh.timings[0].1.value = 9e-4; // 45×, but within 1 ms of the baseline
        assert_eq!(check(&fresh, &base), Vec::<String>::new());
        fresh.timings[0].1.value = 1.1e-3;
        assert!(check(&fresh, &base)[0].contains("regressed"));
    }

    #[test]
    fn blocks_present_on_one_side_fail() {
        let mut fresh = doc();
        section(&mut fresh, "counters").push(("net".into(), Json::obj([] as [(&str, Json); 0])));
        failing(&fresh, "`counters.net` present in the fresh run only");
        let mut fresh = doc();
        section(&mut fresh, "pinned").remove(1);
        failing(&fresh, "`pinned.certainties` present in the baseline only");
        let mut fresh = doc();
        fresh.timings.remove(0);
        failing(&fresh, "timing `p95` present in the baseline only");
    }

    #[test]
    fn info_is_never_gated() {
        let mut fresh = doc();
        section(&mut fresh, "info").clear();
        assert_eq!(check(&fresh, &doc()), Vec::<String>::new());
    }

    #[test]
    fn the_parser_reads_only_this_version() {
        let text = doc().to_json();
        let older = text.replace("\"schema_version\": 5", "\"schema_version\": 4");
        assert!(BenchDoc::from_json(&older).unwrap_err().contains("reads only version 5"));
        let fractional = text.replace("\"plan_hits\": 27", "\"plan_hits\": 27.5");
        let err = BenchDoc::from_json(&fractional).unwrap_err();
        assert!(err.contains("counters.service.plan_hits"), "{err}");
        let sideways = text.replace("\"better\": \"lower\"", "\"better\": \"sideways\"");
        assert!(BenchDoc::from_json(&sideways).unwrap_err().contains("lower|higher"));
    }
}
