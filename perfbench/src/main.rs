//! `perfbench` — the monitoring stack's benchmark.
//!
//! ```text
//! perfbench --workload grid-steady|grid-churn|udp-query --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! An untraced run prints every end-to-end metric; a traced run (`--trace
//! 1`) runs the workload once untraced and once with the wrapper's timing
//! on, and prints the per-layer metrics plus the tracing overhead. Both
//! check the program's outputs. The last stdout line is the result
//! object; the line before it is a report with every figure, the run
//! context and each gate. See README.md for the workloads.

mod churn;
mod fresh;
mod out;
mod probe;
mod sim;
mod steady;
mod sys;
mod trace;
mod udp;

use std::path::{Path, PathBuf};

use out::{Gate, Outcome};

#[global_allocator]
pub static ALLOC: sys::Counting = sys::Counting::new();

/// Seed used when none is given, and the seed kept out of tuning so a
/// claim can be re-checked on inputs nobody tuned against.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 20_261_017;

pub const WORKLOADS: [&str; 3] = ["grid-steady", "grid-churn", "udp-query"];

/// The gated CPU cost, whose traced/untraced ratio is the tracing
/// overhead.
const CPU_METRIC: &str = "cpu_ms_per_op";

#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Test size: the same code paths on tiny inputs. Set by the tests
    /// only; the command line always runs the benchmark size.
    pub tiny: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 10,
        traced: false,
        tiny: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("bad {flag} `{val}`"))
        };
        match flag {
            "--workload" => {
                a.workload = WORKLOADS
                    .iter()
                    .find(|w| *w == val)
                    .ok_or_else(|| format!("unknown workload `{val}` ({})", WORKLOADS.join("|")))?;
            }
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--trace" => a.traced = num()? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
        i += 2;
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Run one workload once.
pub fn run_once(a: &Args, traced: bool) -> Outcome {
    match (a.workload, a.tiny) {
        ("grid-steady", false) => steady::run(&steady::Steady::full(a.seconds), a.seed, traced),
        ("grid-steady", true) => steady::run(&steady::Steady::tiny(), a.seed, traced),
        ("grid-churn", false) => churn::run(&churn::Churn::full(a.seconds), a.seed, traced),
        ("grid-churn", true) => churn::run(&churn::Churn::tiny(), a.seed, traced),
        (_, false) => udp::run(&udp::Udp::full(a.seconds), a.seed, traced),
        (_, true) => udp::run(&udp::Udp::tiny(), a.seed, traced),
    }
}

/// Where run artifacts (digests, spans) go: `out/` beside this package's
/// manifest, inside the checkout it was built in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Fingerprint of the running binary: FNV-1a over its bytes. Digests are
/// recorded per build, so a rebuilt program starts a new record instead
/// of being held to the results of the program it replaced.
fn build_key() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h = out::Fnv::new();
    h.bytes(&bytes);
    h.0
}

/// A simulated run's digest must repeat for the same build, seed and
/// size: the first run of a build records it in `dir`, every later run of
/// that build compares.
fn digest_gate(dir: &Path, a: &Args, build: u64, digest: u64) -> Gate {
    let size = if a.tiny { "tiny" } else { "full" };
    let path = dir.join(format!(
        "digest-{build:016x}-{}-{}-{}s-{size}.txt",
        a.workload, a.seed, a.seconds
    ));
    let now = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(prev) => Gate::check(
            "digest repeats for the seed",
            prev.trim() == now,
            format!("recorded {}, this run {now}", prev.trim()),
        ),
        Err(_) => {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(&path, &now);
            Gate::check(
                "digest repeats for the seed",
                true,
                format!("recorded {now}"),
            )
        }
    }
}

/// Everything a run prints, plus its exit status.
pub fn execute(a: &Args) -> (Outcome, bool) {
    let mut o = if a.traced {
        let base = run_once(a, false);
        // Heap counting is part of the tracing cost: the untraced pass
        // runs without it, and the traced pass's peak is its own.
        ALLOC.enable();
        let mut t = run_once(a, true);
        ALLOC.disable();
        let speed = out::ratio(t.get(CPU_METRIC), base.get(CPU_METRIC));
        t.set(
            "trace.overhead_pct",
            if speed > 0.0 {
                (speed - 1.0) * 100.0
            } else {
                0.0
            },
        );
        t.ctx("untraced_cpu_ms_per_op", base.get(CPU_METRIC));
        t.ctx("traced_cpu_ms_per_op", t.get(CPU_METRIC));
        if let (Some(x), Some(y)) = (base.digest, t.digest) {
            t.gates.push(Gate::check(
                "tracing leaves the run unchanged",
                x == y,
                format!("untraced {x:016x}, traced {y:016x}"),
            ));
        }
        t.gates.extend(base.gates.into_iter().map(|mut g| {
            g.name = format!("untraced: {}", g.name);
            g
        }));
        t
    } else {
        run_once(a, false)
    };
    if let Some(d) = o.digest {
        let build = build_key();
        o.gates.push(digest_gate(&out_dir(), a, build, d));
        o.ctx("digest", format!("{d:016x}"));
        o.ctx("build_key", format!("{build:016x}"));
    }
    o.gates.push(Gate::check(
        "metrics are finite",
        o.metrics.values().all(|v| v.is_finite()),
        String::new(),
    ));
    o.ctx("workload", a.workload);
    o.ctx("seed", a.seed);
    o.ctx("held_out_seed", HELD_OUT_SEED);
    o.ctx("seconds", a.seconds);
    o.ctx("cores", sys::cores());
    o.ctx("traced", a.traced);
    if a.traced {
        o.set("trace.spans", o.spans.len() as f64);
        let path = out_dir().join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
        match trace::write_jsonl(&path, &mut o.spans) {
            Ok(()) => o.ctx("spans_file", path.display()),
            Err(e) => o.ctx("spans_file", format!("not written: {e}")),
        }
    }
    let ok = o.correct();
    (o, ok)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (o, ok) = execute(&a);
    for g in o.gates.iter().filter(|g| !g.ok) {
        eprintln!("perfbench: gate failed: {}: {}", g.name, g.detail);
    }
    println!("{}", out::report_line(a.workload, a.traced, &o));
    println!("{}", out::result_line(a.traced, &o));
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::out::{END_TO_END, PER_LAYER};

    fn tiny(workload: &'static str, seed: u64) -> Args {
        Args {
            workload,
            seed,
            seconds: 2,
            traced: false,
            tiny: true,
        }
    }

    fn assert_emits(line: &str, names: &[(&str, &str)]) {
        for (n, u) in names {
            let at = line
                .find(&format!("\"{n}\": {{\"value\": "))
                .unwrap_or_else(|| panic!("{n} missing from {line}"));
            let rest = &line[at..];
            let unit = format!("\"unit\": \"{u}\"}}");
            assert!(
                rest.find(&unit).is_some_and(|i| !rest[..i].contains('}')),
                "{n} lacks unit {u}"
            );
        }
    }

    /// Every workload prints every end-to-end metric untraced and every
    /// per-layer metric traced, each with its unit, and passes its gates.
    #[test]
    fn every_metric_is_emitted_with_its_unit() {
        for w in WORKLOADS {
            for traced in [false, true] {
                let a = Args {
                    traced,
                    ..tiny(w, 3)
                };
                let (o, ok) = execute(&a);
                assert!(ok, "{w} traced={traced}: {:?}", o.gates);
                assert!(o.attempted > 0);
                let line = out::result_line(traced, &o);
                let names = if traced { PER_LAYER } else { END_TO_END };
                assert_emits(&line, names);
                for (n, _) in names {
                    assert!(o.get(n).is_finite(), "{w}: {n}");
                }
                if !traced {
                    for (n, _) in END_TO_END {
                        assert!(o.get(n) > 0.0, "{w}: {n} must never be 0");
                    }
                }
            }
        }
    }

    #[test]
    fn exact_sum_gate_fires_on_a_wrong_expectation() {
        use crate::steady::exact_sum_gate;
        assert!(exact_sum_gate("s", (10.0, 4), 10.0, 4).ok);
        assert!(!exact_sum_gate("s", (10.0, 4), 11.0, 4).ok, "wrong sum");
        assert!(!exact_sum_gate("s", (10.0, 4), 10.0, 5).ok, "missing node");
        assert!(!exact_sum_gate("s", (f64::NAN, 0), 10.0, 4).ok, "no report");
    }

    #[test]
    fn maan_gate_fires_on_a_wrong_host_set() {
        use crate::udp::{maan_expected, maan_gate};
        let machines = vec![
            ("a".to_string(), 1.0),
            ("b".to_string(), 2.5),
            ("c".to_string(), 4.0),
        ];
        let want = maan_expected(&machines, 2.0, 4.0);
        assert_eq!(want, vec!["b", "c"]);
        assert!(maan_gate(&[], 3).ok);
        let wrong = maan_expected(&machines, 0.0, 4.0);
        assert!(!maan_gate(&[(wrong, want)], 3).ok);
    }

    #[test]
    fn digest_gate_fires_when_a_seed_stops_repeating() {
        let dir = out_dir().join("test-digest");
        let _ = std::fs::remove_dir_all(&dir);
        let a = tiny("grid-steady", 99);
        assert!(digest_gate(&dir, &a, 1, 7).ok, "first run records");
        assert!(digest_gate(&dir, &a, 1, 7).ok, "same digest repeats");
        assert!(!digest_gate(&dir, &a, 1, 8).ok, "a different digest fails");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A rebuilt program may change its results: its first run records a
    /// new digest instead of failing against the old build's.
    #[test]
    fn digest_gate_starts_a_new_record_per_build() {
        let dir = out_dir().join("test-digest-build");
        let _ = std::fs::remove_dir_all(&dir);
        let a = tiny("grid-churn", 99);
        assert!(digest_gate(&dir, &a, 1, 7).ok);
        assert!(digest_gate(&dir, &a, 2, 8).ok, "another build records anew");
        assert!(!digest_gate(&dir, &a, 2, 7).ok, "and is held to its own");
        assert!(digest_gate(&dir, &a, 1, 7).ok, "the old record stays");
        assert_eq!(build_key(), build_key());
        assert_ne!(build_key(), out::Fnv::new().0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sharded engine's result does not depend on the shard count,
    /// and a seed replays exactly.
    #[test]
    fn steady_digest_is_the_same_at_one_and_two_shards() {
        let one = steady::Steady {
            shards: 1,
            ..steady::Steady::tiny()
        };
        let two = steady::Steady::tiny();
        assert_eq!(two.shards, 2);
        let d1 = steady::run(&one, 5, false).digest;
        let d2 = steady::run(&two, 5, false).digest;
        assert!(d1.is_some());
        assert_eq!(d1, d2);
        assert_eq!(steady::run(&two, 5, false).digest, d2);
        assert_ne!(steady::run(&two, 6, false).digest, d2, "seeds differ");
    }

    /// `BENCHMARK.json` declares exactly the metrics the result line
    /// carries, with the same units.
    #[test]
    fn benchmark_json_matches_the_emitted_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return; // a copy of the package without the repository around it
        };
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
                "{n} ({u}) missing from BENCHMARK.json"
            );
        }
        let declared = json.matches("\"unit\": ").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn args_parse_and_reject() {
        let argv: Vec<String> = "--workload grid-churn --seed 4 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse(&argv).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            ("grid-churn", 4, 3, true)
        );
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse(&["--seed".into(), "1".into()]).is_err());
        let sized: Vec<String> = "--workload grid-churn --size tiny"
            .split(' ')
            .map(String::from)
            .collect();
        assert!(parse(&sized).is_err(), "test sizes are not a flag");
    }
}
