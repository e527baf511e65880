//! `apnn-benchmark`: the one performance gate for the stack. See
//! `README.md` for the workloads, the metrics and how to read the output.
//!
//! ```text
//! apnn-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! apnn-benchmark all [--seed <n>] [--seconds <s>]
//! apnn-benchmark agree <a.json>... --vs <b.json>...
//! apnn-benchmark manifest
//! ```

mod agree;
mod awake;
mod env;
mod gen;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Value;
use workloads::{Cfg, Outcome};

/// Where result and trace files go, relative to the repository root the
/// command is run from.
const OUT_DIR: &str = "bench/out";
/// `setup_s` is the lower quartile of several cold set-ups: the run's own
/// plus fresh `setup-only` processes (the measured micro-tile memo is per
/// process) — at least `MIN_SETUPS` samples, then more while they are cheap,
/// because a 20 ms set-up needs more samples than a one-second one to hold
/// still. The quartile, not the median, for the reason the windows use it.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 17;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("agree") => agree::main(&args[1..]),
        Some("manifest") => {
            print!("{}", spec::manifest().pretty());
            Ok(true)
        }
        Some("setup-only") => setup_only(&args[1..], t0),
        _ => one(&args, t0),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("apnn-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs; every key in `known` may appear at most once.
fn options(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out: Vec<(String, String)> = Vec::new();
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        if !known.contains(&key.as_str()) || out.iter().any(|(k, _)| k == key) {
            return Err(format!("unexpected argument `{key}` (known: {known:?})"));
        }
        out.push((key.clone(), value.clone()));
    }
    Ok(out)
}

fn opt<T: std::str::FromStr>(opts: &[(String, String)], key: &str) -> Result<Option<T>, String> {
    opts.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.parse().map_err(|_| format!("bad value `{v}` for {key}")))
        .transpose()
}

fn known_workload(name: &str) -> Result<&'static spec::Workload, String> {
    spec::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| {
            let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (known: {names:?})")
        })
}

fn run_workload(name: &str, cfg: &Cfg) -> Outcome {
    match name {
        "kernel_paper" => workloads::kernel_paper::run(cfg),
        "exec_zoo" => workloads::exec_zoo::run(cfg),
        wire => workloads::wire::run(workloads::wire::spec_for(wire), cfg),
    }
}

/// Build one workload's program state and report how long that took from
/// process start; the parent run takes the median over several of these.
fn setup_only(args: &[String], t0: Instant) -> Result<bool, String> {
    let opts = options(args, &["--workload", "--seed"])?;
    let name: String = opt(&opts, "--workload")?.ok_or("--workload is required")?;
    let seed = opt(&opts, "--seed")?.unwrap_or(1);
    match known_workload(&name)?.name {
        "kernel_paper" => drop(workloads::kernel_paper::setup(seed)),
        "exec_zoo" => drop(workloads::exec_zoo::setup(seed)),
        wire => drop(workloads::wire::setup(
            workloads::wire::spec_for(wire),
            seed,
        )),
    }
    println!("{}", t0.elapsed().as_secs_f64());
    Ok(true)
}

fn cold_setup_s(name: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "setup-only",
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the set-up process: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| format!("set-up process for `{name}` failed ({})", out.status))
}

/// The driver form: one workload, one run, the result as the last line.
fn one(args: &[String], t0: Instant) -> Result<bool, String> {
    let opts = options(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let name: String = opt(&opts, "--workload")?.ok_or("--workload is required")?;
    let workload = known_workload(&name)?;
    let cfg = Cfg {
        seed: opt(&opts, "--seed")?.unwrap_or(1),
        seconds: opt(&opts, "--seconds")?.unwrap_or(spec::RUN_SECONDS as f64),
        trace: match opt::<u8>(&opts, "--trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            n => return Err(format!("--trace takes 0 or 1, not {n}")),
        },
        t0,
    };
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {}", cfg.seconds));
    }

    let outcome = run_workload(workload.name, &cfg);
    let metrics: Vec<(String, &str, f64)> = if cfg.trace {
        spec::per_layer()
            .into_iter()
            .map(|m| {
                let v = outcome.layers.iter().find(|(n, _)| *n == m.name);
                (m.name, m.unit, v.map_or(0.0, |(_, v)| *v))
            })
            .collect()
    } else {
        let mut setups = vec![outcome.setup_s];
        let repeats = Instant::now();
        while setups.len() < MIN_SETUPS
            || (setups.len() < MAX_SETUPS && repeats.elapsed() < SETUP_BUDGET)
        {
            setups.push(cold_setup_s(workload.name, cfg.seed)?);
        }
        spec::END_TO_END
            .iter()
            .map(|m| {
                let v = match m.name {
                    "setup_s" => stats::quartiles(&setups).0,
                    "peak_rss_mb" => outcome.peak_rss_mb,
                    "work_per_s" => outcome.work_per_s,
                    "latency_p50_ms" => outcome.latency_p50_ms,
                    other => unreachable!("end-to-end metric `{other}` has no source"),
                };
                (m.name.to_string(), m.unit, v)
            })
            .collect()
    };
    let correct = outcome.failed == 0;
    let contract = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|(name, unit, v)| {
                (
                    name.as_str(),
                    Value::obj([("value", Value::Num(*v)), ("unit", Value::str(*unit))]),
                )
            })),
        ),
    ]);

    let stem = format!(
        "{}-seed{}-trace{}",
        workload.name, cfg.seed, cfg.trace as u8
    );
    write_out(
        &format!("result-{stem}.json"),
        &result_file(workload.name, &cfg, &outcome, contract.clone()).pretty(),
    )?;
    if cfg.trace {
        write_out(
            &format!("trace-{}.json", workload.name),
            &outcome.trace.to_json().pretty(),
        )?;
    }

    println!(
        "# {} seed={} seconds={} trace={}",
        workload.name, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for (name, unit, v) in &metrics {
        println!("{name} = {v} {unit}");
    }
    println!("ops_attempted = {} count", outcome.attempted);
    println!("ops_failed = {} count", outcome.failed);
    for (k, v) in &outcome.info {
        println!("{k} = {v}");
    }
    if cfg.trace {
        for (name, (count, total, own)) in outcome.trace.summary() {
            println!(
                "span {name}: count={count} total_ms={:.3} self_ms={:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    println!("{contract}");
    Ok(correct)
}

/// What a run leaves in `bench/out/`: the result line plus everything
/// needed to decide whether two runs may be compared. A run of any other
/// length than `RUN_SECONDS` is a smoke run, never a measurement.
fn result_file(workload: &str, cfg: &Cfg, outcome: &Outcome, contract: Value) -> Value {
    let mut file = vec![
        ("workload", Value::str(workload)),
        ("trace", Value::Bool(cfg.trace)),
        (
            "smoke",
            Value::Bool(cfg.seconds != spec::RUN_SECONDS as f64),
        ),
        ("fingerprint", env::fingerprint(cfg.seconds)),
    ];
    file.extend(env::provenance(cfg.seed));
    file.extend(outcome.info.iter().cloned());
    file.push(("result", contract));
    Value::obj(file)
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    let path = PathBuf::from(OUT_DIR).join(file);
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Every workload untraced, then every workload traced, each in its own
/// process so set-up time and peak memory are per workload.
fn all(args: &[String]) -> Result<bool, String> {
    let opts = options(args, &["--seed", "--seconds"])?;
    let seed: u64 = opt(&opts, "--seed")?.unwrap_or(1);
    let seconds: f64 = opt(&opts, "--seconds")?.unwrap_or(spec::RUN_SECONDS as f64);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in &spec::WORKLOADS {
            let status = Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .status()
                .map_err(|e| format!("cannot start `{}`: {e}", w.name))?;
            ok &= status.success();
        }
    }
    println!("# result and trace files are in {OUT_DIR}/");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload end to end at 1/20 of the run length: set-up, oracle,
    /// timed windows, a traced pass, the per-layer table. Serialised in one
    /// test because the workloads time themselves.
    #[test]
    fn smoke_run_of_all_five_workloads() {
        let layer_names: Vec<String> = spec::per_layer().into_iter().map(|m| m.name).collect();
        for w in &spec::WORKLOADS {
            for trace in [false, true] {
                let cfg = Cfg {
                    seed: 5,
                    seconds: spec::RUN_SECONDS as f64 / 20.0,
                    trace,
                    t0: Instant::now(),
                };
                let out = run_workload(w.name, &cfg);
                assert!(out.attempted > 0, "{}: nothing attempted", w.name);
                assert_eq!(out.failed, 0, "{}: wrong or failed outputs", w.name);
                for v in [
                    out.setup_s,
                    out.peak_rss_mb,
                    out.work_per_s,
                    out.latency_p50_ms,
                ] {
                    assert!(v.is_finite() && v > 0.0, "{}: metric {v}", w.name);
                }
                assert_eq!(trace, !out.layers.is_empty() && !out.trace.spans.is_empty());
                for (name, v) in &out.layers {
                    assert!(layer_names.contains(name), "`{name}` is not in the table");
                    assert!(v.is_finite(), "{}: {name} = {v}", w.name);
                }
                let file = result_file(w.name, &cfg, &out, Value::Null);
                assert_eq!(file.get("smoke"), Some(&Value::Bool(true)));
                assert!(file.get("logits_fnv64").is_some());
            }
        }
    }

    #[test]
    fn options_reject_unknown_and_repeated_keys() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let known = ["--seed", "--trace"];
        assert_eq!(
            options(&args("--seed 3 --trace 1"), &known).unwrap(),
            vec![
                ("--seed".into(), "3".into()),
                ("--trace".into(), "1".into())
            ]
        );
        assert!(options(&args("--seed 3 --seed 4"), &known).is_err());
        assert!(options(&args("--bogus 3"), &known).is_err());
        assert!(options(&args("--seed"), &known).is_err());
        assert_eq!(
            opt::<u64>(&[("--seed".into(), "x".into())], "--seed"),
            Err("bad value `x` for --seed".into())
        );
    }
}
