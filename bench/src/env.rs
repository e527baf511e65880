//! The environment fingerprint stamped on every result file. Two result
//! sets are comparable only when their fingerprints match.

use apnn_bitpack::PopcntArm;

use crate::json::Value;
use crate::spec;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads the generator and the server under test may each use.
pub fn parallelism() -> usize {
    nproc().min(2)
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `"unknown"` outside a repository (the acceptance
/// driver's checkout is not one).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                let packed = read(".git/packed-refs")?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(r).map(|hash| hash.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Machine, build and benchmark-definition fields. `agree` requires these
/// equal across every file it compares.
pub fn fingerprint(seconds: f64) -> Value {
    let features = [
        ("popcnt", cfg!(target_feature = "popcnt")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512vpopcntdq", cfg!(target_feature = "avx512vpopcntdq")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(name, _)| *name)
    .collect::<Vec<_>>()
    .join(",");
    Value::obj([
        ("popcnt_arm", Value::str(PopcntArm::detect().label())),
        ("target_features", Value::str(features)),
        ("nproc", Value::Num(nproc() as f64)),
        ("rustc", Value::str(env!("APNN_BENCH_RUSTC"))),
        ("seconds", Value::Num(seconds)),
        ("windows", Value::Num(spec::WINDOWS as f64)),
        ("steady_rate_hz", Value::Num(spec::STEADY_RATE_HZ)),
        ("overload_rate_hz", Value::Num(spec::OVERLOAD_RATE_HZ)),
        ("slo_ms", Value::Num(spec::SLO_MS)),
    ])
}

/// Fields recorded beside the fingerprint but allowed to differ between
/// compared sets: a parent and a change differ in commit by design, and a
/// set spans several seeds.
pub fn provenance(seed: u64) -> Vec<(&'static str, Value)> {
    vec![
        ("commit", Value::str(commit())),
        ("seed", Value::Num(seed as f64)),
    ]
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
