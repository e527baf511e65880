//! Schema validation for the committed benchmark artifacts.
//!
//! The `bench-trajectory` CI job regenerates `BENCH_exec.json` /
//! `BENCH_serve.json` on the runner and validates both the fresh and the
//! committed copies here: every row must carry the expected fields with
//! values in sane ranges, and the fresh artifact must cover exactly the
//! same identity keys (model × scheme × threads, burst × threads) as the
//! committed one. The gate is **schema-shaped, not threshold-shaped** —
//! absolute throughput on a shared runner is noise, but a silently dropped
//! model, scheme or sweep point is a broken trajectory.
//!
//! The parser below handles exactly the flat JSON this crate emits (see
//! [`crate::artifacts`]): one top-level array of objects whose values are
//! numbers or strings. The offline `serde` shim has no deserializer, so
//! this is hand-rolled — and deliberately strict about that shape.

use std::collections::BTreeMap;

/// A scalar field of a flat artifact row.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// A JSON number.
    Num(f64),
    /// A JSON string.
    Str(String),
}

impl JsonVal {
    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonVal::Num(v) => Some(*v),
            JsonVal::Str(_) => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Num(_) => None,
            JsonVal::Str(s) => Some(s),
        }
    }
}

/// One artifact row: field name → scalar value.
pub type Row = BTreeMap<String, JsonVal>;

/// Parse a flat artifact file: `{"<key>": [ {..}, {..} ]}` with scalar-only
/// objects. Returns the rows of the single top-level array.
pub fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    // Find the opening '[' of the single top-level array.
    let open = text.find('[').ok_or("no top-level array found")?;
    let mut at = open + 1;
    loop {
        // Skip to the next '{' or the closing ']'.
        let rest = &text[at..];
        let next_obj = rest.find('{');
        let next_close = rest.find(']').ok_or("unterminated array")?;
        match next_obj {
            Some(o) if o < next_close => {
                let obj_start = at + o;
                let obj_end = text[obj_start..]
                    .find('}')
                    .map(|e| obj_start + e)
                    .ok_or("unterminated object")?;
                rows.push(parse_object(&text[obj_start + 1..obj_end])?);
                at = obj_end + 1;
            }
            _ => break,
        }
    }
    Ok(rows)
}

/// Parse the `"key": value, ...` interior of one flat object.
fn parse_object(body: &str) -> Result<Row, String> {
    let mut row = Row::new();
    for field in split_fields(body) {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        let colon = field
            .find(':')
            .ok_or_else(|| format!("no colon in `{field}`"))?;
        let key = field[..colon].trim().trim_matches('"').to_string();
        let raw = field[colon + 1..].trim();
        let val = if let Some(stripped) = raw.strip_prefix('"') {
            JsonVal::Str(
                stripped
                    .strip_suffix('"')
                    .ok_or_else(|| format!("unterminated string in `{field}`"))?
                    .to_string(),
            )
        } else {
            JsonVal::Num(
                raw.parse::<f64>()
                    .map_err(|e| format!("bad number `{raw}`: {e}"))?,
            )
        };
        if row.insert(key.clone(), val).is_some() {
            return Err(format!("duplicate field `{key}`"));
        }
    }
    Ok(row)
}

/// Split an object body on commas that sit outside string literals.
fn split_fields(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for ch in body.chars() {
        match ch {
            '"' => {
                in_str = !in_str;
                cur.push(ch);
            }
            ',' if !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Pull field `key` as a finite number, or explain what is missing.
fn num(row: &Row, key: &str) -> Result<f64, String> {
    let v = row
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`"))?
        .as_num()
        .ok_or_else(|| format!("field `{key}` is not a number"))?;
    if !v.is_finite() {
        return Err(format!("field `{key}` is not finite"));
    }
    Ok(v)
}

fn string(row: &Row, key: &str) -> Result<String, String> {
    Ok(row
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`"))?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))?
        .to_string())
}

/// The servable-zoo model set both execution artifacts must cover. A sweep
/// that silently drops a model (say, the residual network) is a broken
/// trajectory even when every surviving row is well-formed.
pub const SERVABLE_MODELS: [&str; 3] = ["AlexNet-Tiny", "VGG-Variant-Tiny", "ResNet18-Tiny"];

/// Validate one `BENCH_exec.json` row set: required fields present, values
/// in sane ranges, and every [`SERVABLE_MODELS`] entry covered. Returns
/// the identity keys `(model, scheme, threads)`.
pub fn validate_exec(rows: &[Row]) -> Result<Vec<(String, String, u64)>, String> {
    if rows.is_empty() {
        return Err("exec artifact has no rows".into());
    }
    let mut keys = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let ctx = |e: String| format!("exec row {i}: {e}");
        let model = string(row, "model").map_err(ctx)?;
        let scheme = string(row, "scheme").map_err(ctx)?;
        let batch = num(row, "batch").map_err(ctx)?;
        let requests = num(row, "requests").map_err(ctx)?;
        let threads = num(row, "threads").map_err(ctx)?;
        let pool = num(row, "pool").map_err(ctx)?;
        let reused = num(row, "reused_ws_rps").map_err(ctx)?;
        let fresh = num(row, "fresh_ws_rps").map_err(ctx)?;
        let ws = num(row, "workspace_bytes").map_err(ctx)?;
        if !scheme.starts_with("APNN-") {
            return Err(format!("exec row {i}: unexpected scheme `{scheme}`"));
        }
        if batch < 1.0 || requests < batch || threads < 1.0 || pool < 1.0 {
            return Err(format!("exec row {i}: implausible sweep dimensions"));
        }
        if reused <= 0.0 || fresh <= 0.0 || ws <= 0.0 {
            return Err(format!("exec row {i}: non-positive measurement"));
        }
        keys.push((model, scheme, threads as u64));
    }
    for want in SERVABLE_MODELS {
        if !keys.iter().any(|(model, ..)| model == want) {
            return Err(format!("exec artifact is missing model `{want}`"));
        }
    }
    Ok(keys)
}

/// Identity key of one `BENCH_kernels.json` row: `(case, p, q, m, n, k)`.
/// The problem geometry is part of the identity, so silently changing the
/// sweep size without regenerating the committed artifact breaks the
/// trajectory gate.
pub type KernelKey = (String, u64, u64, u64, u64, u64);

/// The full emulation-case set a kernels artifact must cover: the four
/// Ampere cases plus the three Turing XOR-only derivations. A sweep that
/// silently drops one of them is a broken trajectory.
pub const KERNEL_CASES: [&str; 7] = [
    "AndUnsigned",
    "XorSignedBinary",
    "AndWeightTransformed",
    "AndActivationTransformed",
    "XorDerivedUnsigned",
    "XorDerivedWeightTransformed",
    "XorDerivedActivationTransformed",
];

/// Validate one `BENCH_kernels.json` row set: required fields present
/// (including the popcount `arm` every row must record), values in sane
/// ranges, and the full seven-case emulation set covered. Returns the
/// [`KernelKey`] identity keys.
pub fn validate_kernels(rows: &[Row]) -> Result<Vec<KernelKey>, String> {
    if rows.is_empty() {
        return Err("kernels artifact has no rows".into());
    }
    let mut keys = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let ctx = |e: String| format!("kernels row {i}: {e}");
        let case = string(row, "case").map_err(ctx)?;
        let op = string(row, "op").map_err(ctx)?;
        let arm = string(row, "arm").map_err(ctx)?;
        let p = num(row, "p").map_err(ctx)?;
        let q = num(row, "q").map_err(ctx)?;
        let m = num(row, "m").map_err(ctx)?;
        let n = num(row, "n").map_err(ctx)?;
        let k = num(row, "k").map_err(ctx)?;
        let jb = num(row, "jb").map_err(ctx)?;
        let gbps = num(row, "word_gbps").map_err(ctx)?;
        let mops = num(row, "pair_mops").map_err(ctx)?;
        if op != "and" && op != "xor" {
            return Err(format!("kernels row {i}: unexpected op `{op}`"));
        }
        if apnn_bitpack::PopcntArm::parse(&arm).is_none() {
            return Err(format!("kernels row {i}: unknown popcount arm `{arm}`"));
        }
        if !(1.0..=8.0).contains(&p) || !(1.0..=8.0).contains(&q) {
            return Err(format!("kernels row {i}: plane counts out of range"));
        }
        if m < 1.0 || n < 1.0 || k < 1.0 || jb < 1.0 {
            return Err(format!("kernels row {i}: implausible sweep dimensions"));
        }
        if gbps <= 0.0 || mops <= 0.0 {
            return Err(format!("kernels row {i}: non-positive measurement"));
        }
        keys.push((case, p as u64, q as u64, m as u64, n as u64, k as u64));
    }
    for want in KERNEL_CASES {
        if !keys.iter().any(|(case, ..)| case == want) {
            return Err(format!("kernels artifact is missing case `{want}`"));
        }
    }
    Ok(keys)
}

/// Identity key of one `BENCH_serve.json` row:
/// `(model, scheme, mode, tenant, burst, threads)`. Overload rows share a
/// (model, burst, threads) point across tenants, so the tenant label is
/// part of the identity.
pub type ServeKey = (String, String, String, String, u64, u64);

/// Validate one `BENCH_serve.json` row set: required fields present
/// (including the precision `scheme` every served plan runs at, the
/// per-tenant overload accounting and the recovery counters), values in
/// sane ranges, every [`SERVABLE_MODELS`] entry covered, the overload
/// sweep actually driven past saturation (a `mode: "overload"` row at
/// `burst >= 200`, i.e. 2× the measured plateau, from at least two
/// distinct tenants), and the chaos A/B pair present (`mode: "chaos"`
/// rows for tenants `baseline` and `faulted`) with the faulted run
/// retaining at least half the fault-free goodput. Returns the
/// [`ServeKey`] identity keys.
pub fn validate_serve(rows: &[Row]) -> Result<Vec<ServeKey>, String> {
    if rows.is_empty() {
        return Err("serve artifact has no rows".into());
    }
    let mut keys = Vec::with_capacity(rows.len());
    let mut chaos_rps: Vec<(String, f64)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let ctx = |e: String| format!("serve row {i}: {e}");
        let model = string(row, "model").map_err(ctx)?;
        let scheme = string(row, "scheme").map_err(ctx)?;
        let mode = string(row, "mode").map_err(ctx)?;
        let tenant = string(row, "tenant").map_err(ctx)?;
        let burst = num(row, "burst").map_err(ctx)?;
        let threads = num(row, "threads").map_err(ctx)?;
        let pool = num(row, "pool").map_err(ctx)?;
        let fill = num(row, "mean_fill").map_err(ctx)?;
        let p50 = num(row, "p50_ticks").map_err(ctx)?;
        let p99 = num(row, "p99_ticks").map_err(ctx)?;
        let offered = num(row, "offered_rps").map_err(ctx)?;
        let rps = num(row, "throughput_rps").map_err(ctx)?;
        let shed_rate = num(row, "shed_rate").map_err(ctx)?;
        let expired = num(row, "expired").map_err(ctx)?;
        let poisoned = num(row, "poisoned").map_err(ctx)?;
        let worker_restarts = num(row, "worker_restarts").map_err(ctx)?;
        let rollbacks = num(row, "rollbacks").map_err(ctx)?;
        let client_retries = num(row, "client_retries").map_err(ctx)?;
        let version = num(row, "version").map_err(ctx)?;
        if !scheme.starts_with("APNN-") {
            return Err(format!("serve row {i}: unexpected scheme `{scheme}`"));
        }
        if mode != "closed" && mode != "overload" && mode != "chaos" {
            return Err(format!("serve row {i}: unknown mode `{mode}`"));
        }
        if tenant.is_empty() {
            return Err(format!("serve row {i}: empty tenant label"));
        }
        if burst < 1.0 || threads < 1.0 || pool < 1.0 {
            return Err(format!("serve row {i}: implausible sweep dimensions"));
        }
        if !(1.0..=1024.0).contains(&fill) {
            return Err(format!("serve row {i}: batch fill {fill} out of range"));
        }
        if p50 > p99 {
            return Err(format!("serve row {i}: p50 {p50} exceeds p99 {p99}"));
        }
        if offered <= 0.0 {
            return Err(format!("serve row {i}: non-positive offered load"));
        }
        if rps <= 0.0 {
            return Err(format!("serve row {i}: non-positive goodput"));
        }
        if !(0.0..=1.0).contains(&shed_rate) {
            return Err(format!("serve row {i}: shed rate {shed_rate} out of range"));
        }
        if expired < 0.0 {
            return Err(format!("serve row {i}: negative expired count"));
        }
        for (name, v) in [
            ("poisoned", poisoned),
            ("worker_restarts", worker_restarts),
            ("rollbacks", rollbacks),
            ("client_retries", client_retries),
        ] {
            if v < 0.0 {
                return Err(format!("serve row {i}: negative {name} count"));
            }
            if mode != "chaos" && v != 0.0 {
                return Err(format!(
                    "serve row {i}: nonzero {name} outside chaos mode ({v})"
                ));
            }
        }
        if version < 1.0 {
            return Err(format!("serve row {i}: plan version {version} below 1"));
        }
        if mode == "chaos" {
            chaos_rps.push((tenant.clone(), rps));
        }
        keys.push((model, scheme, mode, tenant, burst as u64, threads as u64));
    }
    for want in SERVABLE_MODELS {
        if !keys.iter().any(|(model, ..)| model == want) {
            return Err(format!("serve artifact is missing model `{want}`"));
        }
    }
    let mut overload_tenants: Vec<&str> = keys
        .iter()
        .filter(|(_, _, mode, ..)| mode == "overload")
        .map(|(_, _, _, tenant, ..)| tenant.as_str())
        .collect();
    overload_tenants.sort();
    overload_tenants.dedup();
    if overload_tenants.len() < 2 {
        return Err(format!(
            "serve artifact needs >= 2 distinct overload tenants, got {overload_tenants:?}"
        ));
    }
    if !keys
        .iter()
        .any(|(_, _, mode, _, burst, _)| mode == "overload" && *burst >= 200)
    {
        return Err("serve artifact has no overload row at >= 2x saturation".into());
    }
    // The chaos A/B pair: the same workload on a fault-free twin and under
    // injected faults, with a hard goodput-retention floor. Losing the pair
    // (or the floor) silently drops the recovery evidence.
    let chaos_sum = |tenant: &str| -> f64 {
        chaos_rps
            .iter()
            .filter(|(t, _)| t == tenant)
            .map(|(_, rps)| rps)
            .sum()
    };
    let (baseline, faulted) = (chaos_sum("baseline"), chaos_sum("faulted"));
    if baseline <= 0.0 || faulted <= 0.0 {
        return Err(format!(
            "serve artifact needs chaos rows for tenants `baseline` and `faulted`, \
             got {:?}",
            chaos_rps
                .iter()
                .map(|(t, _)| t.as_str())
                .collect::<Vec<_>>()
        ));
    }
    if faulted < 0.5 * baseline {
        return Err(format!(
            "chaos goodput retention below floor: faulted {faulted:.1} req/s < 50% of \
             baseline {baseline:.1} req/s"
        ));
    }
    Ok(keys)
}

/// Validate one `BENCH_precision.json` row set (the precision autotuner's
/// Pareto artifact): required fields present, values in sane ranges, the
/// residual model covered with at least three distinct operating points,
/// both uniform reference schedules (`APNN-w1a2`, `APNN-w2a2`) present
/// alongside at least one mixed schedule, and at least one row on the
/// Pareto front. Returns the identity keys `(model, scheme)`.
///
/// Unlike the exec/serve artifacts, `repro check-bench` does **not**
/// require the fresh and committed precision artifacts to cover identical
/// keys: Pareto membership depends on *measured* microkernel rates, so the
/// surviving mixed schedules legitimately differ across machines. The
/// trajectory gate here is shape + coverage of each copy independently.
pub fn validate_precision(rows: &[Row]) -> Result<Vec<(String, String)>, String> {
    if rows.is_empty() {
        return Err("precision artifact has no rows".into());
    }
    let mut keys = Vec::with_capacity(rows.len());
    let mut pareto_rows = 0usize;
    for (i, row) in rows.iter().enumerate() {
        let ctx = |e: String| format!("precision row {i}: {e}");
        let model = string(row, "model").map_err(ctx)?;
        let scheme = string(row, "scheme").map_err(ctx)?;
        let segments = string(row, "segments").map_err(ctx)?;
        let cost = num(row, "est_cost_ms").map_err(ctx)?;
        let acc = num(row, "accuracy").map_err(ctx)?;
        let rps = num(row, "exec_rps").map_err(ctx)?;
        let pareto = num(row, "pareto").map_err(ctx)?;
        if !scheme.starts_with("APNN-") {
            return Err(format!("precision row {i}: unexpected scheme `{scheme}`"));
        }
        if segments.is_empty() || !segments.split(',').all(|s| s.starts_with('w')) {
            return Err(format!(
                "precision row {i}: malformed segments `{segments}`"
            ));
        }
        if cost <= 0.0 {
            return Err(format!("precision row {i}: non-positive cost estimate"));
        }
        if acc <= 0.0 || acc > 1.0 {
            return Err(format!("precision row {i}: accuracy {acc} out of range"));
        }
        if rps <= 0.0 {
            return Err(format!("precision row {i}: non-positive throughput"));
        }
        if pareto != 0.0 && pareto != 1.0 {
            return Err(format!("precision row {i}: pareto flag must be 0 or 1"));
        }
        pareto_rows += (pareto == 1.0) as usize;
        keys.push((model, scheme));
    }
    let resnet = "ResNet18-Tiny";
    let mut schemes: Vec<&str> = keys
        .iter()
        .filter(|(m, _)| m == resnet)
        .map(|(_, s)| s.as_str())
        .collect();
    schemes.sort();
    schemes.dedup();
    if schemes.len() < 3 {
        return Err(format!(
            "precision artifact needs >= 3 distinct `{resnet}` operating points, got {schemes:?}"
        ));
    }
    for want in ["APNN-w1a2", "APNN-w2a2"] {
        if !schemes.contains(&want) {
            return Err(format!(
                "precision artifact is missing uniform reference `{want}`"
            ));
        }
    }
    if !schemes.iter().any(|s| s.starts_with("APNN-mixed-")) {
        return Err("precision artifact has no mixed-precision schedule".into());
    }
    if pareto_rows == 0 {
        return Err("precision artifact has no Pareto-front row".into());
    }
    Ok(keys)
}

/// Assert that two sorted identity-key sets are equal (fresh run vs.
/// committed artifact): same sweep points, no silent drops or additions.
pub fn same_keys<K: Ord + std::fmt::Debug + Clone>(
    fresh: &[K],
    committed: &[K],
    what: &str,
) -> Result<(), String> {
    let mut f = fresh.to_vec();
    let mut c = committed.to_vec();
    f.sort();
    c.sort();
    if f != c {
        return Err(format!(
            "{what}: fresh and committed artifacts cover different sweep points\n  \
             fresh:     {f:?}\n  committed: {c:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXEC: &str = r#"{
"exec": [
  {"model": "AlexNet-Tiny", "scheme": "APNN-w1a2", "batch": 8, "requests": 32, "threads": 1, "pool": 1, "reused_ws_rps": 100.0, "fresh_ws_rps": 90.0, "workspace_bytes": 4096},
  {"model": "VGG-Variant-Tiny", "scheme": "APNN-w2a2", "batch": 8, "requests": 32, "threads": 4, "pool": 4, "reused_ws_rps": 55.5, "fresh_ws_rps": 50.1, "workspace_bytes": 4096},
  {"model": "ResNet18-Tiny", "scheme": "APNN-w1a2", "batch": 8, "requests": 32, "threads": 4, "pool": 4, "reused_ws_rps": 45.0, "fresh_ws_rps": 40.0, "workspace_bytes": 8192}
]
}
"#;

    #[test]
    fn parses_and_validates_exec_rows() {
        let rows = parse_rows(EXEC).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("model").unwrap().as_str(), Some("AlexNet-Tiny"));
        assert_eq!(rows[1].get("threads").unwrap().as_num(), Some(4.0));
        let keys = validate_exec(&rows).unwrap();
        assert_eq!(keys.len(), 3);
        assert_eq!(keys[0], ("AlexNet-Tiny".into(), "APNN-w1a2".into(), 1));
    }

    #[test]
    fn exec_artifact_must_cover_the_servable_zoo() {
        // Dropping the residual model (or any zoo entry) breaks the
        // trajectory even when every surviving row is well-formed.
        let rows: Vec<Row> = parse_rows(EXEC)
            .unwrap()
            .into_iter()
            .filter(|r| r.get("model").unwrap().as_str() != Some("ResNet18-Tiny"))
            .collect();
        let err = validate_exec(&rows).unwrap_err();
        assert!(err.contains("missing model `ResNet18-Tiny`"), "{err}");
    }

    #[test]
    fn rejects_missing_fields_and_bad_ranges() {
        let rows =
            parse_rows(r#"{"exec": [{"model": "A", "scheme": "APNN-w1a2", "batch": 8}]}"#).unwrap();
        let err = validate_exec(&rows).unwrap_err();
        assert!(err.contains("missing field"), "{err}");

        let rows = parse_rows(
            r#"{"serve": [{"model": "VGG-Variant-Tiny", "scheme": "APNN-w1a2", "mode": "closed",
                "tenant": "all", "burst": 8, "threads": 1, "pool": 1, "mean_fill": 0.2,
                "p50_ticks": 0, "p99_ticks": 1, "offered_rps": 10.0, "throughput_rps": 10.0,
                "shed_rate": 0.0, "expired": 0, "poisoned": 0, "worker_restarts": 0,
                "rollbacks": 0, "client_retries": 0, "version": 1}]}"#,
        )
        .unwrap();
        let err = validate_serve(&rows).unwrap_err();
        assert!(err.contains("out of range"), "{err}");

        // Rows that predate the fault-injection harness carry no recovery
        // counters — stale artifacts fail loudly.
        let rows = parse_rows(
            r#"{"serve": [{"model": "VGG-Variant-Tiny", "scheme": "APNN-w1a2", "mode": "closed",
                "tenant": "all", "burst": 8, "threads": 1, "pool": 1, "mean_fill": 2.0,
                "p50_ticks": 0, "p99_ticks": 1, "offered_rps": 10.0, "throughput_rps": 10.0,
                "shed_rate": 0.0, "expired": 0, "version": 1}]}"#,
        )
        .unwrap();
        let err = validate_serve(&rows).unwrap_err();
        assert!(err.contains("missing field `poisoned`"), "{err}");

        // Rows that predate the zoo-wide serve sweep carry no `model`.
        let rows = parse_rows(
            r#"{"serve": [{"burst": 8, "threads": 1, "pool": 1, "mean_fill": 2.0,
                "p50_ticks": 0, "p99_ticks": 1, "throughput_rps": 10.0}]}"#,
        )
        .unwrap();
        let err = validate_serve(&rows).unwrap_err();
        assert!(err.contains("missing field `model`"), "{err}");

        // Rows that predate the mixed-precision registry carry no `scheme`.
        let rows = parse_rows(
            r#"{"serve": [{"model": "VGG-Variant-Tiny", "burst": 8, "threads": 1, "pool": 1,
                "mean_fill": 2.0, "p50_ticks": 0, "p99_ticks": 1, "throughput_rps": 10.0}]}"#,
        )
        .unwrap();
        let err = validate_serve(&rows).unwrap_err();
        assert!(err.contains("missing field `scheme`"), "{err}");

        // Rows that predate the multi-tenant serve tier carry no `tenant`
        // (or `mode`, `shed_rate`, ...) — stale artifacts fail loudly.
        let rows = parse_rows(
            r#"{"serve": [{"model": "VGG-Variant-Tiny", "scheme": "APNN-w1a2", "burst": 8,
                "threads": 1, "pool": 1, "mean_fill": 2.0, "p50_ticks": 0, "p99_ticks": 1,
                "throughput_rps": 10.0}]}"#,
        )
        .unwrap();
        let err = validate_serve(&rows).unwrap_err();
        assert!(err.contains("missing field `mode`"), "{err}");
    }

    fn serve_row(model: &str, mode: &str, tenant: &str, burst: u64, shed_rate: f64) -> String {
        format!(
            r#"{{"model": "{model}", "scheme": "APNN-w1a2", "mode": "{mode}",
                "tenant": "{tenant}", "burst": {burst}, "threads": 1, "pool": 1,
                "mean_fill": 4.0, "p50_ticks": 2, "p99_ticks": 9, "offered_rps": 120.0,
                "throughput_rps": 60.0, "shed_rate": {shed_rate}, "expired": 3,
                "poisoned": 0, "worker_restarts": 0, "rollbacks": 0, "client_retries": 0,
                "version": 1}}"#
        )
    }

    fn chaos_row(tenant: &str, rps: f64) -> String {
        format!(
            r#"{{"model": "AlexNet-Tiny", "scheme": "APNN-w1a2", "mode": "chaos",
                "tenant": "{tenant}", "burst": 25, "threads": 1, "pool": 4,
                "mean_fill": 4.0, "p50_ticks": 2, "p99_ticks": 14, "offered_rps": 120.0,
                "throughput_rps": {rps}, "shed_rate": 0.02, "expired": 1,
                "poisoned": 2, "worker_restarts": 3, "rollbacks": 0, "client_retries": 1,
                "version": 1}}"#
        )
    }

    #[test]
    fn serve_artifact_must_prove_overload_coverage() {
        let closed: Vec<String> = SERVABLE_MODELS
            .iter()
            .map(|m| serve_row(m, "closed", "all", 8, 0.0))
            .collect();
        // Closed rows alone — no overload evidence at all.
        let json = format!(r#"{{"serve": [{}]}}"#, closed.join(", "));
        let err = validate_serve(&parse_rows(&json).unwrap()).unwrap_err();
        assert!(err.contains(">= 2 distinct overload tenants"), "{err}");

        // One overload tenant is not a fairness experiment.
        let json = format!(
            r#"{{"serve": [{}, {}]}}"#,
            closed.join(", "),
            serve_row("AlexNet-Tiny", "overload", "gold", 200, 0.5),
        );
        let err = validate_serve(&parse_rows(&json).unwrap()).unwrap_err();
        assert!(err.contains(">= 2 distinct overload tenants"), "{err}");

        // Two tenants but never pushed to 2x saturation.
        let json = format!(
            r#"{{"serve": [{}, {}, {}]}}"#,
            closed.join(", "),
            serve_row("AlexNet-Tiny", "overload", "gold", 100, 0.1),
            serve_row("AlexNet-Tiny", "overload", "bronze", 100, 0.3),
        );
        let err = validate_serve(&parse_rows(&json).unwrap()).unwrap_err();
        assert!(err.contains("no overload row at >= 2x"), "{err}");

        // The full shape passes and the tenant is part of the identity.
        let json = format!(
            r#"{{"serve": [{}, {}, {}, {}, {}]}}"#,
            closed.join(", "),
            serve_row("AlexNet-Tiny", "overload", "gold", 200, 0.5),
            serve_row("AlexNet-Tiny", "overload", "bronze", 200, 0.7),
            chaos_row("baseline", 100.0),
            chaos_row("faulted", 80.0),
        );
        let keys = validate_serve(&parse_rows(&json).unwrap()).unwrap();
        assert_eq!(keys.len(), 7);
        assert_eq!(keys[4].3, "bronze");
        assert_eq!(keys[5].2, "chaos");

        // A shed rate outside [0, 1] is corrupt accounting.
        let json = format!(
            r#"{{"serve": [{}, {}, {}]}}"#,
            closed.join(", "),
            serve_row("AlexNet-Tiny", "overload", "gold", 200, 1.5),
            serve_row("AlexNet-Tiny", "overload", "bronze", 200, 0.7),
        );
        let err = validate_serve(&parse_rows(&json).unwrap()).unwrap_err();
        assert!(err.contains("shed rate"), "{err}");

        // Unknown modes are future traffic shapes, not silent passes.
        let json = format!(
            r#"{{"serve": [{}, {}, {}]}}"#,
            closed.join(", "),
            serve_row("AlexNet-Tiny", "storm", "gold", 200, 0.5),
            serve_row("AlexNet-Tiny", "overload", "bronze", 200, 0.7),
        );
        let err = validate_serve(&parse_rows(&json).unwrap()).unwrap_err();
        assert!(err.contains("unknown mode `storm`"), "{err}");
    }

    #[test]
    fn serve_artifact_must_prove_chaos_recovery() {
        let mut rows: Vec<String> = SERVABLE_MODELS
            .iter()
            .map(|m| serve_row(m, "closed", "all", 8, 0.0))
            .collect();
        rows.push(serve_row("AlexNet-Tiny", "overload", "gold", 200, 0.5));
        rows.push(serve_row("AlexNet-Tiny", "overload", "bronze", 200, 0.7));

        // Overload evidence alone: the chaos A/B pair is still missing.
        let json = format!(r#"{{"serve": [{}]}}"#, rows.join(", "));
        let err = validate_serve(&parse_rows(&json).unwrap()).unwrap_err();
        assert!(err.contains("needs chaos rows"), "{err}");

        // A faulted run without its fault-free twin proves nothing.
        let json = format!(
            r#"{{"serve": [{}, {}]}}"#,
            rows.join(", "),
            chaos_row("faulted", 80.0),
        );
        let err = validate_serve(&parse_rows(&json).unwrap()).unwrap_err();
        assert!(err.contains("needs chaos rows"), "{err}");

        // Goodput collapsing under faults fails the retention floor.
        let json = format!(
            r#"{{"serve": [{}, {}, {}]}}"#,
            rows.join(", "),
            chaos_row("baseline", 100.0),
            chaos_row("faulted", 30.0),
        );
        let err = validate_serve(&parse_rows(&json).unwrap()).unwrap_err();
        assert!(err.contains("retention below floor"), "{err}");

        // Recovery counters outside chaos mode are corrupt accounting.
        let stray = chaos_row("all", 100.0).replace("\"chaos\"", "\"closed\"");
        let json = format!(r#"{{"serve": [{}, {}]}}"#, rows.join(", "), stray);
        let err = validate_serve(&parse_rows(&json).unwrap()).unwrap_err();
        assert!(err.contains("outside chaos mode"), "{err}");
    }

    fn precision_row(model: &str, scheme: &str, segments: &str, pareto: u32) -> String {
        format!(
            r#"{{"model": "{model}", "scheme": "{scheme}", "segments": "{segments}",
                "est_cost_ms": 1.5, "accuracy": 0.66, "exec_rps": 300.0, "pareto": {pareto}}}"#
        )
    }

    #[test]
    fn validates_precision_artifact_coverage() {
        let good = format!(
            r#"{{"precision": [{}, {}, {}]}}"#,
            precision_row("ResNet18-Tiny", "APNN-w1a2", "w1a2,w1a2,w1a2,w1a2,w1a2", 1),
            precision_row("ResNet18-Tiny", "APNN-w2a2", "w2a2,w2a2,w2a2,w2a2,w2a2", 0),
            precision_row(
                "ResNet18-Tiny",
                "APNN-mixed-w1a2x15-w1a3x5-w1a2x1",
                "w1a2,w1a2,w1a2,w1a3,w1a2",
                1
            ),
        );
        let keys = validate_precision(&parse_rows(&good).unwrap()).unwrap();
        assert_eq!(keys.len(), 3);
        assert_eq!(keys[0].1, "APNN-w1a2");

        // Dropping the mixed schedule (the whole point of the artifact)
        // fails coverage, as does losing a uniform reference.
        let no_mixed = format!(
            r#"{{"precision": [{}, {}, {}]}}"#,
            precision_row("ResNet18-Tiny", "APNN-w1a2", "w1a2", 1),
            precision_row("ResNet18-Tiny", "APNN-w2a2", "w2a2", 0),
            precision_row("ResNet18-Tiny", "APNN-w1a3", "w1a3", 0),
        );
        let err = validate_precision(&parse_rows(&no_mixed).unwrap()).unwrap_err();
        assert!(err.contains("no mixed-precision schedule"), "{err}");

        let no_w2a2 = format!(
            r#"{{"precision": [{}, {}, {}]}}"#,
            precision_row("ResNet18-Tiny", "APNN-w1a2", "w1a2", 1),
            precision_row("ResNet18-Tiny", "APNN-mixed-a", "w1a3", 0),
            precision_row("ResNet18-Tiny", "APNN-mixed-b", "w1a4", 0),
        );
        let err = validate_precision(&parse_rows(&no_w2a2).unwrap()).unwrap_err();
        assert!(
            err.contains("missing uniform reference `APNN-w2a2`"),
            "{err}"
        );

        // Fewer than three distinct operating points is a broken front.
        let two = format!(
            r#"{{"precision": [{}, {}]}}"#,
            precision_row("ResNet18-Tiny", "APNN-w1a2", "w1a2", 1),
            precision_row("ResNet18-Tiny", "APNN-w2a2", "w2a2", 0),
        );
        let err = validate_precision(&parse_rows(&two).unwrap()).unwrap_err();
        assert!(err.contains(">= 3 distinct"), "{err}");
    }

    #[test]
    fn rejects_bad_precision_rows() {
        let bad_acc = precision_row("ResNet18-Tiny", "APNN-w1a2", "w1a2", 1)
            .replace("\"accuracy\": 0.66", "\"accuracy\": 1.5");
        let err =
            validate_precision(&parse_rows(&format!(r#"{{"precision": [{bad_acc}]}}"#)).unwrap())
                .unwrap_err();
        assert!(err.contains("accuracy"), "{err}");

        let bad_flag = precision_row("ResNet18-Tiny", "APNN-w1a2", "w1a2", 3);
        let err =
            validate_precision(&parse_rows(&format!(r#"{{"precision": [{bad_flag}]}}"#)).unwrap())
                .unwrap_err();
        assert!(err.contains("pareto flag"), "{err}");

        let bad_segments = precision_row("ResNet18-Tiny", "APNN-w1a2", "x1,w2", 1);
        let err = validate_precision(
            &parse_rows(&format!(r#"{{"precision": [{bad_segments}]}}"#)).unwrap(),
        )
        .unwrap_err();
        assert!(err.contains("malformed segments"), "{err}");
    }

    #[test]
    fn rejects_bad_kernels_rows() {
        let rows = parse_rows(
            r#"{"kernels": [{"case": "AndUnsigned", "op": "nand", "arm": "avx2", "p": 2, "q": 2,
                "m": 8, "n": 8, "k": 128, "jb": 4, "word_gbps": 1.0, "pair_mops": 1.0}]}"#,
        )
        .unwrap();
        let err = validate_kernels(&rows).unwrap_err();
        assert!(err.contains("unexpected op"), "{err}");

        let rows = parse_rows(
            r#"{"kernels": [{"case": "AndUnsigned", "op": "and", "arm": "avx2", "p": 9, "q": 2,
                "m": 8, "n": 8, "k": 128, "jb": 4, "word_gbps": 1.0, "pair_mops": 1.0}]}"#,
        )
        .unwrap();
        let err = validate_kernels(&rows).unwrap_err();
        assert!(err.contains("plane counts"), "{err}");

        // Rows that predate the dispatch refactor carry no `arm` — stale
        // artifacts fail loudly instead of sliding through.
        let rows = parse_rows(
            r#"{"kernels": [{"case": "AndUnsigned", "op": "and", "p": 2, "q": 2, "m": 8,
                "n": 8, "k": 128, "jb": 4, "word_gbps": 1.0, "pair_mops": 1.0}]}"#,
        )
        .unwrap();
        let err = validate_kernels(&rows).unwrap_err();
        assert!(err.contains("missing field `arm`"), "{err}");

        let rows = parse_rows(
            r#"{"kernels": [{"case": "AndUnsigned", "op": "and", "arm": "mmx", "p": 2, "q": 2,
                "m": 8, "n": 8, "k": 128, "jb": 4, "word_gbps": 1.0, "pair_mops": 1.0}]}"#,
        )
        .unwrap();
        let err = validate_kernels(&rows).unwrap_err();
        assert!(err.contains("unknown popcount arm"), "{err}");

        // A sweep that drops one of the seven emulation cases is a broken
        // trajectory even when every surviving row is well-formed.
        let one_case = r#"{"kernels": [{"case": "AndUnsigned", "op": "and", "arm": "scalar",
            "p": 2, "q": 2, "m": 8, "n": 8, "k": 128, "jb": 4,
            "word_gbps": 1.0, "pair_mops": 1.0}]}"#;
        let err = validate_kernels(&parse_rows(one_case).unwrap()).unwrap_err();
        assert!(err.contains("missing case"), "{err}");
    }

    #[test]
    fn key_set_mismatch_is_detected() {
        let a = vec![(1u64, 1u64), (2, 1)];
        let b = vec![(1u64, 1u64), (2, 1)];
        assert!(same_keys(&a, &b, "serve").is_ok());
        let c = vec![(1u64, 1u64), (4, 1)];
        let err = same_keys(&a, &c, "serve").unwrap_err();
        assert!(err.contains("different sweep points"));
    }

    #[test]
    fn round_trips_real_artifact_renderers() {
        use crate::artifacts::{exec_json, serve_json, ExecPoint};
        use crate::serve_load::LoadPoint;
        let epoints: Vec<ExecPoint> = SERVABLE_MODELS
            .iter()
            .map(|model| ExecPoint {
                model: (*model).into(),
                scheme: "APNN-w1a2".into(),
                batch: 8,
                requests: 32,
                threads: 2,
                pool: 2,
                reused_ws_rps: 321.0,
                fresh_ws_rps: 300.0,
                workspace_bytes: 1024,
            })
            .collect();
        let ejson = exec_json(&epoints);
        let keys = validate_exec(&parse_rows(&ejson).unwrap()).unwrap();
        assert_eq!(keys.len(), 3);
        assert_eq!(keys[0], ("AlexNet-Tiny".into(), "APNN-w1a2".into(), 2));

        let closed_point = |model: &str| LoadPoint {
            model: model.into(),
            scheme: "APNN-w1a2".into(),
            mode: "closed".into(),
            tenant: "all".into(),
            burst: 16,
            threads: 4,
            pool: 8,
            mean_fill: 7.5,
            p50_ticks: 3,
            p99_ticks: 11,
            offered_rps: 410.0,
            throughput_rps: 410.0,
            shed_rate: 0.0,
            expired: 0,
            poisoned: 0,
            worker_restarts: 0,
            rollbacks: 0,
            client_retries: 0,
            version: 1,
        };
        let mut spoints: Vec<LoadPoint> = SERVABLE_MODELS
            .iter()
            .map(|model| closed_point(model))
            .collect();
        for tenant in ["gold", "bronze"] {
            spoints.push(LoadPoint {
                mode: "overload".into(),
                tenant: tenant.into(),
                burst: 200,
                threads: 1,
                offered_rps: 820.0,
                throughput_rps: 300.0,
                shed_rate: 0.55,
                expired: 7,
                ..closed_point("AlexNet-Tiny")
            });
        }
        for (tenant, rps, restarts) in [("baseline", 400.0, 0), ("faulted", 320.0, 5)] {
            spoints.push(LoadPoint {
                mode: "chaos".into(),
                tenant: tenant.into(),
                burst: 25,
                threads: 1,
                throughput_rps: rps,
                poisoned: restarts / 2,
                worker_restarts: restarts,
                ..closed_point("AlexNet-Tiny")
            });
        }
        let sjson = serve_json(&spoints);
        let keys = validate_serve(&parse_rows(&sjson).unwrap()).unwrap();
        assert_eq!(keys.len(), 7);
        assert_eq!(
            keys[2],
            (
                "ResNet18-Tiny".into(),
                "APNN-w1a2".into(),
                "closed".into(),
                "all".into(),
                16,
                4
            )
        );
        assert_eq!(keys[4].3, "bronze");
    }
}
