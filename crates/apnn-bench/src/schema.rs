//! The committed benchmark artifacts' format: one row spec per artifact.
//!
//! Each `BENCH_<name>.json` file is one flat array of scalar rows, and its
//! [`Spec`] is the only place that format is written down: the field names
//! in order, each field's [`Kind`] (which values it accepts and how many
//! decimals it is written with), which fields form a row's identity key,
//! and a coverage rule over the whole row set. [`render`] writes rows by
//! walking the spec and [`validate`] checks them by walking it again, so
//! the writer and the `repro check-bench` gate cannot drift apart.
//!
//! The `bench-trajectory` CI job regenerates every artifact on the runner
//! and validates both the fresh and the committed copies here; for a keyed
//! artifact the two copies must also cover the same identity keys. The
//! gate is **schema-shaped, not threshold-shaped** — absolute throughput
//! on a shared runner is noise (`bench/` gates speed), but a silently
//! dropped chaos tenant or operating point is a broken trajectory.
//!
//! The parser below handles exactly the flat JSON [`render`] emits: one
//! top-level array of objects whose values are numbers or strings. The
//! offline `serde` shim has no deserializer, so this is hand-rolled — and
//! deliberately strict about that shape.

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

impl From<&str> for JsonVal {
    fn from(s: &str) -> Self {
        JsonVal::Str(s.to_string())
    }
}

macro_rules! num_from {
    ($($t:ty),*) => {$(
        impl From<$t> for JsonVal {
            fn from(v: $t) -> Self {
                JsonVal::Num(v as f64)
            }
        }
    )*};
}
num_from!(f64, f32, usize, u64, u32);

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

/// A row's identity key: its key fields' values, as written.
pub type Key = Vec<String>;

/// What a field holds: the values [`validate`] accepts and how [`render`]
/// writes them.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A non-empty string whose comma-separated items all start with this
    /// prefix.
    Label(&'static str),
    /// A string from a fixed set.
    OneOf(&'static [&'static str]),
    /// A 0/1 flag.
    Flag,
    /// An integer `>= min`.
    Int {
        /// Smallest accepted value.
        min: u64,
    },
    /// A real in `[min, max]`, written with `decimals` decimals.
    Real {
        /// Smallest accepted value.
        min: f64,
        /// Largest accepted value.
        max: f64,
        /// Decimals the value is written with.
        decimals: usize,
    },
}

impl Kind {
    /// The value as written, without string quotes.
    fn text(self, v: &JsonVal) -> String {
        match (self, v) {
            (_, JsonVal::Str(s)) => s.clone(),
            (Kind::Real { decimals, .. }, JsonVal::Num(v)) => format!("{v:.decimals$}"),
            (_, JsonVal::Num(v)) => format!("{v:.0}"),
        }
    }
}

/// A measurement that must be positive, written with `decimals` decimals.
const fn positive(decimals: usize) -> Kind {
    Kind::Real {
        min: f64::MIN_POSITIVE,
        max: f64::INFINITY,
        decimals,
    }
}

/// An integer count that may be zero.
const COUNT: Kind = Kind::Int { min: 0 };

/// An integer dimension or population of at least one.
const DIM: Kind = Kind::Int { min: 1 };

/// One named field of an artifact row.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// JSON key.
    pub name: &'static str,
    /// Accepted values and written form.
    pub kind: Kind,
    /// Whether the field is part of the row's identity key.
    pub key: bool,
}

const fn key(name: &'static str, kind: Kind) -> Field {
    Field {
        name,
        kind,
        key: true,
    }
}

const fn field(name: &'static str, kind: Kind) -> Field {
    Field {
        name,
        kind,
        key: false,
    }
}

impl Field {
    /// Why `v` is not a value of this field, if it is not.
    fn check(&self, v: &JsonVal) -> Result<(), String> {
        let name = self.name;
        let whole = |v: f64| v.fract() == 0.0;
        let bad = match (self.kind, v) {
            (Kind::Label(prefix), JsonVal::Str(s)) => {
                let ok = !s.is_empty() && s.split(',').all(|item| item.starts_with(prefix));
                (!ok).then(|| format!("malformed {name} `{s}`"))
            }
            (Kind::OneOf(set), JsonVal::Str(s)) => {
                (!set.contains(&s.as_str())).then(|| format!("unexpected {name} `{s}`"))
            }
            (Kind::Label(_) | Kind::OneOf(_), JsonVal::Num(_)) => {
                Some(format!("field `{name}` is not a string"))
            }
            (_, JsonVal::Str(_)) => Some(format!("field `{name}` is not a number")),
            (_, JsonVal::Num(v)) if !v.is_finite() => Some(format!("field `{name}` is not finite")),
            (Kind::Flag, &JsonVal::Num(v)) => {
                (v != 0.0 && v != 1.0).then(|| format!("{name} flag must be 0 or 1"))
            }
            (Kind::Int { min }, &JsonVal::Num(v)) => (v < min as f64 || !whole(v))
                .then(|| format!("`{name}` must be an integer >= {min}, got {v}")),
            (Kind::Real { min, max, .. }, &JsonVal::Num(v)) => (!(min..=max).contains(&v))
                .then(|| format!("{} {v} out of range", name.replace('_', " "))),
        };
        bad.map_or(Ok(()), Err)
    }
}

/// One artifact's format: its fields and its coverage rule.
#[derive(Debug)]
pub struct Spec {
    /// The file's top-level key; the file is `BENCH_<name>.json`.
    pub name: &'static str,
    /// The row fields, in written order.
    pub fields: &'static [Field],
    /// Whether `repro check-bench` requires the fresh and committed copies
    /// to cover the same identity keys. When false, each copy is checked
    /// on its own.
    pub keyed: bool,
    /// The whole-artifact rule, run once every row is valid.
    pub cover: fn(&[Row]) -> Result<(), String>,
}

impl Spec {
    /// The artifact's file name.
    pub fn file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// A row from values listed in the spec's field order.
    pub fn row<const N: usize>(&self, values: [JsonVal; N]) -> Row {
        assert_eq!(
            N,
            self.fields.len(),
            "{} rows have {} fields",
            self.name,
            self.fields.len()
        );
        self.fields
            .iter()
            .map(|f| f.name.to_string())
            .zip(values)
            .collect()
    }
}

/// Write `rows` as the artifact's file content: every field of every row,
/// in spec order, each number with its kind's decimals.
pub fn render(spec: &Spec, rows: &[Row]) -> String {
    let mut out = format!("{{\n\"{}\": [\n", spec.name);
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> = spec
            .fields
            .iter()
            .map(|f| {
                let v = row
                    .get(f.name)
                    .unwrap_or_else(|| panic!("{} row {i} has no `{}`", spec.name, f.name));
                match v {
                    JsonVal::Str(s) => format!("\"{}\": \"{s}\"", f.name),
                    JsonVal::Num(_) => format!("\"{}\": {}", f.name, f.kind.text(v)),
                }
            })
            .collect();
        let sep = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("  {{{}}}{sep}\n", fields.join(", ")));
    }
    out.push_str("]\n}\n");
    out
}

/// Check `rows` against `spec`: every declared field present and nothing
/// else, every value of its kind, then the coverage rule. Returns each
/// row's identity [`Key`].
pub fn validate(spec: &Spec, rows: &[Row]) -> Result<Vec<Key>, String> {
    if rows.is_empty() {
        return Err(format!("{} artifact has no rows", spec.name));
    }
    let mut keys = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let at = |e: String| format!("{} row {i}: {e}", spec.name);
        if let Some(f) = spec.fields.iter().find(|f| !row.contains_key(f.name)) {
            return Err(at(format!("missing field `{}`", f.name)));
        }
        if let Some(name) = row
            .keys()
            .find(|k| !spec.fields.iter().any(|f| f.name == k.as_str()))
        {
            return Err(at(format!("undeclared field `{name}`")));
        }
        for f in spec.fields {
            f.check(&row[f.name]).map_err(at)?;
        }
        keys.push(
            spec.fields
                .iter()
                .filter(|f| f.key)
                .map(|f| f.kind.text(&row[f.name]))
                .collect(),
        );
    }
    (spec.cover)(rows)?;
    Ok(keys)
}

/// Field `name` of a validated row, as a number.
fn num(row: &Row, name: &str) -> f64 {
    row[name].as_num().expect("validated numeric field")
}

/// Field `name` of a validated row, as a string.
fn text<'a>(row: &'a Row, name: &str) -> &'a str {
    row[name].as_str().expect("validated string field")
}

/// The servable-zoo model set: the only models an artifact row may name.
pub const SERVABLE_MODELS: [&str; 3] = ["AlexNet-Tiny", "VGG-Variant-Tiny", "ResNet18-Tiny"];

const MODEL: Kind = Kind::OneOf(&SERVABLE_MODELS);
const SCHEME: Kind = Kind::Label("APNN-");

/// `BENCH_serve.json`: the chaos A/B pair — one closed-loop workload on a
/// fault-free twin (`baseline`) and under injected faults (`faulted`),
/// keyed by the fault rate per mille (`burst`).
pub static SERVE: Spec = Spec {
    name: "serve",
    fields: &[
        key("model", MODEL),
        key("scheme", SCHEME),
        key("tenant", Kind::OneOf(&["baseline", "faulted"])),
        key("burst", DIM),
        field("pool", DIM),
        field(
            "mean_fill",
            Kind::Real {
                min: 1.0,
                max: 1024.0,
                decimals: 3,
            },
        ),
        field("p50_ticks", COUNT),
        field("p99_ticks", COUNT),
        field("offered_rps", positive(1)),
        field("throughput_rps", positive(1)),
        field(
            "shed_rate",
            Kind::Real {
                min: 0.0,
                max: 1.0,
                decimals: 4,
            },
        ),
        field("expired", COUNT),
        field("poisoned", COUNT),
        field("worker_restarts", COUNT),
        field("rollbacks", COUNT),
        field("client_retries", COUNT),
        field("version", DIM),
    ],
    keyed: true,
    cover: serve_cover,
};

/// Both halves of the chaos pair present, with the faulted run retaining at
/// least half the fault-free goodput. Losing the pair (or the floor)
/// silently drops the recovery evidence.
fn serve_cover(rows: &[Row]) -> Result<(), String> {
    for (i, row) in rows.iter().enumerate() {
        let (p50, p99) = (num(row, "p50_ticks"), num(row, "p99_ticks"));
        if p50 > p99 {
            return Err(format!("serve row {i}: p50 {p50} exceeds p99 {p99}"));
        }
    }
    let goodput = |tenant: &str| -> f64 {
        rows.iter()
            .filter(|r| text(r, "tenant") == tenant)
            .map(|r| num(r, "throughput_rps"))
            .sum()
    };
    let (baseline, faulted) = (goodput("baseline"), goodput("faulted"));
    if baseline <= 0.0 || faulted <= 0.0 {
        return Err(format!(
            "serve artifact needs chaos rows for tenants `baseline` and `faulted`, got {:?}",
            rows.iter().map(|r| text(r, "tenant")).collect::<Vec<_>>()
        ));
    }
    if faulted < 0.5 * baseline {
        return Err(format!(
            "chaos goodput retention below floor: faulted {faulted:.1} req/s < 50% of \
             baseline {baseline:.1} req/s"
        ));
    }
    Ok(())
}

/// `BENCH_precision.json`: the precision autotuner's operating points.
///
/// Keyed on the word count as well as the scheme: both search axes are
/// deterministic, so a fresh run must emit the committed front with the
/// committed counts.
pub static PRECISION: Spec = Spec {
    name: "precision",
    fields: &[
        key("model", MODEL),
        key("scheme", SCHEME),
        field("segments", Kind::Label("w")),
        key("pair_words", DIM),
        field(
            "accuracy",
            Kind::Real {
                min: f64::MIN_POSITIVE,
                max: 1.0,
                decimals: 4,
            },
        ),
        field("pareto", Kind::Flag),
    ],
    keyed: true,
    cover: precision_cover,
};

/// The residual model covered with at least three distinct operating
/// points, both uniform references (`APNN-w1a2`, `APNN-w2a2`) alongside at
/// least one mixed schedule, and at least one row on the Pareto front.
fn precision_cover(rows: &[Row]) -> Result<(), String> {
    let resnet = "ResNet18-Tiny";
    let mut schemes: Vec<&str> = rows
        .iter()
        .filter(|r| text(r, "model") == resnet)
        .map(|r| text(r, "scheme"))
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
    if !rows.iter().any(|r| num(r, "pareto") == 1.0) {
        return Err("precision artifact has no Pareto-front row".into());
    }
    Ok(())
}

/// Every committed artifact, in the order `repro check-bench` reports them.
pub static SPECS: [&Spec; 2] = [&SERVE, &PRECISION];

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

    fn check(spec: &Spec, rows: &[String]) -> Result<Vec<Key>, String> {
        let json = format!(r#"{{"{}": [{}]}}"#, spec.name, rows.join(", "));
        validate(spec, &parse_rows(&json).unwrap())
    }

    #[test]
    fn rows_are_strict() {
        let pair = [chaos_row("baseline", 100.0), chaos_row("faulted", 80.0)];
        // A fractional or negative count is corrupt, not rounded.
        for (from, to) in [
            ("\"burst\": 25,", "\"burst\": 25.5,"),
            ("\"pool\": 4,", "\"pool\": -1,"),
        ] {
            let err = check(&SERVE, &[pair[0].clone(), pair[1].replacen(from, to, 1)]).unwrap_err();
            assert!(err.contains("must be an integer >= 1"), "{err}");
        }
        // A field the spec does not declare is a format change nobody
        // wrote down.
        let noted = pair[1].replacen("\"pool\": 4,", "\"pool\": 4, \"note\": \"x\",", 1);
        let err = check(&SERVE, &[pair[0].clone(), noted]).unwrap_err();
        assert!(
            err.contains("serve row 1: undeclared field `note`"),
            "{err}"
        );
    }

    #[test]
    fn rejects_missing_fields_and_bad_ranges() {
        let truncated = r#"{"model": "ResNet18-Tiny", "scheme": "APNN-w1a2", "segments": "w1a2"}"#;
        let err = check(&PRECISION, &[truncated.to_string()]).unwrap_err();
        assert!(err.contains("missing field `pair_words`"), "{err}");

        let low_fill =
            chaos_row("baseline", 10.0).replace("\"mean_fill\": 4.0", "\"mean_fill\": 0.2");
        let err = check(&SERVE, &[low_fill]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");

        // Rows that predate the fault-injection harness carry no recovery
        // counters — stale artifacts fail loudly.
        let stale = chaos_row("baseline", 10.0).replace("\"poisoned\": 2, ", "");
        let err = check(&SERVE, &[stale]).unwrap_err();
        assert!(err.contains("missing field `poisoned`"), "{err}");

        // Rows that predate the zoo-wide serve sweep carry no `model`.
        let rows = parse_rows(
            r#"{"serve": [{"burst": 8, "threads": 1, "pool": 1, "mean_fill": 2.0,
                "p50_ticks": 0, "p99_ticks": 1, "throughput_rps": 10.0}]}"#,
        )
        .unwrap();
        let err = validate(&SERVE, &rows).unwrap_err();
        assert!(err.contains("missing field `model`"), "{err}");

        // Rows that predate the mixed-precision registry carry no `scheme`.
        let rows = parse_rows(
            r#"{"serve": [{"model": "VGG-Variant-Tiny", "burst": 8, "threads": 1, "pool": 1,
                "mean_fill": 2.0, "p50_ticks": 0, "p99_ticks": 1, "throughput_rps": 10.0}]}"#,
        )
        .unwrap();
        let err = validate(&SERVE, &rows).unwrap_err();
        assert!(err.contains("missing field `scheme`"), "{err}");

        // Rows that predate the multi-tenant serve tier carry no `tenant`
        // (or `shed_rate`, ...) — stale artifacts fail loudly.
        let rows = parse_rows(
            r#"{"serve": [{"model": "VGG-Variant-Tiny", "scheme": "APNN-w1a2", "burst": 8,
                "threads": 1, "pool": 1, "mean_fill": 2.0, "p50_ticks": 0, "p99_ticks": 1,
                "throughput_rps": 10.0}]}"#,
        )
        .unwrap();
        let err = validate(&SERVE, &rows).unwrap_err();
        assert!(err.contains("missing field `tenant`"), "{err}");
    }

    fn chaos_row(tenant: &str, rps: f64) -> String {
        format!(
            r#"{{"model": "AlexNet-Tiny", "scheme": "APNN-w1a2", "tenant": "{tenant}",
                "burst": 25, "pool": 4, "mean_fill": 4.0, "p50_ticks": 2, "p99_ticks": 14,
                "offered_rps": 120.0, "throughput_rps": {rps}, "shed_rate": 0.02,
                "expired": 1, "poisoned": 2, "worker_restarts": 3, "rollbacks": 0,
                "client_retries": 1, "version": 1}}"#
        )
    }

    #[test]
    fn serve_artifact_must_prove_chaos_recovery() {
        // A faulted run without its fault-free twin proves nothing, and
        // vice versa.
        for tenant in ["baseline", "faulted"] {
            let err = check(&SERVE, &[chaos_row(tenant, 80.0)]).unwrap_err();
            assert!(err.contains("needs chaos rows"), "{err}");
        }

        // Goodput collapsing under faults fails the retention floor.
        let err = check(
            &SERVE,
            &[chaos_row("baseline", 100.0), chaos_row("faulted", 30.0)],
        )
        .unwrap_err();
        assert!(err.contains("retention below floor"), "{err}");

        // The full pair passes; the tenant and the rate are the identity.
        let pair = [chaos_row("baseline", 100.0), chaos_row("faulted", 80.0)];
        let keys = check(&SERVE, &pair).unwrap();
        assert_eq!(keys[1], ["AlexNet-Tiny", "APNN-w1a2", "faulted", "25"]);

        // A shed rate outside [0, 1] is corrupt accounting.
        let bad_shed = pair[1].replace("\"shed_rate\": 0.02", "\"shed_rate\": 1.5");
        let err = check(&SERVE, &[pair[0].clone(), bad_shed]).unwrap_err();
        assert!(err.contains("shed rate"), "{err}");

        // Quantiles out of order are corrupt accounting too.
        let bad_tail = pair[1].replace("\"p99_ticks\": 14", "\"p99_ticks\": 1");
        let err = check(&SERVE, &[pair[0].clone(), bad_tail]).unwrap_err();
        assert!(err.contains("exceeds p99"), "{err}");

        // Unknown tenants are future traffic shapes, not silent passes.
        let err = check(&SERVE, &[pair[0].clone(), chaos_row("storm", 80.0)]).unwrap_err();
        assert!(err.contains("unexpected tenant `storm`"), "{err}");
    }

    fn precision_row(model: &str, scheme: &str, segments: &str, pareto: u32) -> String {
        format!(
            r#"{{"model": "{model}", "scheme": "{scheme}", "segments": "{segments}",
                "pair_words": 1500000, "accuracy": 0.66, "pareto": {pareto}}}"#
        )
    }

    #[test]
    fn validates_precision_artifact_coverage() {
        let good = [
            precision_row("ResNet18-Tiny", "APNN-w1a2", "w1a2,w1a2,w1a2,w1a2,w1a2", 1),
            precision_row("ResNet18-Tiny", "APNN-w2a2", "w2a2,w2a2,w2a2,w2a2,w2a2", 0),
            precision_row(
                "ResNet18-Tiny",
                "APNN-mixed-w1a2x15-w1a3x5-w1a2x1",
                "w1a2,w1a2,w1a2,w1a3,w1a2",
                1,
            ),
        ];
        let keys = check(&PRECISION, &good).unwrap();
        assert_eq!(keys.len(), 3);
        assert_eq!(keys[0], ["ResNet18-Tiny", "APNN-w1a2", "1500000"]);

        // Dropping the mixed schedule (the whole point of the artifact)
        // fails coverage, as does losing a uniform reference.
        let no_mixed = [
            precision_row("ResNet18-Tiny", "APNN-w1a2", "w1a2", 1),
            precision_row("ResNet18-Tiny", "APNN-w2a2", "w2a2", 0),
            precision_row("ResNet18-Tiny", "APNN-w1a3", "w1a3", 0),
        ];
        let err = check(&PRECISION, &no_mixed).unwrap_err();
        assert!(err.contains("no mixed-precision schedule"), "{err}");

        let no_w2a2 = [
            precision_row("ResNet18-Tiny", "APNN-w1a2", "w1a2", 1),
            precision_row("ResNet18-Tiny", "APNN-mixed-a", "w1a3", 0),
            precision_row("ResNet18-Tiny", "APNN-mixed-b", "w1a4", 0),
        ];
        let err = check(&PRECISION, &no_w2a2).unwrap_err();
        assert!(
            err.contains("missing uniform reference `APNN-w2a2`"),
            "{err}"
        );

        // Fewer than three distinct operating points is a broken front.
        let two = [
            precision_row("ResNet18-Tiny", "APNN-w1a2", "w1a2", 1),
            precision_row("ResNet18-Tiny", "APNN-w2a2", "w2a2", 0),
        ];
        let err = check(&PRECISION, &two).unwrap_err();
        assert!(err.contains(">= 3 distinct"), "{err}");
    }

    #[test]
    fn rejects_bad_precision_rows() {
        let row = precision_row("ResNet18-Tiny", "APNN-w1a2", "w1a2", 1);
        let bad_acc = row.replace("\"accuracy\": 0.66", "\"accuracy\": 1.5");
        let err = check(&PRECISION, &[bad_acc]).unwrap_err();
        assert!(err.contains("accuracy"), "{err}");

        let bad_flag = precision_row("ResNet18-Tiny", "APNN-w1a2", "w1a2", 3);
        let err = check(&PRECISION, &[bad_flag]).unwrap_err();
        assert!(err.contains("pareto flag"), "{err}");

        let bad_segments = precision_row("ResNet18-Tiny", "APNN-w1a2", "x1,w2", 1);
        let err = check(&PRECISION, &[bad_segments]).unwrap_err();
        assert!(err.contains("malformed segments"), "{err}");

        // The dropped timed column does not slide back in.
        let timed = row.replace("\"pareto\"", "\"exec_rps\": 4259.0, \"pareto\"");
        let err = check(&PRECISION, &[timed]).unwrap_err();
        assert!(err.contains("undeclared field `exec_rps`"), "{err}");

        // Nor does the retired timed price. Its name is spelled in halves so
        // a search for the deleted field finds no live use of it.
        let retired = concat!("est_cost", "_ms");
        let priced = row.replace("\"pareto\"", &format!("\"{retired}\": 1.776, \"pareto\""));
        let err = check(&PRECISION, &[priced]).unwrap_err();
        assert!(
            err.contains(&format!("undeclared field `{retired}`")),
            "{err}"
        );
    }

    #[test]
    fn key_set_mismatch_is_detected() {
        let a = vec![(1u64, 1u64), (2, 1)];
        let b = vec![(1u64, 1u64), (2, 1)];
        assert!(same_keys(&a, &b, "serve").is_ok());
        let c = vec![(1u64, 1u64), (4, 1)];
        let err = same_keys(&a, &c, "serve").unwrap_err();
        assert!(err.contains("different sweep points"));

        // Two precision copies that differ only in a word count: the count
        // is part of the identity, so the fronts do not match.
        let copy = |words: &str| {
            let rows = [
                precision_row("ResNet18-Tiny", "APNN-w1a2", "w1a2", 1).replace("1500000", words),
                precision_row("ResNet18-Tiny", "APNN-w2a2", "w2a2", 0),
                precision_row("ResNet18-Tiny", "APNN-mixed-a", "w1a3", 1),
            ];
            check(&PRECISION, &rows).unwrap()
        };
        assert!(same_keys(&copy("1500000"), &copy("1500000"), "precision").is_ok());
        let err = same_keys(&copy("1500000"), &copy("1500001"), "precision").unwrap_err();
        assert!(err.contains("different sweep points"), "{err}");
    }

    #[test]
    fn round_trips_real_artifact_renderers() {
        // Every committed artifact validates and renders back to itself
        // byte for byte: the spec pins field order and decimals.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        // And every committed artifact has a spec, and every spec its file.
        let mut committed: Vec<String> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
            .collect();
        committed.sort();
        let mut specified: Vec<String> = SPECS.iter().map(|s| s.file()).collect();
        specified.sort();
        assert_eq!(
            committed, specified,
            "committed artifacts vs. schema::SPECS"
        );
        for spec in SPECS {
            let text = std::fs::read_to_string(root.join(spec.file())).unwrap();
            let rows = parse_rows(&text).unwrap();
            validate(spec, &rows).unwrap_or_else(|e| panic!("{}: {e}", spec.file()));
            assert_eq!(render(spec, &rows), text, "{}", spec.file());
        }
    }
}
