//! The result schema: the JSON object printed as the last line of a run.

use tane_util::Json;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: String,
}

impl Metric {
    /// A metric; panics on a name or unit outside the grammar, which would
    /// be a bug in the benchmark's own metric table.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        assert!(valid_name(name), "bad metric name `{name}`");
        assert!(valid_unit(unit), "bad unit `{unit}` for `{name}`");
        Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit.to_string(),
        }
    }
}

/// Metric and workload names: 1–64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Units: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// Share of attempted operations that failed; 0 when nothing was tried.
pub fn error_rate(attempted: u64, failed: u64) -> f64 {
    crate::stats::ratio(failed as f64, attempted as f64)
}

/// One run's verdict and figures.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every checked output was right and no operation failed.
    pub correct: bool,
    /// Operations attempted (discoveries, or HTTP requests).
    pub attempted: u64,
    /// Operations that errored, answered non-2xx, returned a wrong
    /// output, or leaked spill files.
    pub failed: u64,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The one-line JSON form.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.clone())),
                ]);
                (m.name.clone(), body)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// Parses [`RunResult::to_json`] output back, checking the schema:
    /// exactly the four keys, whole-number counts, `attempted ≥ 1`, and
    /// grammatical metric names and units.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        let Json::Obj(members) = &doc else {
            return Err("result is not an object".into());
        };
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("result keys {keys:?}"));
        }
        let count = |key: &str| {
            let v = doc.get(key).and_then(Json::as_f64).unwrap_or(-1.0);
            if v >= 0.0 && v.fract() == 0.0 {
                Ok(v as u64)
            } else {
                Err(format!("`{key}` is not a whole number"))
            }
        };
        let attempted = count("attempted")?;
        if attempted == 0 {
            return Err("`attempted` is 0".into());
        }
        let Some(Json::Obj(entries)) = doc.get("metrics") else {
            return Err("`metrics` is not an object".into());
        };
        let mut metrics = Vec::new();
        for (name, body) in entries {
            let value = body.get("value").and_then(Json::as_f64);
            let unit = body.get("unit").and_then(Json::as_str);
            let (Some(value), Some(unit)) = (value, unit) else {
                return Err(format!("metric `{name}` lacks value or unit"));
            };
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!("metric `{name}` [{unit}] breaks the grammar"));
            }
            metrics.push(Metric {
                name: name.clone(),
                value,
                unit: unit.to_string(),
            });
        }
        Ok(RunResult {
            correct: doc
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("`correct` is not a boolean")?,
            attempted,
            failed: count("failed")?,
            metrics,
        })
    }
}
