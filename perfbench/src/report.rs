//! What one run prints: metrics with units, the correctness verdict, and
//! diagnostics (sample counts, tail percentiles used, layer metrics that
//! only some workloads have).

use std::collections::BTreeMap;

use serde_json::{Number, Value};

use crate::stats::summarise;

#[derive(Default)]
pub struct Report {
    /// Name → (value, unit), in insertion order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Workload-specific layer metrics, printed on the diagnostics line.
    pub extras: Vec<(String, f64, &'static str)>,
    pub notes: BTreeMap<String, Value>,
    pub mismatches: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extras.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.insert(key.to_string(), value);
    }

    /// Records a correctness failure; the run then reports
    /// `correct: false` and exits non-zero.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        let what = what.into();
        if self.mismatches.len() < 20 {
            eprintln!("alexbench: MISMATCH: {what}");
        }
        self.mismatches.push(what);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatch(what());
        }
    }

    /// `<name>_p50` of `samples` (or, with `tail`, `<name>_p99`: the
    /// highest percentile up to 99 with ten samples beyond it), with the
    /// sample count and the percentile used noted.
    pub fn latency(&mut self, name: &str, samples: &[f64], tail: bool) {
        let Some(s) = summarise(samples, 0.99) else {
            self.mismatch(format!("{name}: {} samples is too few", samples.len()));
            return;
        };
        self.note(
            &format!("{name}_samples"),
            Value::Number(Number::U64(s.n as u64)),
        );
        if tail {
            self.note(&format!("{name}_tail_q"), num(s.tail_q));
            self.metric(&format!("{name}_p99"), s.tail, "ms");
        } else {
            self.metric(&format!("{name}_p50"), s.p50, "ms");
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    fn metrics_json(items: &[(String, f64, &'static str)]) -> Value {
        Value::Object(
            items
                .iter()
                .map(|(name, v, unit)| {
                    (
                        name.clone(),
                        Value::Object(vec![
                            ("value".to_string(), num(*v)),
                            ("unit".to_string(), Value::String(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The diagnostics line: notes, mismatches and workload-specific
    /// layer metrics.
    pub fn diagnostics_line(&self) -> String {
        let mut fields: Vec<(String, Value)> = self
            .notes
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        fields.push((
            "mismatches".to_string(),
            Value::Array(
                self.mismatches
                    .iter()
                    .map(|m| Value::String(m.clone()))
                    .collect(),
            ),
        ));
        fields.push(("layer_extras".to_string(), Self::metrics_json(&self.extras)));
        Value::Object(vec![("diagnostics".to_string(), Value::Object(fields))])
            .to_json_string(false)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            (
                "attempted".to_string(),
                Value::Number(Number::U64(self.attempted.max(1))),
            ),
            (
                "failed".to_string(),
                Value::Number(Number::U64(self.failed)),
            ),
            ("metrics".to_string(), Self::metrics_json(&self.metrics)),
        ])
        .to_json_string(false)
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become
/// `null`, which the harness rejects.
pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Number(Number::F64(v))
    } else {
        Value::Null
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
