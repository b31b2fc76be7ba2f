//! Sample summaries and the hand-written JSON the benchmark prints.

use std::fmt::Write as _;
use std::time::Duration;

/// Quantile `q` in `[0, 1]` of `samples` by linear interpolation between
/// closest ranks (Python's `statistics.quantiles(method="inclusive")`).
/// Returns 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Named metrics in print order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) print as 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A flat JSON object built field by field (values already encoded).
#[derive(Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.0.push((key.into(), num(v)));
        self
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.0.push((key.into(), v.to_string()));
        self
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.0.push((key.into(), string(v)));
        self
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.0.push((key.into(), v.to_string()));
        self
    }

    pub fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.0.push((key.into(), json));
        self
    }

    pub fn encode(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
