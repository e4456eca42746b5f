//! Result assembly: named metrics with units, failure accounting, and the
//! final one-line JSON object.

use std::collections::BTreeMap;

/// Every metric of one run, by name, in emission order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.values.retain(|(n, _, _)| *n != name);
        self.values.push((name, value, unit));
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<String> {
        self.values
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.clone())
            .collect()
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Attempts, failures and the reasons for the first few failures.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: BTreeMap<String, u64>,
}

impl Outcome {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        *self.reasons.entry(why.into()).or_default() += 1;
    }

    /// Records one check: passes count as attempts, failures as failed
    /// attempts with `why`.
    pub fn check(&mut self, pass: bool, why: impl FnOnce() -> String) {
        if pass {
            self.ok();
        } else {
            self.fail(why());
        }
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in other.reasons {
            *self.reasons.entry(k).or_default() += v;
        }
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }
}

/// The run's context line: host facts, knobs and sample counts, so a
/// result is only ever compared with one recorded under the same terms.
#[derive(Debug, Default)]
pub struct Context {
    entries: Vec<(String, String)>,
}

impl Context {
    pub fn put(&mut self, key: &str, value: impl std::fmt::Display) {
        self.entries.push((key.to_string(), format!("{value}")));
    }

    pub fn put_str(&mut self, key: &str, value: &str) {
        self.entries.push((key.to_string(), format!("\"{value}\"")));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Prints the human-readable report, the context line and, last, the
/// result object. Returns whether the run was correct.
pub fn emit(metrics: &Metrics, outcome: &Outcome, context: &Context) -> bool {
    let bad = metrics.non_finite();
    let correct = outcome.failed == 0 && outcome.attempted > 0 && bad.is_empty();
    for (n, v, u) in &metrics.values {
        println!("{n:<40} {v:>16.6} {u}");
    }
    for (why, count) in &outcome.reasons {
        println!("failure x{count}: {why}");
    }
    for n in &bad {
        println!("failure: metric {n} is not a finite number");
    }
    println!("context {}", context.json());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics.json()
    );
    correct
}
