//! The result line the benchmark prints, and the summary statistics behind
//! it.

use std::time::Instant;

/// One run's outcome: how many checked units were attempted and failed, and
/// the named metrics in print order.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one checked unit; `Err` marks it failed and reports why on
    /// stderr (stdout carries only the result line).
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: check failed: {what}: {e}");
                false
            }
        }
    }

    /// The single JSON line: `{"correct", "attempted", "failed", "metrics"}`.
    /// A non-finite value (a metric whose every sample was discarded) turns
    /// the run incorrect rather than producing invalid JSON.
    pub fn to_json(&self) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut fields = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                correct = false;
                eprintln!("perfbench: metric {name} has no valid sample");
                "0.0".to_string()
            };
            fields.push(format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(",")
        )
    }
}

/// Paces the repetitions of a measured phase: at least `min` of them, then
/// more only while one as long as the longest so far still ends within the
/// time budget, so a run lasts about `--seconds` however long a unit is.
pub struct Deadline {
    start: Instant,
    last: Instant,
    seconds: f64,
    longest: f64,
    done: usize,
    min: usize,
}

impl Deadline {
    pub fn new(seconds: f64, min: usize) -> Self {
        let now = Instant::now();
        Deadline {
            start: now,
            last: now,
            seconds,
            longest: 0.0,
            done: 0,
            min,
        }
    }

    /// Whether to start another repetition.
    pub fn next(&mut self) -> bool {
        let now = Instant::now();
        self.longest = self.longest.max((now - self.last).as_secs_f64());
        self.last = now;
        let more =
            self.done < self.min || (now - self.start).as_secs_f64() + self.longest <= self.seconds;
        self.done += usize::from(more);
        more
    }
}

/// The median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Folds `sample` into `best` element-wise by minimum (`best` starts
/// empty). Used where every repetition does identical work item by item:
/// interference from other tenants only ever adds time, so an item's
/// fastest repetition is its least disturbed one, and the sum of those is
/// far steadier between runs than a median of whole repetitions on a shared
/// host.
///
/// # Panics
///
/// Panics when the repetitions do not have the same number of items.
pub fn min_into(best: &mut Vec<f64>, sample: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(sample);
        return;
    }
    assert_eq!(
        best.len(),
        sample.len(),
        "repetitions must align item by item"
    );
    for (b, s) in best.iter_mut().zip(sample) {
        *b = b.min(*s);
    }
}

/// FNV-1a over `bytes` — the hash the repository's frozen report pins use.
pub use cohesion_engine::fnv1a;
