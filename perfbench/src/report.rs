//! Sample collection, output checks and the result line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::host::{json_str, Host};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats;

/// Exact work counters of one pass, in a fixed order.
pub type Counters = Vec<(&'static str, f64)>;

/// The state of one benchmark run: its inputs, samples, counters and checks.
#[derive(Debug)]
pub struct Bench {
    /// Workload name.
    pub workload: &'static str,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Directory for the run's scratch files and result file.
    pub out_dir: PathBuf,
    clock: Instant,
    inputs: Vec<(&'static str, String)>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// How each pass-level metric was computed, and over how many passes.
    summaries: BTreeMap<&'static str, (&'static str, usize)>,
    /// Durations of each sequential step of a pass, `(warm, step)` keyed.
    steps: BTreeMap<(bool, String), Vec<f64>>,
    /// Warm operations per pass.
    warm_ops: usize,
    /// Median and 90th percentile of each pass's warm latencies, seconds.
    pass_latencies: Vec<(f64, f64)>,
    passes: usize,
    counters: Option<Counters>,
    varying: Option<Counters>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Bench {
    /// A run of `workload` writing its files under `out_dir`.
    pub fn new(
        workload: &'static str,
        seed: u64,
        seconds: f64,
        trace: bool,
        out_dir: PathBuf,
    ) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            out_dir,
            clock: Instant::now(),
            inputs: Vec::new(),
            samples: BTreeMap::new(),
            summaries: BTreeMap::new(),
            steps: BTreeMap::new(),
            warm_ops: 0,
            pass_latencies: Vec::new(),
            passes: 0,
            counters: None,
            varying: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Records an input setting (thread and connection counts, catalog size).
    pub fn input(&mut self, key: &'static str, value: impl ToString) {
        self.inputs.push((key, value.to_string()));
    }

    /// Adds one sample of a metric.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds several samples of a metric.
    pub fn samples(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        self.samples.entry(name).or_default().extend(values);
    }

    /// Records the duration of one sequential step of the current pass: a
    /// cold step (compile caches, tune caches or daemon cache empty) or a
    /// warm one.
    pub fn step(&mut self, warm: bool, step: impl Into<String>, secs: f64) {
        self.steps
            .entry((warm, step.into()))
            .or_default()
            .push(secs);
    }

    /// Ends a pass that ran `warm_ops` warm operations whose latencies, in
    /// seconds, are `warm_latencies`.
    pub fn end_pass(&mut self, warm_ops: usize, warm_latencies: &[f64]) {
        self.passes += 1;
        self.warm_ops = warm_ops;
        if !warm_latencies.is_empty() {
            self.pass_latencies.push((
                stats::percentile(warm_latencies, 50.0),
                stats::percentile(warm_latencies, 90.0),
            ));
        }
    }

    /// The pass-level metrics, from each step's median over the passes: a
    /// pass's steps run one after another, so the typical pass takes the sum
    /// of its steps' medians, and the warm latency percentiles are the
    /// median over passes of each pass's percentile. Summing per-step
    /// medians keeps a disturbed step from moving the result, where a median
    /// of pass totals needs whole passes undisturbed.
    fn summarize_steps(&mut self) {
        if self.passes == 0 {
            return;
        }
        let total = |warm: bool| -> f64 {
            self.steps
                .iter()
                .filter(|((w, _), _)| *w == warm)
                .map(|(_, v)| stats::median(v))
                .sum()
        };
        let (cold, warm) = (total(false), total(true));
        let typical = |pick: fn(&(f64, f64)) -> f64| {
            stats::median(&self.pass_latencies.iter().map(pick).collect::<Vec<_>>())
        };
        const STEPS: &str = "sum of step medians";
        const PASSES: &str = "median of pass percentiles";
        let mut summary = vec![
            ("pass_s", cold + warm, STEPS),
            ("cold_s", cold, STEPS),
            ("warm_ops_per_s", self.warm_ops as f64 / warm, STEPS),
        ];
        if !self.pass_latencies.is_empty() {
            summary.push(("warm_p50_us", typical(|l| l.0) * 1e6, PASSES));
            summary.push(("warm_p90_us", typical(|l| l.1) * 1e6, PASSES));
        }
        for (name, value, how) in summary {
            self.samples.insert(name, vec![value]);
            self.summaries.insert(name, (how, self.passes));
        }
    }

    /// Counts one attempted operation or output check; `ok == false` counts
    /// it failed, with the message `what` produces.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts `attempted` operations, of which those that `failures`
    /// describes failed. A failure may also name an operation that never
    /// got to run, so it counts as attempted when the count is short.
    pub fn operations(&mut self, attempted: usize, failures: impl IntoIterator<Item = String>) {
        let before = self.failures.len();
        self.failures.extend(failures);
        let failed = (self.failures.len() - before) as u64;
        self.failed += failed;
        self.attempted += (attempted as u64).max(failed);
    }

    /// Records the counters of one pass. `exact` counters must repeat bit
    /// for bit in every later pass; `varying` ones (which depend on how the
    /// search threads interleave) are recorded from the first pass only.
    pub fn pass_counters(&mut self, counters: Counters, varying: Counters) {
        if self.varying.is_none() {
            self.varying = Some(varying);
        }
        match &self.counters {
            None => self.counters = Some(counters),
            Some(first) => {
                let same = first.len() == counters.len()
                    && first
                        .iter()
                        .zip(&counters)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
                let first = first.clone();
                self.check(same, || {
                    format!("pass counters {counters:?} differ from the first pass {first:?}")
                });
            }
        }
    }

    /// Starts the measurement clock.
    pub fn start_clock(&mut self) {
        self.clock = Instant::now();
    }

    /// Whether the measurement budget still has time for another pass.
    pub fn time_left(&self) -> bool {
        self.clock.elapsed().as_secs_f64() < self.seconds
    }

    /// Prints the report and the result line for the metrics in `defs`,
    /// prints every other sampled series as a `detail` row, and writes the
    /// result file. Returns whether every operation and check passed.
    ///
    /// A metric of `defs` without samples (left by a failed operation) is
    /// itself a failed check.
    pub fn finish(mut self, defs: &[MetricDef], host: &Host) -> bool {
        let report = self.render(defs, host);
        for line in &report.lines {
            println!("{line}");
        }
        let file = self.out_dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.workload,
            self.seed,
            u8::from(self.trace)
        ));
        if let Err(e) = std::fs::write(&file, &report.record) {
            eprintln!("perfbench: cannot write {}: {e}", file.display());
        }
        println!("{}", report.result);
        self.failed == 0
    }

    /// The printed report, the result line and the result-file record.
    fn render(&mut self, defs: &[MetricDef], host: &Host) -> Rendered {
        self.summarize_steps();
        let mut lines = Vec::new();
        let mut result_metrics = Vec::new();
        let mut detail = Vec::new();
        let missing: Vec<&str> = defs
            .iter()
            .map(|d| d.name)
            .filter(|name| !self.samples.contains_key(name))
            .collect();
        for name in missing {
            // Only a failed operation leaves a metric unsampled.
            self.check(false, || format!("metric {name} has no samples"));
            self.samples.insert(name, vec![f64::NAN]);
        }
        let extra: Vec<&'static str> = self
            .samples
            .keys()
            .copied()
            .filter(|name| defs.iter().all(|d| d.name != *name))
            .collect();
        let rows = defs
            .iter()
            .map(|d| (d.name, d.unit, true))
            .chain(extra.into_iter().map(|name| (name, unit_of(name), false)));
        for (name, unit, reported) in rows {
            let values = &self.samples[name];
            let (value, q1, q3) = if values.iter().any(|v| v.is_nan()) {
                (f64::NAN, f64::NAN, f64::NAN)
            } else {
                let (q1, q3) = stats::quartiles(values);
                (stats::median(values), q1, q3)
            };
            let (stat, n, how) = match self.summaries.get(name) {
                Some(&(stat, passes)) => (stat, passes, format!("{stat} over n={passes} passes")),
                None => {
                    let n = values.len();
                    (
                        "median",
                        n,
                        format!("median of n={n}, q1 {q1:.6}, q3 {q3:.6}"),
                    )
                }
            };
            lines.push(format!(
                "{} {:<28} {:>14.6} {:<5} ({how})",
                if reported { "metric" } else { "detail" },
                name,
                value,
                unit,
            ));
            if reported {
                result_metrics.push(format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(value),
                    json_str(unit)
                ));
            }
            detail.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"stat\": {}, \"n\": {}, \"q1\": {}, \"q3\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit),
                json_str(stat),
                n,
                json_num(q1),
                json_num(q3)
            ));
        }
        let inputs = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}{}}}",
            json_str(self.workload),
            self.seed,
            json_num(self.seconds),
            u8::from(self.trace),
            self.inputs
                .iter()
                .map(|(k, v)| format!(", {}: {}", json_str(k), json_str(v)))
                .collect::<String>()
        );
        let json_counters = |counters: &Option<Counters>| {
            format!(
                "{{{}}}",
                counters
                    .iter()
                    .flatten()
                    .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        let counters = json_counters(&self.counters);
        let varying = json_counters(&self.varying);
        let mut printed = vec![
            format!("host {}", host.json()),
            format!("inputs {inputs}"),
            format!("counters {counters}"),
            format!("varying_counters {varying}"),
        ];
        printed.extend(self.failures.iter().take(20).map(|f| format!("FAILED {f}")));
        printed.extend(lines);
        let correct = self.failed == 0;
        let result = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            result_metrics.join(", ")
        );
        let numbers = |values: &[f64]| {
            values
                .iter()
                .map(|v| json_num(*v))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let steps = self
            .steps
            .iter()
            .map(|((warm, step), secs)| {
                let phase = if *warm { "warm" } else { "cold" };
                format!(
                    "{}: [{}]",
                    json_str(&format!("{phase}/{step}")),
                    numbers(secs)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let latencies = self
            .pass_latencies
            .iter()
            .map(|(p50, p90)| format!("[{}, {}]", json_num(*p50), json_num(*p90)))
            .collect::<Vec<_>>()
            .join(", ");
        let record = format!(
            "{{\"host\": {}, \"inputs\": {inputs}, \"counters\": {counters}, \
             \"varying_counters\": {varying}, \"attempted\": {}, \"failed\": {}, \
             \"failures\": [{}], \"metrics\": {{{}}}, \"step_secs\": {{{steps}}}, \
             \"pass_warm_p50_p90_secs\": [{latencies}]}}\n",
            host.json(),
            self.attempted,
            self.failed,
            self.failures
                .iter()
                .map(|f| json_str(f))
                .collect::<Vec<_>>()
                .join(", "),
            detail.join(", ")
        );
        Rendered {
            lines: printed,
            result,
            record,
        }
    }
}

/// What [`Bench::finish`] prints and writes.
struct Rendered {
    lines: Vec<String>,
    result: String,
    record: String,
}

/// Unit of a detail row: the registry's, else read from the name's suffix.
fn unit_of(name: &str) -> &'static str {
    if let Some(def) = END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name) {
        return def.unit;
    }
    if name.ends_with("_per_s") {
        return "1/s";
    }
    ["_s", "_ms", "_us", "_ns"]
        .into_iter()
        .find(|suffix| name.ends_with(suffix))
        .map_or("", |suffix| &suffix[1..])
}

/// A JSON number with every digit Rust's shortest round-trip form gives
/// (non-finite values, which JSON cannot hold, become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Set-up timings: `samples` samples, each the mean time of `batch`
/// back-to-back calls of `setup` (the argument is the call's index), so that
/// set-ups far shorter than the timer's noise still give a steady median.
pub fn time_setups<T>(samples: usize, batch: usize, mut setup: impl FnMut(usize) -> T) -> Vec<f64> {
    (0..samples)
        .map(|s| {
            let start = Instant::now();
            for b in 0..batch {
                std::hint::black_box(setup(s * batch + b));
            }
            secs(start) / batch as f64
        })
        .collect()
}

/// Samples `peak_rss_mb`: the process's peak resident set size after the
/// measured passes (before any check that computes outside them).
pub fn sample_peak_rss(bench: &mut Bench) {
    if let Some(mb) = crate::host::peak_rss_mb() {
        bench.sample("peak_rss_mb", mb);
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use tilelink_probe::{parse_json, JsonValue};

    fn manifest_names(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = parse_json(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        manifest
            .get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// The metric names of a rendered result line, in order.
    fn printed_names(trace: bool) -> Vec<String> {
        let dir = std::env::temp_dir();
        let mut bench = Bench::new("figures", 1, 1.0, trace, dir);
        let defs = if trace { PER_LAYER } else { END_TO_END };
        for def in defs {
            bench.sample(def.name, 1.5);
        }
        bench.sample("some.detail_s", 2.0);
        let host = Host {
            nproc: 2,
            cpu_model: "test".into(),
            rustc: "test".into(),
            git_head: "test".into(),
        };
        let rendered = bench.render(defs, &host);
        assert_eq!(bench.failed, 0);
        let result = parse_json(&rendered.result).expect("result line is JSON");
        assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
        let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
            panic!("no metrics object in {}", rendered.result);
        };
        for (_, metric) in metrics {
            assert_eq!(metric.get("value").and_then(JsonValue::as_f64), Some(1.5));
        }
        metrics.iter().map(|(name, _)| name.clone()).collect()
    }

    #[test]
    fn result_line_names_match_benchmark_json() {
        assert_eq!(printed_names(false), manifest_names("end_to_end"));
        assert_eq!(printed_names(true), manifest_names("per_layer"));
    }

    #[test]
    fn pass_metrics_sum_step_medians() {
        let mut bench = Bench::new("figures", 1, 1.0, false, std::env::temp_dir());
        let passes = [
            (1.0, 30.0, 2.0, 5e-6),
            (3.0, 10.0, 100.0, 3e-6),
            (2.0, 20.0, 4.0, 4e-6),
        ];
        for (a, b, c, latency) in passes {
            bench.step(false, "a", a);
            bench.step(false, "b", b);
            bench.step(true, "c", c);
            bench.end_pass(8, &[latency, 2.0 * latency]);
        }
        bench.summarize_steps();
        assert_eq!(bench.samples["cold_s"], vec![22.0]);
        assert_eq!(bench.samples["pass_s"], vec![26.0]);
        assert_eq!(bench.samples["warm_ops_per_s"], vec![2.0]);
        assert_eq!(bench.samples["warm_p50_us"], vec![4.0]);
        assert_eq!(bench.samples["warm_p90_us"], vec![8.0]);
        assert_eq!(bench.summaries["pass_s"].1, 3);
    }

    #[test]
    fn unsampled_metric_fails_the_run() {
        let mut bench = Bench::new("serve", 1, 1.0, false, std::env::temp_dir());
        let host = Host {
            nproc: 1,
            cpu_model: String::new(),
            rustc: String::new(),
            git_head: String::new(),
        };
        let rendered = bench.render(END_TO_END, &host);
        assert_eq!(bench.failed as usize, END_TO_END.len());
        assert!(rendered.result.starts_with("{\"correct\": false"));
    }
}
