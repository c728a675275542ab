//! The metric registry: every name this benchmark prints, with its unit and
//! the direction that counts as better. `BENCHMARK.json` lists the same
//! names; a test keeps the two in step.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed in the result line.
    pub name: &'static str,
    /// Unit as printed in the result line.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
    lower("pass_s", "s"),
    lower("cold_s", "s"),
    lower("warm_p50_us", "us"),
    lower("warm_p90_us", "us"),
    higher("speedup_geomean", "x"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`: timings of
/// the public calls into each crate, the tracing overhead, and the exact work
/// counters of the replayed searches and requests.
pub const PER_LAYER: &[MetricDef] = &[
    lower("workloads.build_us", "us"),
    lower("workloads.lower_bound_us", "us"),
    lower("workloads.eval_us", "us"),
    lower("workloads.eval_routed_us", "us"),
    lower("tilelink.compile_us", "us"),
    lower("tilelink.compile_patch_us", "us"),
    lower("tilelink.graph_us", "us"),
    lower("tilelink.simulate_report_us", "us"),
    lower("sim.makespan_ns_per_task", "ns"),
    lower("sim.trace_ns_per_task", "ns"),
    lower("sim.bounded_us", "us"),
    lower("tune.search_ms", "ms"),
    lower("tune.cache_open_ms", "ms"),
    lower("tune.cache_get_us", "us"),
    lower("tune.cache_flush_ms", "ms"),
    lower("serve.parse_us", "us"),
    lower("serve.try_warm_us", "us"),
    lower("serve.wire_overhead_us", "us"),
    lower("serve.cold_tune_ms", "ms"),
    lower("probe.trace_overhead_frac", "frac"),
    lower("sim.tasks", "count"),
    lower("tune.evaluations", "count"),
    higher("tune.bound_pruned", "count"),
    higher("tune.bounded_aborts", "count"),
    higher("tune.compile_patched", "count"),
    lower("tune.compile_full_rebuilds", "count"),
    higher("tune.short_circuit_frac", "frac"),
    higher("tune.patch_frac", "frac"),
    higher("serve.warm", "count"),
    lower("serve.cold", "count"),
];

#[cfg(test)]
/// The metric-name rule: starts with a letter or digit, at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// The unit rule: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilelink_probe::{parse_json, JsonValue};

    #[test]
    fn name_rule() {
        for good in ["setup_s", "tune.search_ms", "9lives", "a-b.c_d"] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "p99%", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn registry_names_are_valid_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for def in &all {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(valid_unit(def.unit), "{}", def.unit);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    /// The manifest's metric lists, as `(name, unit, higher_is_better)`.
    fn manifest_metrics(manifest: &JsonValue, key: &str) -> Vec<(String, String, bool)> {
        manifest
            .get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).expect(f).to_string();
                let better = field("better");
                assert!(better == "higher" || better == "lower", "{better}");
                (field("name"), field("unit"), better == "higher")
            })
            .collect()
    }

    fn registry(defs: &[MetricDef]) -> Vec<(String, String, bool)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.higher_is_better))
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let manifest = parse_json(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            manifest_metrics(&manifest, "end_to_end"),
            registry(END_TO_END)
        );
        assert_eq!(
            manifest_metrics(&manifest, "per_layer"),
            registry(PER_LAYER)
        );
        for m in manifest
            .get("end_to_end")
            .and_then(JsonValue::as_array)
            .unwrap()
        {
            let bound = m.get("bound").and_then(JsonValue::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
