//! `tune_sweep` workload: on the standard search space, into a fresh
//! per-pass cache file, with the process-wide search executor (one worker
//! per CPU), one pass runs
//!
//! 1. a cold beam tune of the 12 Figure 8/9 shapes, `mean` objective;
//! 2. a cold tune of the 6 MoE shapes under `zipf:1.2` routing, `p95`;
//! 3. a warm re-tune of all 18 keys from that cache file.
//!
//! Lower bounds, patched compiles, bounded simulation, search merge/rank and
//! the tune cache do almost all the work.

use std::path::Path;
use std::str::FromStr;
use std::time::Instant;

use tilelink::OverlapConfig;
use tilelink_probe::metrics::{SIM_MAKESPAN_RUNS, SIM_TRACE_RUNS};
use tilelink_sim::ClusterSpec;
use tilelink_tune::{Objective, SearchExecutor, TuneCache, TuneReport};
use tilelink_workloads::autotune::{self, TuneOptions};
use tilelink_workloads::moe::RoutingProfile;
use tilelink_workloads::shapes::{self, MlpShape, MoeShape};
use tilelink_workloads::{RoutingSpec, TunedLayer};

use crate::report::{secs, time_setups, Bench, Counters};
use crate::stats::geomean;

/// Tuned-vs-default geomeans pinned by `crates/bench/tests/figures_pinned.rs`.
pub const PINNED_FIG8_TUNED: f64 = 1.515577185072659;
/// Figure 9 (mean objective) tuned-vs-default geomean.
pub const PINNED_FIG9_TUNED: f64 = 2.146300772725036;

/// The routing profile and objective of the routed keys.
pub const ROUTING: &str = "zipf:1.2";
/// Objective of the routed keys.
pub const ROUTED_OBJECTIVE: &str = "p95";

/// One tuning key of the sweep.
#[derive(Debug, Clone)]
pub enum Key {
    /// A Figure 8 MLP shape, mean objective.
    Mlp(MlpShape),
    /// A Figure 9 MoE shape, expected uniform routing, mean objective.
    Moe(MoeShape),
    /// A Figure 9 MoE shape over sampled `zipf:1.2` routings, `p95`.
    Routed(MoeShape),
}

impl Key {
    /// Printable label.
    pub fn label(&self) -> String {
        match self {
            Key::Mlp(s) => s.name.to_string(),
            Key::Moe(s) => s.name.to_string(),
            Key::Routed(s) => format!("{}/{ROUTING}/{ROUTED_OBJECTIVE}", s.name),
        }
    }

    /// Tunes this key on `cluster` with `opts` (routing and objective added
    /// for routed keys).
    ///
    /// # Errors
    ///
    /// Returns the search error.
    pub fn tune(
        &self,
        cluster: &ClusterSpec,
        opts: &TuneOptions,
    ) -> tilelink_tune::Result<TunedLayer> {
        match self {
            Key::Mlp(shape) => autotune::tuned_full_mlp(shape, cluster, opts),
            Key::Moe(shape) => autotune::tuned_full_moe(shape, cluster, opts),
            Key::Routed(shape) => autotune::tuned_full_moe(shape, cluster, &routed(opts.clone())),
        }
    }
}

/// `opts` with the routed keys' routing and objective.
fn routed(opts: TuneOptions) -> TuneOptions {
    opts.with_routing(RoutingSpec::new(
        RoutingProfile::from_str(ROUTING).expect("routing profile parses"),
    ))
    .with_objective(Objective::from_str(ROUTED_OBJECTIVE).expect("objective parses"))
}

/// The 18 keys of one pass: the Figure 8 then Figure 9 shapes (mean
/// objective), then the routed MoE keys.
pub fn keys() -> Vec<Key> {
    shapes::mlp_shapes()
        .into_iter()
        .map(Key::Mlp)
        .chain(shapes::moe_shapes().into_iter().map(Key::Moe))
        .chain(shapes::moe_shapes().into_iter().map(Key::Routed))
        .collect()
}

/// Objective value of the default config in the search's own ranking (the
/// default is always a beam seed under the default strategy).
pub fn default_total(search: &TuneReport) -> Option<f64> {
    let default = OverlapConfig::default();
    search
        .ranked
        .iter()
        .find(|c| c.config == default)
        .map(|c| c.report.total_s)
}

/// The tuning options of one pass: standard space, default beam, analytic
/// cost, process-wide executor, and the pass's own cache file.
fn options(cluster: &ClusterSpec, cache: &Path) -> TuneOptions {
    TuneOptions {
        cache_path: Some(cache.to_path_buf()),
        ..TuneOptions::default()
    }
    .with_cost(tilelink_bench::cost_for(
        cluster,
        &tilelink_sim::CostModelSpec::Analytic,
    ))
    .with_executor(SearchExecutor::global())
}

struct Timed<'a> {
    key: &'a Key,
    result: Option<TunedLayer>,
    secs: f64,
}

fn tune_all<'a>(keys: &'a [Key], cluster: &ClusterSpec, opts: &TuneOptions) -> Vec<Timed<'a>> {
    keys.iter()
        .map(|key| {
            let start = Instant::now();
            let result = key.tune(cluster, opts).ok();
            Timed {
                key,
                result,
                secs: secs(start),
            }
        })
        .collect()
}

/// One pass of the sweep over [`keys`]; `pass` names its cache file.
pub fn pass(bench: &mut Bench, keys: &[Key], pass: usize) {
    let cluster = tilelink_bench::default_cluster();
    let cache = bench
        .out_dir
        .join(format!("tune_sweep-{}-{pass}.tsv", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    let opts = options(&cluster, &cache);
    let routed_from = keys
        .iter()
        .position(|k| matches!(k, Key::Routed(_)))
        .unwrap_or(keys.len());

    let sims_before = (SIM_MAKESPAN_RUNS.get(), SIM_TRACE_RUNS.get());
    tilelink::reset_compile_cache();
    let start = Instant::now();
    let mut cold = tune_all(&keys[..routed_from], &cluster, &opts);
    let cold_mean_s = secs(start);
    let routed_start = Instant::now();
    cold.extend(tune_all(&keys[routed_from..], &cluster, &opts));
    let routed_s = secs(routed_start);
    let sims_after = (SIM_MAKESPAN_RUNS.get(), SIM_TRACE_RUNS.get());
    let warm_start = Instant::now();
    let warm = tune_all(keys, &cluster, &opts);
    bench.sample("tune.cold_s", cold_mean_s);
    bench.sample("tune.routed_cold_s", routed_s);
    bench.sample("tune.warm_s", secs(warm_start));
    let _ = std::fs::remove_file(&cache);

    for (c, w) in cold.iter().zip(&warm) {
        bench.step(false, c.key.label(), c.secs);
        bench.step(true, w.key.label(), w.secs);
    }

    let mut speedups = Vec::new();
    let (mut mlp_speedups, mut moe_speedups) = (Vec::new(), Vec::new());
    let (mut evaluations, mut lb_pruned, mut aborts, mut disposed) = (0, 0, 0, 0);
    let (mut patched, mut rebuilt) = (0u64, 0u64);
    for (cold, warm) in cold.iter().zip(&warm) {
        let label = cold.key.label();
        let (Some(c), Some(w)) = (&cold.result, &warm.result) else {
            bench.check(false, || format!("{label}: tuning failed"));
            continue;
        };
        bench.check(true, String::new);
        let default = default_total(&c.search);
        bench.check(default.is_some_and(|d| c.layer.total_s <= d), || {
            format!(
                "{label}: tuned {} s slower than default {default:?}",
                c.layer.total_s
            )
        });
        bench.check(
            w.config == c.config && w.layer.total_s.to_bits() == c.layer.total_s.to_bits(),
            || format!("{label}: warm re-tune returned a different winner or total"),
        );
        bench.check(w.search.evaluations == 0, || {
            format!(
                "{label}: warm re-tune ran {} evaluations",
                w.search.evaluations
            )
        });
        if let Some(d) = default {
            let speedup = d / c.layer.total_s;
            speedups.push(speedup);
            match cold.key {
                Key::Mlp(_) => mlp_speedups.push(speedup),
                Key::Moe(_) => moe_speedups.push(speedup),
                Key::Routed(_) => {}
            }
        }
        let s = &c.search;
        evaluations += s.evaluations;
        lb_pruned += s.pruned_bound();
        aborts += s.bounded_aborts;
        disposed += s.ranked.len() + s.failed.bound_pruned;
        patched += s.compile_patched;
        rebuilt += s.compile_full_rebuilds;
    }
    for (label, values, pinned) in [
        ("fig8", &mlp_speedups, PINNED_FIG8_TUNED),
        ("fig9", &moe_speedups, PINNED_FIG9_TUNED),
    ] {
        let actual = (values.len() == 6).then(|| geomean(values));
        bench.check(
            actual.is_some_and(|a| ((a - pinned) / pinned).abs() < crate::figures::PINNED_REL_TOL),
            || format!("{label} tuned-vs-default geomean {actual:?} drifted from pinned {pinned}"),
        );
    }
    if speedups.len() == keys.len() {
        bench.sample("speedup_geomean", geomean(&speedups));
    }
    // Whether a candidate compile is patched or rebuilt depends on which
    // executor thread reaches the shared compile cache first, so those
    // counts vary between passes; the search's own decisions do not.
    bench.pass_counters(
        Counters::from([
            ("tune.evaluations", evaluations as f64),
            ("tune.bound_pruned", lb_pruned as f64),
            ("tune.bounded_aborts", aborts as f64),
            ("tune.disposed", disposed as f64),
            (
                "tune.short_circuit_frac",
                (lb_pruned + aborts) as f64 / disposed as f64,
            ),
            ("sim.makespan_runs", (sims_after.0 - sims_before.0) as f64),
            ("sim.trace_runs", (sims_after.1 - sims_before.1) as f64),
        ]),
        Counters::from([
            ("tune.compile_patched", patched as f64),
            ("tune.compile_full_rebuilds", rebuilt as f64),
            (
                "tune.patch_frac",
                patched as f64 / (patched + rebuilt) as f64,
            ),
        ]),
    );
    let warm_latencies: Vec<f64> = warm.iter().map(|t| t.secs).collect();
    bench.end_pass(warm.len(), &warm_latencies);
}

/// Set-up of one pass: the tuning options (standard space, cost provider)
/// and an empty cache file opened at a fresh path.
fn setup(out_dir: &Path, pass: usize, i: usize) -> (TuneOptions, TuneCache) {
    let cache = out_dir.join(format!(
        "tune_sweep-{}-{pass}-setup{i}.tsv",
        std::process::id()
    ));
    let opts = options(&tilelink_bench::default_cluster(), &cache);
    (
        opts,
        TuneCache::open(&cache).expect("a missing cache file opens empty"),
    )
}

/// The `tune_sweep` workload.
pub fn run(bench: &mut Bench) {
    let keys = keys();
    bench.input("keys", keys.len());
    bench.input("executor_threads", SearchExecutor::global().threads());
    bench.input("space", "standard");
    bench.start_clock();
    let mut passes = 0;
    while passes == 0 || bench.time_left() {
        let out_dir = bench.out_dir.clone();
        let setups = time_setups(5, 64, |i| setup(&out_dir, passes, i));
        bench.samples("setup_s", setups);
        pass(bench, &keys, passes);
        passes += 1;
    }
    crate::report::sample_peak_rss(bench);
}
