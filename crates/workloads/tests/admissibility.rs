//! Branch-and-bound admissibility property suite.
//!
//! The tuner's pruning is only sound if every oracle lower bound *floors* the
//! simulated objective and every bounded evaluation is bit-identical to the
//! unbounded one whenever the cutoff is not hit. These tests drive seeded
//! random constrained sub-spaces of the overlap design space through both
//! cost models (analytic and calibrated) and assert, for each:
//!
//! * (a) every candidate the bounded search pruned or aborted, when force-
//!   simulated unbounded, prices no better than the final winner;
//! * (b) the bounded and unbounded searches return bit-identical winners and
//!   winning makespans;
//! * the raw bound invariant `lower_bound(cfg) <= total_s` (or the folded
//!   objective value) for every candidate in the space;
//! * infinite-cutoff parity: `report(cfg)` is bit-identical to a reference
//!   report built here from the unbounded per-kernel functions, so an oracle
//!   is never checked against itself, and `evaluate_bounded(cfg, ∞)` is
//!   bit-identical to that report's `total_s`;
//! * percentile folds stop pricing samples at the abort that decides them,
//!   with a floor no larger than the exact fold, and fold bit-identically
//!   while no more samples abort than the order statistic allows;
//! * warm re-tunes: the floors a bounded search certifies and caches let a
//!   re-tune from the same cache file rank bit-identically without a single
//!   simulation, and floors cached under a tight cutoff never change the
//!   winner of a looser search that reads them.
//!
//! * the oracles' kernel makespan memo: re-pricing a config replays its bits
//!   without simulating, an `order`/`mode` twin gets the decision a fresh
//!   oracle makes at every cutoff, and a cold routed tune simulates the same
//!   kernels, and writes the same cache file, on one thread as on two.
//!
//! Every test holds [`serial`], so the process-wide simulation counter a
//! warm re-tune is checked against only moves for that re-tune.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use tilelink::{CommMapping, OverlapConfig, OverlapReport, TileOrder, TileShape, TransferMode};
use tilelink_probe::metrics::{SIM_MAKESPAN_RUNS, TUNE_KERNEL_MEMO_HITS, TUNE_WINNER_REPORTS};
use tilelink_sim::{analytic_cost, BoundedMakespan, CalibratedCostModel, ClusterSpec, SharedCost};
use tilelink_tune::{
    CostOracle, Objective, SearchSpace, Strategy, TuneCache, TuneReport, Tuner, RING_REQUIRES_PUSH,
};
use tilelink_workloads::autotune::{AttentionOracle, MlpAgGemmOracle, MlpOracle, MoeOracle};
use tilelink_workloads::{attention, mlp, moe, MlpShape, MoeShape, RoutingProfile, RoutingSpec};

/// Serialises the tests of this file (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Tiny deterministic xorshift so the sub-spaces are seeded and reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Picks a random non-empty subset of `pool`.
    fn subset<T: Copy>(&mut self, pool: &[T]) -> Vec<T> {
        loop {
            let mask = self.next() as usize;
            let picked: Vec<T> = pool
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &v)| v)
                .collect();
            if !picked.is_empty() {
                return picked;
            }
        }
    }
}

/// A random constrained sub-space of the standard axes (always includes the
/// default config's values so the search is never empty).
fn random_space(rng: &mut Rng) -> SearchSpace {
    let compute = rng.subset(&[
        TileShape::new(128, 128),
        TileShape::new(128, 256),
        TileShape::new(256, 256),
    ]);
    let mappings = rng.subset(&[
        CommMapping::CopyEngine,
        CommMapping::Sm { sms: 20 },
        CommMapping::Hybrid { sms: 16 },
    ]);
    // The comm-tile, channel and stage axes stay full-width so exhaustive
    // runs span several incumbent chunks — cutoff-bounded aborts only bite
    // once an incumbent exists.
    SearchSpace::new()
        .with_comm_tiles([TileShape::new(64, 64), TileShape::new(128, 128)])
        .with_compute_tiles(compute)
        .with_mappings(mappings)
        .with_channels([1, 2])
        .with_stages([2, 3, 4])
        .with_constraint(RING_REQUIRES_PUSH)
}

/// The full MLP layer priced by the unbounded per-half functions.
fn mlp_reference<'a>(
    shape: &'a MlpShape,
    cost: &'a SharedCost,
) -> impl Fn(&OverlapConfig) -> OverlapReport + 'a {
    move |cfg| {
        let ag = mlp::timed_ag_gemm_with(shape, cfg, cost).expect("AG half simulates");
        let rs = mlp::timed_gemm_rs_with(shape, cfg, cost).expect("RS half simulates");
        let act = mlp::activation_seconds_with(shape, &**cost);
        OverlapReport::new(
            ag.total_s + rs.total_s + act,
            ag.comm_only_s + rs.comm_only_s,
            ag.comp_only_s + rs.comp_only_s + act,
        )
    }
}

/// An exact reference pricing, built independently of the oracles.
type Reference<'a> = Box<dyn Fn(&OverlapConfig) -> OverlapReport + 'a>;

/// Checks the oracle's two pricing paths for `cfg` against `reference` (the
/// exact report, built independently of the oracle): `report` equals it
/// field for field and `evaluate_bounded` at an infinite cutoff finishes on
/// its `total_s`, bit for bit.
fn assert_total_matches_report(
    oracle: &dyn CostOracle,
    cfg: &OverlapConfig,
    reference: OverlapReport,
) {
    assert_eq!(
        oracle.report(cfg).expect("report succeeds"),
        reference,
        "report diverged from the reference for {cfg:?}"
    );
    match oracle
        .evaluate_bounded(cfg, f64::INFINITY)
        .expect("bounded eval succeeds")
    {
        BoundedMakespan::Finished(total) => assert_eq!(
            total.to_bits(),
            reference.total_s.to_bits(),
            "infinite-cutoff objective value diverged for {cfg:?}"
        ),
        BoundedMakespan::Exceeded(_) => panic!("infinite cutoff aborted for {cfg:?}"),
    }
}

/// Drives one oracle through one sub-space with pruning on and off and checks
/// the full admissibility contract. `reference` prices a candidate exactly,
/// independently of the oracle.
fn assert_admissible<O: CostOracle>(
    oracle: &O,
    reference: impl Fn(&OverlapConfig) -> OverlapReport,
    space: &SearchSpace,
    strategy: Strategy,
) -> usize {
    // Raw bound invariant plus bounded-evaluation parity at infinite cutoff.
    for cfg in space.candidates(oracle) {
        let report = reference(&cfg);
        if let Some(lb) = oracle.lower_bound(&cfg) {
            assert!(
                lb <= report.total_s,
                "inadmissible bound {lb} > simulated {} for {cfg:?}",
                report.total_s
            );
        }
        assert_total_matches_report(oracle, &cfg, report);
    }

    let bounded = Tuner::new(strategy)
        .tune(oracle, space)
        .expect("bounded search succeeds");
    let unbounded = Tuner::new(strategy)
        .with_pruning(false)
        .tune(oracle, space)
        .expect("unbounded search succeeds");

    // (b) bit-identical winners and winner reports.
    assert_eq!(
        winner(&bounded),
        winner(&unbounded),
        "winner changed under pruning"
    );
    assert_eq!(bounded.best.report, reference(&bounded.best.config));

    // (a) every candidate the bounded search did not rank (bound-pruned or
    // abort-short) force-simulates no better than the winner. Only meaningful
    // for the exhaustive strategy: a beam legitimately never visits parts of
    // the space, pruned or not.
    if matches!(strategy, Strategy::Exhaustive) {
        let ranked: HashSet<OverlapConfig> = bounded.ranked.iter().map(|c| c.config).collect();
        for cfg in space.candidates(oracle) {
            if ranked.contains(&cfg) {
                continue;
            }
            let report = reference(&cfg);
            assert!(
                report.total_s >= bounded.best.report.total_s,
                "pruned candidate {cfg:?} beats the winner: {} < {}",
                report.total_s,
                bounded.best.report.total_s
            );
        }
    }

    bounded.failed.bound_pruned
}

fn providers(cluster: &ClusterSpec) -> [(&'static str, SharedCost); 2] {
    [
        ("analytic", analytic_cost(cluster)),
        (
            "calibrated",
            Arc::new(CalibratedCostModel::h800_defaults(cluster.clone())),
        ),
    ]
}

#[test]
fn mlp_pruning_is_admissible_across_random_subspaces_and_cost_models() {
    let _serial = serial();
    let shape = tilelink_workloads::shapes::mlp_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let mut rng = Rng(0x1517_5d00_d1ce_d001);
    let mut pruned_total = 0;
    for round in 0..2 {
        let space = random_space(&mut rng);
        for (name, cost) in providers(&cluster) {
            let oracle = MlpOracle::new(shape.clone(), cluster.clone()).with_cost(cost.clone());
            let pruned = assert_admissible(
                &oracle,
                mlp_reference(&shape, &cost),
                &space,
                Strategy::Exhaustive,
            );
            eprintln!("round {round} ({name}): {pruned} bound-pruned");
            pruned_total += pruned;
        }
    }
    // The bounds must actually bite somewhere across the rounds, or the
    // branch-and-bound machinery is silently inert.
    assert!(pruned_total > 0, "no candidate was ever bound-pruned");
}

#[test]
fn routed_moe_pruning_is_admissible_for_tail_objectives() {
    let _serial = serial();
    let shape = tilelink_workloads::shapes::moe_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let space = SearchSpace::new()
        .with_comm_tiles([TileShape::new(128, 128)])
        .with_compute_tiles([TileShape::new(128, 128), TileShape::new(256, 256)])
        .with_mappings([CommMapping::CopyEngine, CommMapping::Sm { sms: 20 }])
        .with_constraint(RING_REQUIRES_PUSH);
    let spec = RoutingSpec {
        samples: 3,
        ..RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 })
    };
    let cost = analytic_cost(&cluster);
    for objective in [
        Objective::Mean,
        Objective::Percentile(67),
        Objective::WorstCase,
    ] {
        let oracle = MoeOracle::new(shape.clone(), cluster.clone())
            .with_routing(spec)
            .with_objective(objective);
        let reference = routed_reference(&shape, &cost, spec, objective);
        assert_admissible(&oracle, reference, &space, Strategy::Exhaustive);
    }
}

#[test]
fn beam_search_winners_survive_pruning_bit_for_bit() {
    let _serial = serial();
    let shape = tilelink_workloads::shapes::mlp_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let mut rng = Rng(0xbeef_cafe_f00d_0005);
    let space = random_space(&mut rng);
    let cost = analytic_cost(&cluster);
    let oracle = MlpOracle::new(shape.clone(), cluster);
    assert_admissible(
        &oracle,
        mlp_reference(&shape, &cost),
        &space,
        Strategy::Beam {
            width: 2,
            sweeps: 2,
        },
    );
}

#[test]
fn attention_bounded_simulation_is_admissible_under_both_cost_models() {
    let _serial = serial();
    let shape = tilelink_workloads::shapes::attn_shapes()[0].clone();
    let seq_len = shape.seq_lens[0];
    let cluster = ClusterSpec::h800_node(8);
    // Only the comm mapping changes the attention kernel's price (the program
    // ignores the tiling axes). The mappings run from the slowest to the
    // fastest under the analytic model, so each improvement arrives after an
    // incumbent exists and must survive the bounded simulation to win.
    let space = SearchSpace::new()
        .with_compute_tiles([TileShape::new(128, 128), TileShape::new(256, 256)])
        .with_mappings([
            CommMapping::CopyEngine,
            CommMapping::Hybrid { sms: 16 },
            CommMapping::Sm { sms: 20 },
        ])
        .with_stages([2, 3, 4]);
    let mut aborted_total = 0;
    for (name, cost) in providers(&cluster) {
        let oracle =
            AttentionOracle::new(shape.clone(), seq_len, cluster.clone()).with_cost(cost.clone());
        let reference = |cfg: &OverlapConfig| {
            attention::timed_sp_attention_with(&shape, seq_len, cfg, &cost)
                .expect("attention simulates")
        };
        let aborted = assert_admissible(&oracle, reference, &space, Strategy::Exhaustive);
        eprintln!("attention ({name}): {aborted} bounded aborts");
        aborted_total += aborted;
    }
    // Without a lower bound every disposal is a bounded-simulation abort.
    assert!(aborted_total > 0, "attention never aborted a simulation");
}

/// The full MoE layer (expected routing) priced by the unbounded per-half
/// functions.
fn moe_reference<'a>(
    shape: &'a MoeShape,
    cost: &'a SharedCost,
) -> impl Fn(&OverlapConfig) -> OverlapReport + 'a {
    move |cfg| {
        let first = moe::timed_ag_group_gemm_with(shape, cfg, cost).expect("first half");
        let second = moe::timed_group_gemm_rs_with(shape, cfg, cost).expect("second half");
        let act = moe::activation_seconds_with(shape, &**cost);
        OverlapReport::new(
            first.total_s + second.total_s + act,
            first.comm_only_s + second.comm_only_s,
            first.comp_only_s + second.comp_only_s + act,
        )
    }
}

/// Each sampled routing priced by the unbounded routed layer, then folded by
/// the objective.
fn routed_reference<'a>(
    shape: &'a MoeShape,
    cost: &'a SharedCost,
    spec: RoutingSpec,
    objective: Objective,
) -> impl Fn(&OverlapConfig) -> OverlapReport + 'a {
    let samples = spec.sampler().samples_for(shape, spec.samples);
    move |cfg| {
        let reports: Vec<OverlapReport> = samples
            .iter()
            .map(|sample| {
                moe::timed_routed_full_moe_with(shape, cfg, cost, sample)
                    .expect("routed layer simulates")
            })
            .collect();
        objective.fold_reports(&reports)
    }
}

#[test]
fn both_pricing_paths_agree_for_every_oracle_and_cost_model() {
    let _serial = serial();
    let cluster = ClusterSpec::h800_node(8);
    let mlp = tilelink_workloads::shapes::mlp_shapes()[0].clone();
    let moe = tilelink_workloads::shapes::moe_shapes()[0].clone();
    let attn = tilelink_workloads::shapes::attn_shapes()[0].clone();
    let seq_len = attn.seq_lens[0];
    let spec = RoutingSpec {
        samples: 3,
        ..RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 })
    };
    let configs = [
        OverlapConfig::default(),
        OverlapConfig::default().with_comm_mapping(CommMapping::CopyEngine),
        OverlapConfig::default()
            .with_compute_tile(TileShape::new(256, 256))
            .with_comm_mapping(CommMapping::Hybrid { sms: 16 }),
    ];
    let mut checked = 0;
    for (_, cost) in providers(&cluster) {
        let mut cases: Vec<(Box<dyn CostOracle>, Reference<'_>)> = vec![
            (
                Box::new(MlpOracle::new(mlp.clone(), cluster.clone()).with_cost(cost.clone())),
                Box::new(mlp_reference(&mlp, &cost)),
            ),
            (
                Box::new(MoeOracle::new(moe.clone(), cluster.clone()).with_cost(cost.clone())),
                Box::new(moe_reference(&moe, &cost)),
            ),
            (
                Box::new(
                    AttentionOracle::new(attn.clone(), seq_len, cluster.clone())
                        .with_cost(cost.clone()),
                ),
                Box::new(|cfg: &OverlapConfig| {
                    attention::timed_sp_attention_with(&attn, seq_len, cfg, &cost)
                        .expect("attention simulates")
                }),
            ),
        ];
        for objective in [
            Objective::Mean,
            Objective::Percentile(95),
            Objective::WorstCase,
        ] {
            cases.push((
                Box::new(
                    MoeOracle::new(moe.clone(), cluster.clone())
                        .with_cost(cost.clone())
                        .with_routing(spec)
                        .with_objective(objective),
                ),
                Box::new(routed_reference(&moe, &cost, spec, objective)),
            ));
        }
        for (oracle, reference) in &cases {
            for cfg in &configs {
                if oracle.is_supported(cfg) {
                    assert_total_matches_report(&**oracle, cfg, reference(cfg));
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 30, "only {checked} cases checked");
}

/// Cutoffs strictly between the distinct sorted sample totals, one below
/// the smallest and one above the largest. A cutoff equal to a sample's total
/// is avoided: the residual budgets of the two halves round, so such a
/// sample may abort on the tie.
fn cutoffs_between(sorted: &[f64]) -> Vec<f64> {
    let mut cutoffs = vec![sorted[0] * 0.5];
    cutoffs.extend(
        sorted
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| 0.5 * (w[0] + w[1])),
    );
    cutoffs.push(sorted[sorted.len() - 1] * 2.0);
    cutoffs
}

/// Per-sample layer totals of a routed MoE oracle's samples, in sample order.
fn sample_totals(
    shape: &MoeShape,
    cost: &SharedCost,
    spec: RoutingSpec,
    cfg: &OverlapConfig,
) -> Vec<f64> {
    spec.sampler()
        .samples_for(shape, spec.samples)
        .iter()
        .map(|sample| {
            moe::timed_routed_full_moe_with(shape, cfg, cost, sample)
                .expect("routed layer simulates")
                .total_s
        })
        .collect()
}

#[test]
fn p95_over_eight_samples_stops_pricing_at_its_first_abort() {
    let _serial = serial();
    let cluster = ClusterSpec::h800_node(8);
    let shape = tilelink_workloads::shapes::moe_shapes()[0].clone();
    let cost = analytic_cost(&cluster);
    let spec = RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 });
    assert_eq!(spec.samples, 8);
    let cfg = OverlapConfig::default();
    // Each measured evaluation gets a fresh oracle: an oracle re-pricing a
    // config answers from its makespan memo without simulating.
    let fresh_oracle = || {
        MoeOracle::new(shape.clone(), cluster.clone())
            .with_routing(spec)
            .with_objective(Objective::Percentile(95))
    };
    // Nearest-rank p95 of 8 samples is the largest: no abort is allowed.
    assert_eq!(Objective::Percentile(95).sorted_pick_index(8), Some(7));
    let exact = fresh_oracle().report(&cfg).expect("report").total_s;
    let totals = sample_totals(&shape, &cost, spec, &cfg);
    let mut sorted = totals.clone();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(exact.to_bits(), sorted[7].to_bits());

    let mut aborted = 0;
    for cutoff in cutoffs_between(&sorted) {
        // The first sample (in pricing order) whose total exceeds the cutoff
        // decides the fold; every sample before it finishes both halves.
        let first_abort = totals.iter().position(|&t| t > cutoff);
        let oracle = fresh_oracle();
        let runs = SIM_MAKESPAN_RUNS.get();
        let outcome = oracle.evaluate_bounded(&cfg, cutoff).expect("bounded eval");
        let used = SIM_MAKESPAN_RUNS.get() - runs;
        let Some(first_abort) = first_abort else {
            // Nothing aborts: all 8 samples, bit-identical fold.
            assert_eq!(used, 16, "cutoff {cutoff}");
            assert_eq!(outcome, BoundedMakespan::Finished(exact));
            continue;
        };
        let finished = 2 * first_abort as u64;
        assert!(
            (finished + 1..=finished + 2).contains(&used),
            "cutoff {cutoff}: {used} simulations, first abort at sample {first_abort}"
        );
        match outcome {
            BoundedMakespan::Exceeded(floor) => assert!(
                cutoff < floor && floor <= exact,
                "floor {floor} outside ({cutoff}, {exact}]"
            ),
            BoundedMakespan::Finished(total) => panic!("cutoff {cutoff} finished at {total}"),
        }
        aborted += 1;
    }
    assert!(aborted >= 2, "only {aborted} cutoffs aborted");
}

#[test]
fn p50_folds_bit_identically_while_aborts_stay_within_its_allowance() {
    let _serial = serial();
    let cluster = ClusterSpec::h800_node(8);
    let shape = tilelink_workloads::shapes::moe_shapes()[0].clone();
    let cost = analytic_cost(&cluster);
    let spec = RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 });
    let cfg = OverlapConfig::default();
    let objective = Objective::Percentile(50);
    let oracle = MoeOracle::new(shape.clone(), cluster)
        .with_routing(spec)
        .with_objective(objective);
    let pick = objective.sorted_pick_index(8).expect("percentile picks");
    let allowed = 7 - pick;
    let exact = oracle.report(&cfg).expect("report").total_s;
    let mut sorted = sample_totals(&shape, &cost, spec, &cfg);
    sorted.sort_by(f64::total_cmp);
    assert_eq!(exact.to_bits(), sorted[pick].to_bits());
    let mut folded_with_aborts = 0;
    for cutoff in cutoffs_between(&sorted) {
        let aborts = sorted.iter().filter(|&&t| t > cutoff).count();
        match oracle.evaluate_bounded(&cfg, cutoff).expect("bounded eval") {
            BoundedMakespan::Finished(total) => {
                assert!(aborts <= allowed, "cutoff {cutoff}: {aborts} aborts folded");
                assert_eq!(total.to_bits(), exact.to_bits(), "cutoff {cutoff}");
                if aborts > 0 {
                    folded_with_aborts += 1;
                }
            }
            BoundedMakespan::Exceeded(floor) => {
                assert!(
                    aborts > allowed,
                    "cutoff {cutoff}: {aborts} aborts certified"
                );
                assert!(
                    cutoff < floor && floor <= exact,
                    "floor {floor} outside ({cutoff}, {exact}]"
                );
            }
        }
    }
    assert!(
        folded_with_aborts >= 2,
        "{folded_with_aborts} folds with aborts"
    );
}

/// A fresh cache file for one test case.
fn cache_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tilelink-admissibility-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.tsv"));
    let _ = std::fs::remove_file(&path);
    path
}

fn tune_with_cache<O: CostOracle>(
    oracle: &O,
    space: &SearchSpace,
    strategy: Strategy,
    cache: &std::path::Path,
    pruning: bool,
) -> TuneReport {
    Tuner::new(strategy)
        .with_pruning(pruning)
        .with_cache(TuneCache::open(cache).expect("cache opens"))
        .tune(oracle, space)
        .expect("search succeeds")
}

/// The ranking as (config, objective-value bits) pairs; `from_cache`
/// legitimately differs between a cold and a warm run.
fn ranking(report: &TuneReport) -> Vec<(OverlapConfig, u64)> {
    report
        .ranked
        .iter()
        .map(|c| (c.config, c.report.total_s.to_bits()))
        .collect()
}

/// The winner with the bits of its full report (the search prices the
/// comm-only and compute-only split for the winner only).
fn winner(report: &TuneReport) -> (OverlapConfig, [u64; 3]) {
    let r = report.best.report;
    assert_eq!(report.ranked[0].config, report.best.config);
    assert_eq!(
        report.ranked[0].report.total_s.to_bits(),
        r.total_s.to_bits()
    );
    (
        report.best.config,
        [
            r.total_s.to_bits(),
            r.comm_only_s.to_bits(),
            r.comp_only_s.to_bits(),
        ],
    )
}

/// Cold-tunes `oracle` into a fresh cache file, re-tunes from it, and checks
/// that the cold run wrote a full report line for its winner only, that the
/// warm run ranks bit-identically without simulating, that its winner is the
/// unbounded search's, and that an unbounded re-tune from the same file
/// ignores the floors. Returns the warm run's floor prunes.
fn assert_warm_retune_is_free<O: CostOracle>(
    name: &str,
    oracle: &O,
    space: &SearchSpace,
    strategy: Strategy,
) -> usize {
    let path = cache_file(name);
    let winner_reports = TUNE_WINNER_REPORTS.get();
    let cold = tune_with_cache(oracle, space, strategy, &path, true);
    assert_eq!(TUNE_WINNER_REPORTS.get(), winner_reports + 1, "{name}");
    assert!(!cold.best.from_cache, "{name}");
    // Only the winner has a full report line; every other ranked candidate
    // is cached as a total.
    let prefix = TuneCache::key_prefix(
        &oracle.workload_key(),
        &tilelink_tune::cluster_key(oracle.cluster()),
        &oracle.cost_revision(),
        &oracle.objective().key(),
    );
    let file = TuneCache::open(&path).expect("cache opens");
    for (i, c) in cold.ranked.iter().enumerate() {
        let key = TuneCache::key_in(&prefix, &c.config);
        assert_eq!(file.report(&key).is_some(), i == 0, "{name}: rank {i}");
        assert_eq!(file.get(&key), Some(c.report), "{name}: rank {i}");
    }
    let runs = SIM_MAKESPAN_RUNS.get();
    let warm = tune_with_cache(oracle, space, strategy, &path, true);
    assert_eq!(
        SIM_MAKESPAN_RUNS.get(),
        runs,
        "{name}: the warm re-tune simulated"
    );
    assert_eq!(TUNE_WINNER_REPORTS.get(), winner_reports + 1, "{name}");
    assert!(warm.best.from_cache, "{name}");
    assert_eq!(warm.evaluations, 0, "{name}");
    assert_eq!(warm.bounded_aborts, 0, "{name}");
    assert_eq!(
        ranking(&warm),
        ranking(&cold),
        "{name}: warm ranking differs"
    );
    assert_eq!(winner(&warm), winner(&cold), "{name}: warm winner differs");
    assert_eq!(warm.failed, cold.failed, "{name}: disposals differ");
    assert_eq!(warm.rounds.len(), cold.rounds.len(), "{name}");

    let unbounded = Tuner::new(strategy)
        .with_pruning(false)
        .tune(oracle, space)
        .expect("unbounded search succeeds");
    assert_eq!(winner(&warm), winner(&unbounded), "{name}: winner");
    // Floors only ever prune: without pruning they are ignored, and the
    // cached reports are bit-identical to fresh simulations.
    let warm_unbounded = tune_with_cache(oracle, space, strategy, &path, false);
    assert_eq!(warm_unbounded.failed.bound_pruned, 0, "{name}");
    assert_eq!(
        ranking(&warm_unbounded),
        ranking(&unbounded),
        "{name}: unbounded re-tune from a floor-bearing cache"
    );
    let _ = std::fs::remove_file(&path);
    eprintln!(
        "{name}: cold {} sims, {} aborted; warm {} floor-pruned",
        cold.evaluations, cold.bounded_aborts, warm.floor_pruned
    );
    warm.floor_pruned
}

const BEAM2: Strategy = Strategy::Beam {
    width: 2,
    sweeps: 2,
};

#[test]
fn warm_mlp_and_moe_retunes_rank_bit_identically_without_simulating() {
    let _serial = serial();
    let cluster = ClusterSpec::h800_node(8);
    let mlp = tilelink_workloads::shapes::mlp_shapes()[0].clone();
    let moe = tilelink_workloads::shapes::moe_shapes()[0].clone();
    let mut rng = Rng(0x0f10_0e5f_a11e_d000);
    let space = random_space(&mut rng);
    let mut floor_pruned = 0;
    for (cost_name, cost) in providers(&cluster) {
        for strategy in [Strategy::Exhaustive, BEAM2] {
            let tag = format!("{cost_name}-{strategy:?}");
            let oracle = MlpOracle::new(mlp.clone(), cluster.clone()).with_cost(cost.clone());
            floor_pruned +=
                assert_warm_retune_is_free(&format!("mlp-{tag}"), &oracle, &space, strategy);
            let oracle = MoeOracle::new(moe.clone(), cluster.clone()).with_cost(cost.clone());
            floor_pruned +=
                assert_warm_retune_is_free(&format!("moe-{tag}"), &oracle, &space, strategy);
        }
    }
    assert!(floor_pruned > 0, "no warm candidate was ever floor-pruned");
}

#[test]
fn warm_routed_moe_retunes_are_free_under_mean_p95_and_worst() {
    let _serial = serial();
    let cluster = ClusterSpec::h800_node(8);
    let shape = tilelink_workloads::shapes::moe_shapes()[0].clone();
    let space = SearchSpace::new()
        .with_comm_tiles([TileShape::new(128, 128)])
        .with_compute_tiles([TileShape::new(128, 128), TileShape::new(256, 256)])
        .with_mappings([
            CommMapping::CopyEngine,
            CommMapping::Sm { sms: 20 },
            CommMapping::Hybrid { sms: 16 },
        ])
        .with_stages([2, 3])
        .with_constraint(RING_REQUIRES_PUSH);
    let spec = RoutingSpec {
        samples: 3,
        ..RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 })
    };
    let mut floor_pruned = 0;
    for (cost_name, cost) in providers(&cluster) {
        for objective in [
            Objective::Mean,
            Objective::Percentile(95),
            Objective::WorstCase,
        ] {
            let oracle = MoeOracle::new(shape.clone(), cluster.clone())
                .with_cost(cost.clone())
                .with_routing(spec)
                .with_objective(objective);
            floor_pruned += assert_warm_retune_is_free(
                &format!("routed-{cost_name}-{}", objective.key()),
                &oracle,
                &space,
                Strategy::Exhaustive,
            );
        }
    }
    assert!(
        floor_pruned > 0,
        "no warm routed candidate was ever floor-pruned"
    );
}

#[test]
fn floors_from_a_narrow_beam_never_change_a_wider_search_winner() {
    let _serial = serial();
    let cluster = ClusterSpec::h800_node(8);
    let mlp = tilelink_workloads::shapes::mlp_shapes()[0].clone();
    let moe = tilelink_workloads::shapes::moe_shapes()[0].clone();
    let mut rng = Rng(0x0f10_0e5f_a11e_d000);
    let space = random_space(&mut rng);
    let beam4 = Strategy::Beam {
        width: 4,
        sweeps: 2,
    };
    let mut floor_pruned = 0;
    for (cost_name, cost) in providers(&cluster) {
        let oracles: [(&str, Box<dyn CostOracle>); 2] = [
            (
                "mlp",
                Box::new(MlpOracle::new(mlp.clone(), cluster.clone()).with_cost(cost.clone())),
            ),
            (
                "moe",
                Box::new(MoeOracle::new(moe.clone(), cluster.clone()).with_cost(cost.clone())),
            ),
        ];
        for (name, oracle) in &oracles {
            let narrow = cache_file(&format!("narrow-{name}-{cost_name}"));
            let written = Tuner::new(BEAM2)
                .with_cache(TuneCache::open(&narrow).unwrap())
                .tune(&**oracle, &space)
                .unwrap();
            assert!(
                written.bounded_aborts > 0,
                "{name}: the narrow beam wrote no floor"
            );
            for strategy in [beam4, Strategy::Exhaustive] {
                // Each reader gets its own copy of the narrow beam's file.
                let copy = cache_file(&format!("reader-{name}-{cost_name}"));
                std::fs::copy(&narrow, &copy).unwrap();
                let reader = Tuner::new(strategy)
                    .with_cache(TuneCache::open(&copy).unwrap())
                    .tune(&**oracle, &space)
                    .unwrap();
                let uncached = Tuner::new(strategy).tune(&**oracle, &space).unwrap();
                assert_eq!(
                    winner(&reader),
                    winner(&uncached),
                    "{name}/{cost_name}/{strategy:?}: floors changed the winner"
                );
                eprintln!(
                    "{name}/{cost_name}/{strategy:?}: {} floor-pruned",
                    reader.floor_pruned
                );
                floor_pruned += reader.floor_pruned;
                let _ = std::fs::remove_file(&copy);
            }
            let _ = std::fs::remove_file(&narrow);
        }
    }
    assert!(floor_pruned > 0, "no reader ever used a narrow-beam floor");
}

/// The bits of a bounded outcome, tagged by kind.
fn outcome_bits(outcome: BoundedMakespan) -> (bool, u64) {
    match outcome {
        BoundedMakespan::Finished(total) => (true, total.to_bits()),
        BoundedMakespan::Exceeded(floor) => (false, floor.to_bits()),
    }
}

/// Builds an oracle with an empty makespan memo.
type OracleFactory<'a> = Box<dyn Fn() -> Box<dyn CostOracle> + 'a>;

#[test]
fn repricing_a_config_on_one_oracle_replays_its_bits_without_simulating() {
    let _serial = serial();
    let cluster = ClusterSpec::h800_node(8);
    let mlp = tilelink_workloads::shapes::mlp_shapes()[0].clone();
    let moe = tilelink_workloads::shapes::moe_shapes()[0].clone();
    let attn = tilelink_workloads::shapes::attn_shapes()[0].clone();
    let seq_len = attn.seq_lens[0];
    let spec = RoutingSpec {
        samples: 3,
        ..RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 })
    };
    let cfg = OverlapConfig::default();
    let mut checked = 0;
    for (cost_name, cost) in providers(&cluster) {
        let mut fresh: Vec<(String, OracleFactory<'_>)> = vec![
            (
                "mlp".into(),
                Box::new(|| {
                    Box::new(MlpOracle::new(mlp.clone(), cluster.clone()).with_cost(cost.clone()))
                }),
            ),
            (
                "mlp_ag_gemm".into(),
                Box::new(|| {
                    Box::new(
                        MlpAgGemmOracle::new(mlp.clone(), cluster.clone()).with_cost(cost.clone()),
                    )
                }),
            ),
            (
                "moe".into(),
                Box::new(|| {
                    Box::new(MoeOracle::new(moe.clone(), cluster.clone()).with_cost(cost.clone()))
                }),
            ),
            (
                "attention".into(),
                Box::new(|| {
                    Box::new(
                        AttentionOracle::new(attn.clone(), seq_len, cluster.clone())
                            .with_cost(cost.clone()),
                    )
                }),
            ),
        ];
        for objective in [
            Objective::Mean,
            Objective::Percentile(95),
            Objective::WorstCase,
        ] {
            let (moe, cluster, cost) = (&moe, &cluster, &cost);
            fresh.push((
                format!("routed-{}", objective.key()),
                Box::new(move || {
                    Box::new(
                        MoeOracle::new(moe.clone(), cluster.clone())
                            .with_cost(cost.clone())
                            .with_routing(spec)
                            .with_objective(objective),
                    )
                }),
            ));
        }
        for (name, make) in &fresh {
            let exact = make().report(&cfg).expect("report").total_s;
            // Finishing, tight and far-off cutoffs: each re-pricing replays
            // exact makespans and floors alike.
            for cutoff in [f64::INFINITY, 1.01 * exact, 0.9 * exact, 0.5 * exact] {
                let ctx = format!("{name}/{cost_name} at {cutoff}");
                let oracle = make();
                let first = oracle.evaluate_bounded(&cfg, cutoff).expect(&ctx);
                let (runs, hits) = (SIM_MAKESPAN_RUNS.get(), TUNE_KERNEL_MEMO_HITS.get());
                let again = oracle.evaluate_bounded(&cfg, cutoff).expect(&ctx);
                assert_eq!(outcome_bits(again), outcome_bits(first), "{ctx}");
                assert_eq!(SIM_MAKESPAN_RUNS.get(), runs, "{ctx}: re-pricing simulated");
                assert!(TUNE_KERNEL_MEMO_HITS.get() > hits, "{ctx}: no memo hit");
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 2 * 7 * 4);
}

#[test]
fn twins_get_the_decision_a_fresh_oracle_makes_at_every_cutoff() {
    let _serial = serial();
    let cluster = ClusterSpec::h800_node(8);
    let shape = tilelink_workloads::shapes::moe_shapes()[0].clone();
    let cost = analytic_cost(&cluster);
    let spec = RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 });
    let base = OverlapConfig::default();
    let configs = [
        base,
        base.with_mode(TransferMode::Push),
        base.with_order(TileOrder::Ring)
            .with_mode(TransferMode::Push),
        base.with_order(TileOrder::Ring),
    ];
    let mut sorted = sample_totals(&shape, &cost, spec, &base);
    sorted.sort_by(f64::total_cmp);
    let mut cutoffs = cutoffs_between(&sorted);
    for objective in [Objective::Percentile(95), Objective::Mean] {
        let fresh = || {
            MoeOracle::new(shape.clone(), cluster.clone())
                .with_routing(spec)
                .with_objective(objective)
        };
        let exact = fresh().report(&base).expect("report").total_s;
        // One oracle prices the configs in turn at rising, then falling,
        // cutoffs, so its memo holds floors certified under other budgets
        // as well as exact makespans when a twin comes up.
        let shared = fresh();
        let (mut finished, mut aborted) = (0, 0);
        for pass in 0..2 {
            for (k, &cutoff) in cutoffs.iter().enumerate() {
                let cfg = configs[(k + pass) % configs.len()];
                let ctx = format!("{} {cfg:?} at {cutoff}", objective.key());
                let got = shared.evaluate_bounded(&cfg, cutoff).expect(&ctx);
                let want = fresh().evaluate_bounded(&cfg, cutoff).expect(&ctx);
                match (got, want) {
                    (BoundedMakespan::Finished(g), BoundedMakespan::Finished(w)) => {
                        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}");
                        finished += 1;
                    }
                    (BoundedMakespan::Exceeded(floor), BoundedMakespan::Exceeded(_)) => {
                        assert!(
                            cutoff < floor && floor <= exact,
                            "{ctx}: floor {floor} outside ({cutoff}, {exact}]"
                        );
                        aborted += 1;
                    }
                    _ => panic!("{ctx}: memo decided {got:?}, a fresh oracle {want:?}"),
                }
            }
            cutoffs.reverse();
        }
        assert!(
            finished >= 2 && aborted >= 2,
            "{finished} finished, {aborted} aborted"
        );
    }
}

#[test]
fn a_cold_routed_tune_simulates_the_same_on_one_and_two_threads() {
    let _serial = serial();
    let cluster = ClusterSpec::h800_node(8);
    let shape = tilelink_workloads::shapes::moe_shapes()[0].clone();
    let spec = RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 });
    let mut runs = Vec::new();
    for threads in [1, 2] {
        let path = cache_file(&format!("routed-threads-{threads}"));
        let oracle = MoeOracle::new(shape.clone(), cluster.clone())
            .with_routing(spec)
            .with_objective(Objective::Percentile(95));
        let sims = SIM_MAKESPAN_RUNS.get();
        Tuner::new(Strategy::default())
            .with_threads(threads)
            .with_cache(TuneCache::open(&path).expect("cache opens"))
            .tune(&oracle, &SearchSpace::standard())
            .expect("search succeeds");
        let sims = SIM_MAKESPAN_RUNS.get() - sims;
        let mut lines: Vec<String> = std::fs::read_to_string(&path)
            .expect("cache file written")
            .lines()
            .map(str::to_string)
            .collect();
        lines.sort();
        let _ = std::fs::remove_file(&path);
        runs.push((sims, lines));
    }
    assert_eq!(
        runs[0].0, runs[1].0,
        "simulations differ between 1 and 2 threads"
    );
    assert!(
        runs[0].1 == runs[1].1,
        "cache files differ between 1 and 2 threads"
    );
    assert!(runs[0].1.len() > 10, "only {} cache lines", runs[0].1.len());
}
