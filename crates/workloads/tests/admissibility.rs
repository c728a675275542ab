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
//! * infinite-cutoff parity: `evaluate_bounded(cfg, ∞)` is bit-identical to a
//!   reference report built here from the unbounded per-kernel functions, so
//!   an oracle is never checked against itself;
//! * warm re-tunes: the floors a bounded search certifies and caches let a
//!   re-tune from the same cache file rank bit-identically without a single
//!   simulation, and floors cached under a tight cutoff never change the
//!   winner of a looser search that reads them.
//!
//! Every test holds [`serial`], so the process-wide simulation counter a
//! warm re-tune is checked against only moves for that re-tune.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use tilelink::exec::BoundedReport;
use tilelink::{CommMapping, OverlapConfig, OverlapReport, TileShape};
use tilelink_probe::metrics::SIM_MAKESPAN_RUNS;
use tilelink_sim::{analytic_cost, CalibratedCostModel, ClusterSpec, SharedCost};
use tilelink_tune::{
    CostOracle, Objective, SearchSpace, Strategy, TuneCache, TuneReport, Tuner, RING_REQUIRES_PUSH,
};
use tilelink_workloads::autotune::{AttentionOracle, MlpOracle, MoeOracle};
use tilelink_workloads::{attention, mlp, moe, MlpShape, RoutingProfile, RoutingSpec};

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
        match oracle
            .evaluate_bounded(&cfg, f64::INFINITY)
            .expect("bounded eval succeeds")
        {
            BoundedReport::Report(bounded) => assert_eq!(
                bounded, report,
                "infinite-cutoff evaluation diverged for {cfg:?}"
            ),
            BoundedReport::Exceeded(_) => panic!("infinite cutoff aborted for {cfg:?}"),
        }
    }

    let bounded = Tuner::new(strategy)
        .tune(oracle, space)
        .expect("bounded search succeeds");
    let unbounded = Tuner::new(strategy)
        .with_pruning(false)
        .tune(oracle, space)
        .expect("unbounded search succeeds");

    // (b) bit-identical winners and makespans.
    assert_eq!(bounded.best.config, unbounded.best.config);
    assert_eq!(
        bounded.best.report.total_s.to_bits(),
        unbounded.best.report.total_s.to_bits(),
        "winning makespan changed under pruning"
    );

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
    let samples = spec.sampler().samples_for(&shape, spec.samples);
    for objective in [
        Objective::Mean,
        Objective::Percentile(67),
        Objective::WorstCase,
    ] {
        let oracle = MoeOracle::new(shape.clone(), cluster.clone())
            .with_routing(spec)
            .with_objective(objective);
        // Each sampled routing priced by the unbounded routed layer, then
        // folded by the objective.
        let reference = |cfg: &OverlapConfig| {
            let reports: Vec<OverlapReport> = samples
                .iter()
                .map(|sample| {
                    moe::timed_routed_full_moe_with(&shape, cfg, &cost, sample)
                        .expect("routed layer simulates")
                })
                .collect();
            objective.fold_reports(&reports)
        };
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
fn ranking(report: &TuneReport) -> Vec<(OverlapConfig, [u64; 3])> {
    report
        .ranked
        .iter()
        .map(|c| {
            let r = c.report;
            (
                c.config,
                [
                    r.total_s.to_bits(),
                    r.comm_only_s.to_bits(),
                    r.comp_only_s.to_bits(),
                ],
            )
        })
        .collect()
}

/// Cold-tunes `oracle` into a fresh cache file, re-tunes from it, and checks
/// that the warm run ranks bit-identically without simulating, that its
/// winner is the unbounded search's, and that an unbounded re-tune from the
/// same file ignores the floors. Returns the warm run's floor prunes.
fn assert_warm_retune_is_free<O: CostOracle>(
    name: &str,
    oracle: &O,
    space: &SearchSpace,
    strategy: Strategy,
) -> usize {
    let path = cache_file(name);
    let cold = tune_with_cache(oracle, space, strategy, &path, true);
    let runs = SIM_MAKESPAN_RUNS.get();
    let warm = tune_with_cache(oracle, space, strategy, &path, true);
    assert_eq!(
        SIM_MAKESPAN_RUNS.get(),
        runs,
        "{name}: the warm re-tune simulated"
    );
    assert_eq!(warm.evaluations, 0, "{name}");
    assert_eq!(warm.bounded_aborts, 0, "{name}");
    assert_eq!(
        ranking(&warm),
        ranking(&cold),
        "{name}: warm ranking differs"
    );
    assert_eq!(warm.failed, cold.failed, "{name}: disposals differ");
    assert_eq!(warm.rounds.len(), cold.rounds.len(), "{name}");

    let unbounded = Tuner::new(strategy)
        .with_pruning(false)
        .tune(oracle, space)
        .expect("unbounded search succeeds");
    assert_eq!(ranking(&warm)[0], ranking(&unbounded)[0], "{name}: winner");
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
                    reader.best.config, uncached.best.config,
                    "{name}/{cost_name}/{strategy:?}: floors changed the winner"
                );
                assert_eq!(
                    reader.best.report.total_s.to_bits(),
                    uncached.best.report.total_s.to_bits(),
                    "{name}/{cost_name}/{strategy:?}"
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
