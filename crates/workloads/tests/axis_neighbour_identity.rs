//! Incremental-recompile bit-identity over the standard search space.
//!
//! Beam and coordinate-descent searches move one [`OverlapConfig`] axis at a
//! time, so a tuning run compiles long chains of axis-neighbour candidates
//! against a warm compile cache — stage/mapping neighbours take the patch
//! path, every other axis a keyed full rebuild. The incremental-recompile
//! contract is that none of this is observable: for every axis-neighbour pair
//! of the standard space, compiling the neighbour against a cache warmed by
//! the base must produce the same compiled kernel, the same task graph and a
//! bit-identical overlap report as a cold compile of the neighbour alone,
//! under both cost models. The search prices those chains by their total
//! alone, so the total-only path must also agree bit for bit with the
//! report's `total_s` — per kernel and through every oracle.
//!
//! Two keys rest on what the program builders read. The compile cache keys
//! on `comm_tile.m`, `compute_tile.m` and `channels_per_rank` only, and the
//! oracles' makespan memo prices `order`/`mode` twins once. The contract
//! tests at the end check both at every compile site for every
//! standard-space config.

use std::collections::HashMap;
use std::ops::Range;

use tilelink::exec::{simulate_makespan_bounded_with, simulate_report_with, task_graph};
use tilelink::ir::TileProgram;
use tilelink::{
    reset_compile_cache, CacheSite, CommMapping, CompiledKernel, Compiler, OverlapConfig,
    OverlapReport, TileMapping, TileOrder, TileShape, TransferMode,
};
use tilelink_sim::{
    analytic_cost, BoundedMakespan, CalibratedCostModel, ClusterSpec, SharedCost, TaskGraph,
};
use tilelink_tune::{CostOracle, Objective, SearchSpace};
use tilelink_workloads::autotune::{AttentionOracle, MlpOracle, MoeOracle};
use tilelink_workloads::moe::{ag_group_gemm_program, group_gemm_rs_program};
use tilelink_workloads::shapes::{attn_shapes, mlp_shapes, moe_shapes};
use tilelink_workloads::{
    attention, mlp, moe, MlpShape, MoeShape, RoutingProfile, RoutingSample, RoutingSpec,
};

/// Every axis-neighbour of `base` in the standard space: for each of the
/// seven axes, each candidate value of that axis with all other axes held at
/// `base` (mirrors `SearchSpace::standard()` in `tilelink-tune`).
fn standard_axis_neighbours(base: &OverlapConfig) -> Vec<OverlapConfig> {
    let mut out = Vec::new();
    for comm in [
        TileShape::new(64, 64),
        TileShape::new(128, 128),
        TileShape::new(256, 128),
    ] {
        out.push(base.with_comm_tile(comm));
    }
    for compute in [
        TileShape::new(64, 128),
        TileShape::new(128, 128),
        TileShape::new(128, 256),
    ] {
        out.push(base.with_compute_tile(compute));
    }
    for order in [TileOrder::AllToAll, TileOrder::Ring] {
        out.push(base.with_order(order));
    }
    for mode in [TransferMode::Pull, TransferMode::Push] {
        out.push(base.with_mode(mode));
    }
    for mapping in [
        CommMapping::CopyEngine,
        CommMapping::Sm { sms: 8 },
        CommMapping::Sm { sms: 20 },
        CommMapping::Sm { sms: 40 },
        CommMapping::Hybrid { sms: 8 },
        CommMapping::Hybrid { sms: 20 },
    ] {
        out.push(base.with_comm_mapping(mapping));
    }
    // The standard space has a single channels value (4); list the axis
    // anyway so widening the space later extends coverage automatically.
    let channel_values = [4usize];
    for &channels in &channel_values {
        let mut cfg = *base;
        cfg.channels_per_rank = channels;
        out.push(cfg);
    }
    for stages in [2, 3, 4] {
        let mut cfg = *base;
        cfg.num_stages = stages;
        out.push(cfg);
    }
    out
}

fn compile_kernel(
    site: &'static str,
    shape: &MoeShape,
    cluster: &ClusterSpec,
    cfg: &OverlapConfig,
    cost: &SharedCost,
) -> CompiledKernel {
    let world = cluster.world_size();
    let compiler = Compiler::new(*cfg, cluster.gpu.clone()).with_cost(cost.clone());
    match site {
        "ag" => compiler
            .compile_cached(CacheSite::new("test.axis_neighbour.ag", 0), || {
                Ok(ag_group_gemm_program(shape, world, cfg))
            })
            .expect("compile ag"),
        _ => compiler
            .compile_cached(CacheSite::new("test.axis_neighbour.rs", 0), || {
                Ok(group_gemm_rs_program(shape, world, cfg))
            })
            .expect("compile rs"),
    }
}

/// The neighbours a search actually visits: valid on the GPU, and no ring
/// schedule without push (ring schedules forward partials to a neighbour,
/// which is inherently a push; the standard space prunes ring+pull the same
/// way).
fn searchable_neighbours(base: &OverlapConfig, sm_count: u64) -> Vec<OverlapConfig> {
    standard_axis_neighbours(base)
        .into_iter()
        .filter(|nb| {
            nb != base
                && nb.validate(sm_count).is_ok()
                && (nb.order != TileOrder::Ring || nb.mode == TransferMode::Push)
        })
        .collect()
}

fn assert_total_bit_identical(bounded: BoundedMakespan, total_s: f64, ctx: &str) {
    match bounded {
        BoundedMakespan::Finished(total) => {
            assert_eq!(total.to_bits(), total_s.to_bits(), "total-only path: {ctx}")
        }
        BoundedMakespan::Exceeded(clock) => panic!("infinite cutoff aborted at {clock}: {ctx}"),
    }
}

fn assert_reports_bit_identical(a: &OverlapReport, b: &OverlapReport, ctx: &str) {
    assert_eq!(a.total_s.to_bits(), b.total_s.to_bits(), "total_s: {ctx}");
    assert_eq!(
        a.comm_only_s.to_bits(),
        b.comm_only_s.to_bits(),
        "comm_only_s: {ctx}"
    );
    assert_eq!(
        a.comp_only_s.to_bits(),
        b.comp_only_s.to_bits(),
        "comp_only_s: {ctx}"
    );
}

#[test]
fn warm_axis_neighbour_compiles_match_cold_compiles_for_both_cost_models() {
    let shape = moe_shapes()[0].clone();
    let cluster = ClusterSpec::h800_node(8);
    let sm_count = cluster.gpu.sm_count;
    let analytic: SharedCost = analytic_cost(&cluster);
    let calibrated: SharedCost =
        std::sync::Arc::new(CalibratedCostModel::h800_defaults(cluster.clone()));
    let base = OverlapConfig::default();

    let mut checked = 0usize;
    for nb in searchable_neighbours(&base, sm_count) {
        for site in ["ag", "rs"] {
            for (model, cost) in [("analytic", &analytic), ("calibrated", &calibrated)] {
                let ctx = format!("{site}/{model}: {base:?} -> {nb:?}");

                // Warm path: the cache holds the base candidate, exactly as a
                // search leaves it before stepping to the neighbour.
                reset_compile_cache();
                let _ = compile_kernel(site, &shape, &cluster, &base, cost);
                let warm = compile_kernel(site, &shape, &cluster, &nb, cost);
                let warm_graph = task_graph(&warm, &cluster);
                let warm_report = simulate_report_with(&warm, cost).expect("warm report");
                assert_total_bit_identical(
                    simulate_makespan_bounded_with(&warm, cost, f64::INFINITY).expect("warm total"),
                    warm_report.total_s,
                    &ctx,
                );

                // Cold path: the same neighbour compiled from nothing.
                reset_compile_cache();
                let cold = compile_kernel(site, &shape, &cluster, &nb, cost);
                let cold_graph = task_graph(&cold, &cluster);
                let cold_report = simulate_report_with(&cold, cost).expect("cold report");

                assert_eq!(warm, cold, "compiled kernel: {ctx}");
                assert_eq!(warm_graph, cold_graph, "task graph: {ctx}");
                assert_reports_bit_identical(&warm_report, &cold_report, &ctx);
                checked += 1;
            }
        }
    }
    // 13 distinct neighbours survive pruning; each is checked for both
    // kernels and both cost models. Guard the loop against silently
    // vacuous pruning.
    assert!(checked >= 40, "only {checked} neighbour cases checked");
}

#[test]
fn oracle_totals_match_reports_across_axis_neighbours_for_both_cost_models() {
    let cluster = ClusterSpec::h800_node(8);
    let sm_count = cluster.gpu.sm_count;
    let mlp = mlp_shapes()[0].clone();
    let moe = moe_shapes()[0].clone();
    let attn = attn_shapes()[0].clone();
    let spec = RoutingSpec {
        samples: 2,
        ..RoutingSpec::new(RoutingProfile::Zipf { s: 1.2 })
    };
    let mut checked = 0usize;
    for (model, cost) in [
        ("analytic", analytic_cost(&cluster)),
        (
            "calibrated",
            std::sync::Arc::new(CalibratedCostModel::h800_defaults(cluster.clone())) as SharedCost,
        ),
    ] {
        let mut oracles: Vec<(String, Box<dyn CostOracle>)> = vec![
            (
                "mlp".into(),
                Box::new(MlpOracle::new(mlp.clone(), cluster.clone()).with_cost(cost.clone())),
            ),
            (
                "moe".into(),
                Box::new(MoeOracle::new(moe.clone(), cluster.clone()).with_cost(cost.clone())),
            ),
            (
                "attention".into(),
                Box::new(
                    AttentionOracle::new(attn.clone(), attn.seq_lens[0], cluster.clone())
                        .with_cost(cost.clone()),
                ),
            ),
        ];
        for objective in [
            Objective::Mean,
            Objective::Percentile(95),
            Objective::WorstCase,
        ] {
            oracles.push((
                format!("routed-{}", objective.key()),
                Box::new(
                    MoeOracle::new(moe.clone(), cluster.clone())
                        .with_cost(cost.clone())
                        .with_routing(spec)
                        .with_objective(objective),
                ),
            ));
        }
        // One warm compile cache across the chain, as a search leaves it.
        reset_compile_cache();
        for nb in searchable_neighbours(&OverlapConfig::default(), sm_count) {
            for (name, oracle) in &oracles {
                if !oracle.is_supported(&nb) {
                    continue;
                }
                let ctx = format!("{name}/{model}: {nb:?}");
                let total = oracle.evaluate_bounded(&nb, f64::INFINITY).expect(&ctx);
                let report = oracle.report(&nb).expect(&ctx);
                assert_total_bit_identical(total, report.total_s, &ctx);
                checked += 1;
            }
        }
    }
    assert!(checked >= 100, "only {checked} oracle cases checked");
}

/// The first MLP shape at a quarter of its tokens: the contract sweeps
/// below build and compile every standard-space config at every site, and
/// the builders' structure does not depend on the token count beyond how
/// many tiles they emit.
fn contract_mlp_shape() -> MlpShape {
    MlpShape {
        tokens: 2048,
        ..mlp_shapes()[0].clone()
    }
}

/// The first MoE shape at a quarter of its tokens (see
/// [`contract_mlp_shape`]).
fn contract_moe_shape() -> MoeShape {
    MoeShape {
        tokens: 2048,
        ..moe_shapes()[0].clone()
    }
}

/// One compile site: the tile-program builder behind one kernel an oracle
/// prices.
enum Site {
    MlpAg,
    MlpRs,
    MoeAg,
    MoeRs,
    RoutedAg(RoutingSample),
    RoutedRs(RoutingSample),
    Attention,
}

impl Site {
    /// The builder's program and tile mapping for `cfg` on `world` ranks.
    fn build(&self, world: usize, cfg: &OverlapConfig) -> (TileProgram, Box<dyn TileMapping>) {
        fn boxed<M: TileMapping + 'static>(
            (program, mapping): (TileProgram, M),
        ) -> (TileProgram, Box<dyn TileMapping>) {
            (program, Box::new(mapping))
        }
        let (m, moe) = (contract_mlp_shape(), contract_moe_shape());
        match self {
            Site::MlpAg => boxed(mlp::ag_gemm_program(
                m.tokens,
                m.hidden,
                m.intermediate,
                world,
                cfg,
            )),
            Site::MlpRs => boxed(mlp::gemm_rs_program(
                m.tokens,
                m.hidden,
                m.intermediate,
                world,
                cfg,
            )),
            Site::MoeAg => boxed(moe::ag_group_gemm_program(&moe, world, cfg)),
            Site::MoeRs => boxed(moe::group_gemm_rs_program(&moe, world, cfg)),
            Site::RoutedAg(sample) => boxed(
                moe::routed_ag_group_gemm_program(&moe, world, cfg, sample)
                    .expect("routed AG program builds"),
            ),
            Site::RoutedRs(sample) => {
                boxed(moe::routed_group_gemm_rs_program(&moe, world, cfg, sample))
            }
            Site::Attention => {
                let attn = &attn_shapes()[0];
                boxed(attention::sp_attention_program(
                    attn.heads,
                    attn.head_dim,
                    attn.seq_lens[0],
                    world,
                    cfg,
                ))
            }
        }
    }

    /// The standard-space configs the site's oracle prices.
    fn candidates(&self, cluster: &ClusterSpec) -> Vec<OverlapConfig> {
        let oracle: Box<dyn CostOracle> = match self {
            Site::MlpAg | Site::MlpRs => {
                Box::new(MlpOracle::new(contract_mlp_shape(), cluster.clone()))
            }
            Site::Attention => {
                let attn = attn_shapes()[0].clone();
                let seq_len = attn.seq_lens[0];
                Box::new(AttentionOracle::new(attn, seq_len, cluster.clone()))
            }
            _ => Box::new(MoeOracle::new(contract_moe_shape(), cluster.clone())),
        };
        SearchSpace::standard().candidates(&*oracle)
    }

    /// The config the production compile path hands the compiler (the
    /// ReduceScatter halves of the MoE layer pin their comm mapping).
    fn compile_config(&self, cfg: &OverlapConfig) -> OverlapConfig {
        match self {
            Site::MoeRs | Site::RoutedRs(_) => {
                cfg.with_comm_mapping(CommMapping::Hybrid { sms: 20 })
            }
            _ => *cfg,
        }
    }
}

/// The routed MoE halves under the first 8 samples of `profile`.
fn routed_sites(profile: RoutingProfile) -> Vec<(String, Site)> {
    let spec = RoutingSpec::new(profile);
    let samples = spec.sampler().samples_for(&contract_moe_shape(), 8);
    samples
        .into_iter()
        .enumerate()
        .flat_map(|(i, sample)| {
            [
                (
                    format!("routed.ag/{profile}/{i}"),
                    Site::RoutedAg(sample.clone()),
                ),
                (format!("routed.rs/{profile}/{i}"), Site::RoutedRs(sample)),
            ]
        })
        .collect()
}

/// Everything the compiler reads from a tile mapping, as plain tables.
#[derive(Debug, PartialEq)]
struct MappingTables {
    tiles: Vec<(Range<usize>, usize, usize)>,
    thresholds: Vec<u64>,
}

fn mapping_tables(mapping: &dyn TileMapping) -> MappingTables {
    MappingTables {
        tiles: (0..mapping.num_tiles())
            .map(|t| {
                (
                    mapping.rows_of(t).expect("tile rows"),
                    mapping.rank_of(t).expect("tile rank"),
                    mapping.channel_of(t).expect("tile channel"),
                )
            })
            .collect(),
        thresholds: (0..mapping.num_channels())
            .map(|c| mapping.channel_threshold(c))
            .collect(),
    }
}

/// `cfg` with every axis the compile cache leaves out of its key moved:
/// `order`/`mode` to their defaults, the two tile widths to a value no
/// standard-space config has.
fn outside_the_key(cfg: &OverlapConfig) -> OverlapConfig {
    OverlapConfig {
        comm_tile: TileShape::new(cfg.comm_tile.m, 1),
        compute_tile: TileShape::new(cfg.compute_tile.m, 1),
        ..cfg.priced_projection()
    }
}

/// Checks both key contracts at each site for every standard-space config:
///
/// * compile cache: the builder's `(program, mapping)` equals the one built
///   for [`outside_the_key`] of the config, so changing `order`, `mode`,
///   `comm_tile.n` or `compute_tile.n` changes nothing a builder emits (a
///   builder that starts reading any of them fails here);
/// * makespan memo: `order`/`mode` twins (equal priced projections), each
///   compiled cold from its own builder output, give kernels equal except
///   for their `config` field, with equal task graphs.
///
/// Returns the number of twins checked.
fn assert_key_contracts(sites: Vec<(String, Site)>) -> usize {
    let cluster = ClusterSpec::h800_node(8);
    let world = cluster.world_size();
    let cost = analytic_cost(&cluster);
    let mut twins = 0usize;
    for (name, site) in sites {
        let mut built: HashMap<OverlapConfig, (TileProgram, MappingTables)> = HashMap::new();
        let mut compiled: HashMap<OverlapConfig, (CompiledKernel, TaskGraph)> = HashMap::new();
        for cfg in site.candidates(&cluster) {
            let (program, mapping) = site.build(world, &cfg);
            let key = outside_the_key(&cfg);
            let (want_program, want_mapping) = built.entry(key).or_insert_with(|| {
                let (program, mapping) = site.build(world, &key);
                (program, mapping_tables(&*mapping))
            });
            assert!(
                program == *want_program,
                "{name}: program of {cfg:?} depends on an axis outside the compile key"
            );
            assert_eq!(
                mapping_tables(&*mapping),
                *want_mapping,
                "{name}: mapping of {cfg:?} depends on an axis outside the compile key"
            );

            let compile_cfg = site.compile_config(&cfg);
            let mut kernel = Compiler::new(compile_cfg, cluster.gpu.clone())
                .with_cost(cost.clone())
                .compile(&program, &*mapping)
                .expect("candidate compiles");
            assert_eq!(kernel.config, compile_cfg);
            let graph = task_graph(&kernel, &cluster);
            match compiled.get(&cfg.priced_projection()) {
                None => {
                    compiled.insert(cfg.priced_projection(), (kernel, graph));
                }
                Some((twin, twin_graph)) => {
                    kernel.config = twin.config;
                    assert!(
                        kernel == *twin,
                        "{name}: kernel of {cfg:?} differs from its twin's"
                    );
                    assert!(
                        graph == *twin_graph,
                        "{name}: task graph of {cfg:?} differs from its twin's"
                    );
                    twins += 1;
                }
            }
        }
    }
    twins
}

#[test]
fn mlp_moe_and_attention_builders_honour_the_compile_and_memo_keys() {
    let twins = assert_key_contracts(vec![
        ("mlp.ag".into(), Site::MlpAg),
        ("mlp.rs".into(), Site::MlpRs),
        ("moe.ag".into(), Site::MoeAg),
        ("moe.rs".into(), Site::MoeRs),
        ("attention".into(), Site::Attention),
    ]);
    assert!(twins >= 5 * 300, "only {twins} twins checked");
}

#[test]
fn routed_builders_under_zipf_samples_honour_the_compile_and_memo_keys() {
    let twins = assert_key_contracts(routed_sites(RoutingProfile::Zipf { s: 1.2 }));
    assert!(twins >= 16 * 300, "only {twins} twins checked");
}

#[test]
fn routed_builders_under_hot_expert_samples_honour_the_compile_and_memo_keys() {
    let twins = assert_key_contracts(routed_sites(RoutingProfile::HotExpert { hot: 2 }));
    assert!(twins >= 16 * 300, "only {twins} twins checked");
}
