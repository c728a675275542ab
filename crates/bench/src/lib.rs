//! Shared evaluation functions for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation (Section 7) has one
//! function here that produces its rows; the Criterion benches and the
//! `reproduce` binary both call these functions, so the printed numbers and the
//! benchmarked numbers are always the same code path.

#![deny(missing_docs)]

use tilelink_sim::{ClusterSpec, CostModelSpec, SharedCost};
use tilelink_workloads::{attention, baselines, e2e, mlp, moe, shapes, TuneOptions};

/// One (method, milliseconds) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Method name as used in the paper's legends.
    pub method: &'static str,
    /// Measured (simulated) time in milliseconds.
    pub ms: f64,
}

/// A labelled group of measurements (one cluster of bars in a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    /// Workload label (for example "MLP-1" or "Attn-1 / 32k").
    pub label: String,
    /// Measurements of every method on this workload.
    pub entries: Vec<Measurement>,
}

impl Group {
    /// Time of one method in the group.
    ///
    /// # Panics
    ///
    /// Panics if the method is not present.
    pub fn ms_of(&self, method: &str) -> f64 {
        self.entries
            .iter()
            .find(|e| e.method == method)
            .unwrap_or_else(|| panic!("method {method} missing from group {}", self.label))
            .ms
    }

    /// Speed-up of `method` over `baseline` (>1 means `method` is faster).
    pub fn speedup(&self, method: &str, baseline: &str) -> f64 {
        self.ms_of(baseline) / self.ms_of(method)
    }
}

/// The default evaluation platform: one node of 8×H800.
pub fn default_cluster() -> ClusterSpec {
    ClusterSpec::h800_node(8)
}

/// Builds the cost provider a figure harness prices a cluster with.
///
/// # Panics
///
/// Panics if the spec names a calibration file that cannot be loaded (the
/// harness validates the flag before running figures).
pub fn cost_for(cluster: &ClusterSpec, spec: &CostModelSpec) -> SharedCost {
    spec.build(cluster)
        .unwrap_or_else(|e| panic!("cannot build cost model {spec}: {e}"))
}

// ---------------------------------------------------------------------------
// Table 2 — motivational example (MLP-1, AG+GEMM and GEMM+RS)
// ---------------------------------------------------------------------------

/// Reproduces Table 2: the four techniques on the two halves of MLP-1,
/// priced by `cost` (the cluster is the provider's; see [`cost_for`]).
pub fn table2(cost: &SharedCost) -> Vec<Group> {
    let shape = &shapes::mlp_shapes()[0];
    let ag = Group {
        label: "AG+GEMM (MLP-1)".to_string(),
        entries: vec![
            Measurement {
                method: "Non-Overlap",
                ms: baselines::non_overlap_ag_gemm_with(shape, &**cost).total_ms(),
            },
            Measurement {
                method: "Decomposition",
                ms: baselines::decompose_ag_gemm_with(shape, &**cost).total_ms(),
            },
            Measurement {
                method: "Fusion (FLUX)",
                ms: baselines::flux_ag_gemm_with(shape, &**cost).total_ms(),
            },
            Measurement {
                method: "TileLink",
                ms: mlp::timed_ag_gemm_with(shape, &mlp::ag_gemm_config(), cost)
                    .expect("tilelink ag+gemm")
                    .total_ms(),
            },
        ],
    };
    let rs = Group {
        label: "GEMM+RS (MLP-1)".to_string(),
        entries: vec![
            Measurement {
                method: "Non-Overlap",
                ms: baselines::non_overlap_gemm_rs_with(shape, &**cost).total_ms(),
            },
            Measurement {
                method: "Decomposition",
                ms: baselines::decompose_gemm_rs_with(shape, &**cost).total_ms(),
            },
            Measurement {
                method: "Fusion (FLUX)",
                ms: baselines::flux_gemm_rs_with(shape, &**cost).total_ms(),
            },
            Measurement {
                method: "TileLink",
                ms: mlp::timed_gemm_rs_with(shape, &mlp::gemm_rs_config(), cost)
                    .expect("tilelink gemm+rs")
                    .total_ms(),
            },
        ],
    };
    vec![ag, rs]
}

// ---------------------------------------------------------------------------
// Figure 8 — MLP layers
// ---------------------------------------------------------------------------

/// Which panel of Figure 8 to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlpPanel {
    /// AllGather + GEMM.
    AgGemm,
    /// GEMM + ReduceScatter.
    GemmRs,
    /// The full MLP layer.
    Full,
}

/// Reproduces one panel of Figure 8 across MLP-1..6, priced by `cost` (the
/// cluster is the provider's).
pub fn fig8(panel: MlpPanel, cost: &SharedCost) -> Vec<Group> {
    shapes::mlp_shapes()
        .iter()
        .map(|shape| {
            let (base, decomp, flux, tilelink) = match panel {
                MlpPanel::AgGemm => (
                    baselines::non_overlap_ag_gemm_with(shape, &**cost).total_ms(),
                    baselines::decompose_ag_gemm_with(shape, &**cost).total_ms(),
                    baselines::flux_ag_gemm_with(shape, &**cost).total_ms(),
                    mlp::timed_ag_gemm_with(shape, &mlp::ag_gemm_config(), cost)
                        .expect("tilelink")
                        .total_ms(),
                ),
                MlpPanel::GemmRs => (
                    baselines::non_overlap_gemm_rs_with(shape, &**cost).total_ms(),
                    baselines::decompose_gemm_rs_with(shape, &**cost).total_ms(),
                    baselines::flux_gemm_rs_with(shape, &**cost).total_ms(),
                    mlp::timed_gemm_rs_with(shape, &mlp::gemm_rs_config(), cost)
                        .expect("tilelink")
                        .total_ms(),
                ),
                MlpPanel::Full => (
                    baselines::non_overlap_full_mlp_with(shape, &**cost).total_ms(),
                    baselines::decompose_full_mlp_with(shape, &**cost).total_ms(),
                    baselines::flux_full_mlp_with(shape, &**cost).total_ms(),
                    mlp::timed_full_mlp_with(shape, cost)
                        .expect("tilelink")
                        .total_ms(),
                ),
            };
            Group {
                label: shape.name.to_string(),
                entries: vec![
                    Measurement {
                        method: "cuBLAS+NCCL",
                        ms: base,
                    },
                    Measurement {
                        method: "Async-TP Torch",
                        ms: decomp,
                    },
                    Measurement {
                        method: "FLUX",
                        ms: flux,
                    },
                    Measurement {
                        method: "TileLink",
                        ms: tilelink,
                    },
                ],
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 9 — MoE layers
// ---------------------------------------------------------------------------

/// Which panel of Figure 9 to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoePanel {
    /// AG + Gather + GroupGEMM.
    First,
    /// GroupGEMM + Scatter + TopK Reduce + RS.
    Second,
    /// The full MoE layer.
    Full,
}

/// Reproduces one panel of Figure 9 across MoE-1..6, priced by `cost` (the
/// cluster is the provider's).
pub fn fig9(panel: MoePanel, cost: &SharedCost) -> Vec<Group> {
    shapes::moe_shapes()
        .iter()
        .map(|shape| {
            let cfg = moe::moe_config();
            let (cublas, cutlass, vllm, tilelink) = match panel {
                MoePanel::First => (
                    baselines::cublas_nccl_moe_first_with(shape, &**cost).total_ms(),
                    baselines::cutlass_nccl_moe_first_with(shape, &**cost).total_ms(),
                    baselines::vllm_moe_first_with(shape, &**cost).total_ms(),
                    moe::timed_ag_group_gemm_with(shape, &cfg, cost)
                        .expect("tilelink")
                        .total_ms(),
                ),
                MoePanel::Second => (
                    baselines::cublas_nccl_moe_second_with(shape, &**cost).total_ms(),
                    baselines::cutlass_nccl_moe_second_with(shape, &**cost).total_ms(),
                    baselines::vllm_moe_second_with(shape, &**cost).total_ms(),
                    moe::timed_group_gemm_rs_with(shape, &cfg, cost)
                        .expect("tilelink")
                        .total_ms(),
                ),
                MoePanel::Full => (
                    baselines::cublas_nccl_full_moe_with(shape, &**cost).total_ms(),
                    baselines::cutlass_nccl_full_moe_with(shape, &**cost).total_ms(),
                    baselines::vllm_full_moe_with(shape, &**cost).total_ms(),
                    moe::timed_full_moe_with(shape, cost)
                        .expect("tilelink")
                        .total_ms(),
                ),
            };
            Group {
                label: shape.name.to_string(),
                entries: vec![
                    Measurement {
                        method: "cuBLAS+NCCL",
                        ms: cublas,
                    },
                    Measurement {
                        method: "CUTLASS+NCCL",
                        ms: cutlass,
                    },
                    Measurement {
                        method: "vLLM-Op",
                        ms: vllm,
                    },
                    Measurement {
                        method: "TileLink",
                        ms: tilelink,
                    },
                ],
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 10 — sequence-parallel attention + overlap ratio
// ---------------------------------------------------------------------------

/// One row of Figure 10: times for the three methods plus TileLink's overlap ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionRow {
    /// Group label ("Attn-1 / 32k").
    pub label: String,
    /// Method measurements.
    pub group: Group,
    /// TileLink's overlap ratio on this point (Section 7.2 metric).
    pub overlap_ratio: f64,
}

/// Reproduces Figure 10 for one attention configuration, priced by `cost`
/// (the cluster is the provider's).
pub fn fig10(shape_index: usize, cost: &SharedCost) -> Vec<AttentionRow> {
    let shape = &shapes::attn_shapes()[shape_index];
    shape
        .seq_lens
        .iter()
        .map(|&seq| {
            let torch = baselines::torch_attention_with(shape, seq, &**cost).total_ms();
            let ring = baselines::ring_attention_with(shape, seq, &**cost).total_ms();
            let tl = attention::timed_sp_attention_with(
                shape,
                seq,
                &attention::attention_config(),
                cost,
            )
            .expect("tilelink attention");
            AttentionRow {
                label: format!("{} / {}k", shape.name, seq / 1024),
                group: Group {
                    label: format!("{} / {}k", shape.name, seq / 1024),
                    entries: vec![
                        Measurement {
                            method: "Torch",
                            ms: torch,
                        },
                        Measurement {
                            method: "RingAttn",
                            ms: ring,
                        },
                        Measurement {
                            method: "TileLink",
                            ms: tl.total_ms(),
                        },
                    ],
                },
                overlap_ratio: tl.overlap_ratio(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 11 — end-to-end models
// ---------------------------------------------------------------------------

/// The tuned TileLink column of one Figure 11 row (present when the harness
/// ran with tuning, see [`fig11_tuned`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedE2e {
    /// TileLink time under searched per-layer configs, in milliseconds.
    pub ms: f64,
    /// Simulator evaluations the layer searches performed for this model.
    pub evaluations: usize,
    /// Bounded simulations the layer searches aborted past the incumbent.
    pub bounded_aborts: usize,
    /// Lookups served by the persistent tuning cache instead of the simulator.
    pub cache_hits: usize,
}

/// One bar pair of Figure 11.
#[derive(Debug, Clone, PartialEq)]
pub struct E2eRow {
    /// Model name.
    pub model: &'static str,
    /// PyTorch baseline time in milliseconds.
    pub torch_ms: f64,
    /// TileLink time in milliseconds.
    pub tilelink_ms: f64,
    /// Tuned TileLink column; `None` when the harness ran without tuning.
    pub tuned: Option<TunedE2e>,
}

impl E2eRow {
    /// Speed-up of TileLink (default configs) over PyTorch.
    pub fn speedup(&self) -> f64 {
        self.torch_ms / self.tilelink_ms
    }

    /// Speed-up of tuned TileLink over PyTorch, when tuning ran.
    pub fn tuned_speedup(&self) -> Option<f64> {
        self.tuned.map(|t| self.torch_ms / t.ms)
    }
}

/// Reproduces Figure 11 for either the 8-GPU (false) or 16-GPU (true) setup.
///
/// Takes the cost-model *spec* rather than a built provider because the
/// cluster is chosen inside (a provider is bound to one cluster).
/// `model_subset` limits the evaluation to the first `n` models (the Criterion
/// benches use a subset to keep run times reasonable); pass `usize::MAX` for all.
pub fn fig11(two_nodes: bool, model_subset: usize, spec: &CostModelSpec) -> Vec<E2eRow> {
    let (cluster, tokens) = if two_nodes {
        e2e::two_node_setup()
    } else {
        e2e::single_node_setup()
    };
    let cost = cost_for(&cluster, spec);
    shapes::model_configs()
        .iter()
        .take(model_subset)
        .map(|model| {
            let cmp = e2e::compare_model_with(model, tokens, &cost).expect("e2e comparison");
            E2eRow {
                model: model.name,
                torch_ms: cmp.torch.total_s * 1e3,
                tilelink_ms: cmp.tilelink.total_s * 1e3,
                tuned: None,
            }
        })
        .collect()
}

/// [`fig11`] with a third, *tuned* TileLink column: per-layer configurations
/// come from the `tilelink-tune` search (strategy, space, persistent cache,
/// and — for MoE layers — routing distribution and objective all taken from
/// `opts`; its cost provider is overridden per cluster). With a warm
/// persistent cache the tuned column reports zero simulator evaluations.
///
/// # Panics
///
/// Panics if a comparison or layer search fails (the spec is validated by
/// [`cost_for`] before any search runs).
pub fn fig11_tuned(
    two_nodes: bool,
    model_subset: usize,
    spec: &CostModelSpec,
    opts: &TuneOptions,
) -> Vec<E2eRow> {
    let (cluster, tokens) = if two_nodes {
        e2e::two_node_setup()
    } else {
        e2e::single_node_setup()
    };
    let cost = cost_for(&cluster, spec);
    shapes::model_configs()
        .iter()
        .take(model_subset)
        .map(|model| {
            let cmp = e2e::compare_model_tuned_with(model, tokens, &cost, opts)
                .expect("tuned e2e comparison");
            E2eRow {
                model: model.name,
                torch_ms: cmp.base.torch.total_s * 1e3,
                tilelink_ms: cmp.base.tilelink.total_s * 1e3,
                tuned: Some(TunedE2e {
                    ms: cmp.tuned.timing.total_s * 1e3,
                    evaluations: cmp.tuned.evaluations,
                    bounded_aborts: cmp.tuned.bounded_aborts,
                    cache_hits: cmp.tuned.cache_hits,
                }),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Simulator throughput (the engine's own perf trajectory)
// ---------------------------------------------------------------------------

/// Throughput of the simulator on one benchmark graph: full-trace path
/// ([`tilelink_sim::Engine::run`]) vs makespan-only fast path
/// ([`tilelink_sim::Engine::makespan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimThroughput {
    /// Graph label.
    pub name: &'static str,
    /// Number of tasks in the graph.
    pub tasks: usize,
    /// Simulations per second through the trace-recording path.
    pub trace_sims_per_sec: f64,
    /// Simulations per second through the makespan-only path.
    pub makespan_sims_per_sec: f64,
}

impl SimThroughput {
    /// Speed-up of the makespan-only path over the trace path.
    pub fn speedup(&self) -> f64 {
        self.makespan_sims_per_sec / self.trace_sims_per_sec
    }
}

fn time_sims(mut f: impl FnMut(), iters: usize) -> f64 {
    f(); // warm-up, untimed
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// The three representative kernel graphs every simulator-facing harness mode
/// shares (Figure 8 MLP half, routed Figure 9 MoE half, two-node e2e-scale
/// kernel), each paired with the cost provider that priced it.
///
/// # Panics
///
/// Panics if a benchmark kernel fails to build (a compiler regression) or the
/// spec names an unloadable calibration file.
pub fn benchmark_graphs(
    spec: &CostModelSpec,
) -> Vec<(&'static str, SharedCost, tilelink_sim::TaskGraph)> {
    use tilelink_workloads::simgraph;

    let single = cost_for(&default_cluster(), spec);
    let two_node = cost_for(&e2e::two_node_setup().0, spec);
    let fig8 = simgraph::fig8_mlp_graph_with(&single).expect("fig8 bench graph");
    let fig9 = simgraph::fig9_routed_moe_graph_with(&single).expect("fig9 bench graph");
    let e2e = simgraph::e2e_two_node_graph_with(&two_node).expect("e2e bench graph");
    vec![
        ("fig8_mlp_ag_gemm", single.clone(), fig8),
        ("fig9_routed_moe_first", single, fig9),
        ("e2e_two_node_ag_gemm", two_node, e2e),
    ]
}

/// Measures simulations/second on the three representative kernel graphs
/// ([`benchmark_graphs`]) priced by `spec`'s cost model, `iters` timed
/// simulations per path.
///
/// # Panics
///
/// Panics if a benchmark kernel fails to build (a compiler regression) or the
/// spec names an unloadable calibration file.
pub fn sim_throughput(iters: usize, spec: &CostModelSpec) -> Vec<SimThroughput> {
    use tilelink_sim::{Engine, SimScratch};

    benchmark_graphs(spec)
        .into_iter()
        .map(|(name, cost, graph)| {
            let engine = Engine::with_cost(cost.clone());
            let mut scratch = SimScratch::new();
            let trace_sims_per_sec = time_sims(
                || {
                    std::hint::black_box(engine.run(&graph).expect("trace path"));
                },
                iters,
            );
            let makespan_sims_per_sec = time_sims(
                || {
                    std::hint::black_box(
                        engine
                            .makespan_with_scratch(&graph, &mut scratch)
                            .expect("fast path"),
                    );
                },
                iters,
            );
            SimThroughput {
                name,
                tasks: graph.len(),
                trace_sims_per_sec,
                makespan_sims_per_sec,
            }
        })
        .collect()
}

/// Wall-clock throughput of one cold Figure 9 MoE tuning run (in-memory
/// cache, so every candidate is either simulated or disposed of by the
/// branch-and-bound machinery).
#[derive(Debug, Clone, PartialEq)]
pub struct TuneThroughput {
    /// Wall-clock seconds of the whole search.
    pub wall_s: f64,
    /// Distinct candidates ranked by the search (fully simulated).
    pub candidates: usize,
    /// Oracle calls performed (each prices one candidate on the simulator).
    pub evaluations: usize,
    /// Candidates *disposed of* per second of wall time: ranked candidates
    /// plus those branch-and-bound discarded (skipped on their lower bound or
    /// abort-shortened by the incumbent cutoff). A pruned candidate is search
    /// progress just like a simulated one — the search answered "can this
    /// win?" for it — so the throughput counts both.
    pub candidates_per_sec: f64,
    /// Oracle evaluations per second of wall time.
    pub sims_per_sec: f64,
    /// Candidates skipped outright: lower bound already met the incumbent.
    pub pruned_bound: usize,
    /// Candidates whose simulation aborted early at the incumbent cutoff.
    pub bounded_aborts: usize,
    /// Candidates fully simulated (the ranked count).
    pub full_sims: usize,
    /// Candidate compiles served by patching a cached lowered program.
    pub compile_patched: u64,
    /// Candidate compiles that rebuilt the tile program from the frontend.
    pub compile_full_rebuilds: u64,
}

impl TuneThroughput {
    /// Fraction of candidate compiles served by the incremental patch path.
    pub fn patch_rate(&self) -> f64 {
        let total = self.compile_patched + self.compile_full_rebuilds;
        if total == 0 {
            0.0
        } else {
            self.compile_patched as f64 / total as f64
        }
    }

    /// Fraction of disposed candidates that branch-and-bound short-circuited
    /// (lower-bound skips plus cutoff-bounded aborts).
    pub fn short_circuit_rate(&self) -> f64 {
        let disposed = self.full_sims + self.pruned_bound + self.bounded_aborts;
        if disposed == 0 {
            0.0
        } else {
            (self.pruned_bound + self.bounded_aborts) as f64 / disposed as f64
        }
    }
}

/// Times a cold `tilelink-tune` search on the first Figure 9 MoE shape,
/// priced by `spec`'s cost model.
///
/// `quick` uses a compact space and a narrow beam (the CI trajectory
/// recording); otherwise the standard space under the default strategy — the
/// same search `reproduce --tune` runs per shape.
///
/// The search is repeated from a cold compile cache several times and the
/// fastest repeat is reported (criterion-style minimum-time estimation): a
/// quick search finishes in ~10 ms, so a single wall-clock window is dominated
/// by scheduler noise on a shared core, while the best of N approaches the
/// true cost of the work.
///
/// # Panics
///
/// Panics if the search fails (an oracle or space regression) or the spec
/// names an unloadable calibration file.
pub fn fig9_tune_throughput(quick: bool, spec: &CostModelSpec) -> TuneThroughput {
    use tilelink::TileShape;
    use tilelink_tune::{SearchSpace, Strategy};
    use tilelink_workloads::autotune;

    let shape = shapes::moe_shapes()[0].clone();
    let opts = if quick {
        // A compact 128-combination grid, searched exhaustively: the CI
        // trajectory recording for the branch-and-bound path. The space
        // deliberately spans the Sm mappings and small compute tiles whose
        // admissible lower bounds exceed the best configuration's makespan,
        // so a healthy run disposes of most of the grid without compiling
        // or fully simulating it (`fig9_tune_pruning` in `BENCH_sim.json`).
        TuneOptions {
            strategy: Strategy::Exhaustive,
            space: SearchSpace::new()
                .with_comm_tiles([TileShape::new(64, 64), TileShape::new(128, 128)])
                .with_compute_tiles([
                    TileShape::new(64, 128),
                    TileShape::new(128, 128),
                    TileShape::new(128, 256),
                    TileShape::new(256, 256),
                ])
                .with_mappings([
                    tilelink::CommMapping::CopyEngine,
                    tilelink::CommMapping::Sm { sms: 8 },
                    tilelink::CommMapping::Sm { sms: 12 },
                    tilelink::CommMapping::Sm { sms: 16 },
                    tilelink::CommMapping::Sm { sms: 20 },
                    tilelink::CommMapping::Sm { sms: 40 },
                ])
                .with_channels([1, 4])
                .with_stages([2, 4]),
            ..TuneOptions::default()
        }
    } else {
        TuneOptions {
            strategy: Strategy::default(),
            ..TuneOptions::default()
        }
    };
    let opts = opts.with_cost(cost_for(&default_cluster(), spec));
    let repeats = if quick { 5 } else { 3 };
    let mut best: Option<TuneThroughput> = None;
    for _ in 0..repeats {
        // A cold search: no lowered programs carried over from earlier runs in
        // this process (or from the previous repeat).
        tilelink::reset_compile_cache();
        let start = std::time::Instant::now();
        let tuned = autotune::tuned_full_moe(&shape, &default_cluster(), &opts).expect("fig9 tune");
        let wall_s = start.elapsed().as_secs_f64();
        let disposed = tuned.search.ranked.len() + tuned.search.failed.bound_pruned;
        let run = TuneThroughput {
            wall_s,
            candidates: tuned.search.ranked.len(),
            evaluations: tuned.search.evaluations,
            candidates_per_sec: disposed as f64 / wall_s,
            sims_per_sec: tuned.search.evaluations as f64 / wall_s,
            pruned_bound: tuned.search.pruned_bound(),
            bounded_aborts: tuned.search.bounded_aborts,
            full_sims: tuned.search.ranked.len(),
            compile_patched: tuned.search.compile_patched,
            compile_full_rebuilds: tuned.search.compile_full_rebuilds,
        };
        if best
            .as_ref()
            .is_none_or(|b| run.candidates_per_sec > b.candidates_per_sec)
        {
            best = Some(run);
        }
    }
    best.expect("at least one tune repeat")
}

/// Wall-clock milliseconds of each instrumented phase of one full Figure 9
/// MoE oracle evaluation (see [`fig9_oracle_phases`]): the compile-vs-simulate
/// attribution the ROADMAP's compile-speedup work will be judged against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OraclePhases {
    /// Tile-program building (`compile.build` spans).
    pub build_ms: f64,
    /// Lowering + consistency checks + pipelining (`compile.lower`).
    pub lower_ms: f64,
    /// Resource planning (`compile.plan`, `ResourcePlan::derive_with`-equivalent).
    pub plan_ms: f64,
    /// Task-graph construction (`graph.build`).
    pub graph_ms: f64,
    /// Discrete-event simulation (`simulate`).
    pub simulate_ms: f64,
    /// Wall clock of the whole oracle evaluation (phases plus glue).
    pub total_ms: f64,
}

impl OraclePhases {
    /// Fraction of the evaluation spent compiling (build + lower + plan +
    /// graph construction) rather than simulating.
    pub fn compile_fraction(&self) -> f64 {
        let compile = self.build_ms + self.lower_ms + self.plan_ms + self.graph_ms;
        let attributed = compile + self.simulate_ms;
        if attributed > 0.0 {
            compile / attributed
        } else {
            0.0
        }
    }
}

/// Cold and warm phase attributions of the Figure 9 MoE oracle.
///
/// *Cold* is the first evaluation after [`tilelink::reset_compile_cache`]:
/// the tile programs are built from the frontend, lowered and checked. *Warm*
/// is the steady state the tuner actually runs in: the immediately following
/// evaluation of the same `(workload, cluster)`, where the compiler patches
/// the cached lowered programs (pipeline + re-plan only) instead of
/// rebuilding them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleProfile {
    /// First evaluation, empty compile cache.
    pub cold: OraclePhases,
    /// Second evaluation, incremental recompilation path.
    pub warm: OraclePhases,
}

/// Profiles one full Figure 9 MoE oracle evaluation (default config, MoE-1,
/// both layer halves plus activation) twice — cold, then warm — and
/// attributes each evaluation's wall time to the instrumented pipeline
/// phases.
///
/// The span profiler is enabled just for these evaluations and restored to
/// its previous state afterwards; spans recorded before the call are
/// preserved for any later process-wide profile report.
///
/// # Panics
///
/// Panics if the evaluation fails (a compiler/oracle regression) or the spec
/// names an unloadable calibration file.
pub fn fig9_oracle_phases(spec: &CostModelSpec) -> OracleProfile {
    use tilelink_tune::CostOracle;
    use tilelink_workloads::autotune::MoeOracle;

    let shape = shapes::moe_shapes()[0].clone();
    let oracle =
        MoeOracle::new(shape, default_cluster()).with_cost(cost_for(&default_cluster(), spec));
    let was_enabled = tilelink_probe::enabled();
    tilelink_probe::set_enabled(true);
    // Scoped capture: set aside spans recorded before these evaluations so
    // each report attributes exactly one oracle call, then put everything
    // back.
    let mut prior = tilelink_probe::take_spans();
    tilelink::reset_compile_cache();
    let mut measure = || {
        let start = std::time::Instant::now();
        {
            // Marks this thread's spans: the evaluation runs on the calling
            // thread, while spans other threads record meanwhile land in the
            // same global sink and must not be attributed to it.
            let _root = tilelink_probe::span("fig9.oracle_eval");
            oracle
                .evaluate_bounded(&tilelink::OverlapConfig::default(), f64::INFINITY)
                .expect("fig9 oracle evaluation");
        }
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        let spans = tilelink_probe::take_spans();
        let thread = spans
            .iter()
            .rev()
            .find(|s| s.name == "fig9.oracle_eval")
            .map(|s| s.thread);
        let ours: Vec<_> = spans
            .iter()
            .filter(|s| Some(s.thread) == thread)
            .cloned()
            .collect();
        let report = tilelink_probe::ProfileReport::from_spans(&ours);
        prior.extend(spans);
        let ms = |name: &str| report.phase(name).map_or(0.0, |p| p.total_ms());
        OraclePhases {
            build_ms: ms("compile.build"),
            lower_ms: ms("compile.lower"),
            plan_ms: ms("compile.plan"),
            graph_ms: ms("graph.build"),
            simulate_ms: ms("simulate"),
            total_ms,
        }
    };
    let cold = measure();
    let warm = measure();
    tilelink_probe::set_enabled(was_enabled);
    tilelink_probe::restore_spans(prior);
    OracleProfile { cold, warm }
}

/// Serialises the simulator-throughput trajectory as JSON (`BENCH_sim.json`):
/// per-graph simulations/sec on both engine paths, the compile-vs-simulate
/// phase breakdown of one full Figure 9 MoE oracle evaluation, plus the
/// Figure 9 tune throughput, so future perf PRs have a baseline to compare
/// against. `cost_revision` records which cost model priced the runs.
pub fn bench_sim_json(
    graphs: &[SimThroughput],
    profile: &OracleProfile,
    tune: &TuneThroughput,
    quick: bool,
    cost_revision: &str,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"tilelink-bench-sim/v1\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"cost_revision\": \"{cost_revision}\",\n"));
    out.push_str("  \"graphs\": [\n");
    for (i, g) in graphs.iter().enumerate() {
        let comma = if i + 1 == graphs.len() { "" } else { "," };
        out.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"tasks\": {}, \"trace_sims_per_sec\": {:.1}, ",
                "\"makespan_sims_per_sec\": {:.1}, \"speedup\": {:.2}}}{}\n"
            ),
            g.name,
            g.tasks,
            g.trace_sims_per_sec,
            g.makespan_sims_per_sec,
            g.speedup(),
            comma
        ));
    }
    out.push_str("  ],\n");
    let phase_entry = |phases: &OraclePhases| {
        format!(
            concat!(
                "{{\"build_ms\": {:.4}, \"lower_ms\": {:.4}, ",
                "\"plan_ms\": {:.4}, \"graph_ms\": {:.4}, \"simulate_ms\": {:.4}, ",
                "\"total_ms\": {:.4}, \"compile_fraction\": {:.3}}}"
            ),
            phases.build_ms,
            phases.lower_ms,
            phases.plan_ms,
            phases.graph_ms,
            phases.simulate_ms,
            phases.total_ms,
            phases.compile_fraction()
        )
    };
    out.push_str(&format!(
        "  \"fig9_oracle_phases\": {},\n",
        phase_entry(&profile.cold)
    ));
    out.push_str(&format!(
        "  \"fig9_oracle_phases_warm\": {},\n",
        phase_entry(&profile.warm)
    ));
    out.push_str(&format!(
        concat!(
            "  \"fig9_tune\": {{\"wall_s\": {:.3}, \"candidates\": {}, \"evaluations\": {}, ",
            "\"candidates_per_sec\": {:.1}, \"sims_per_sec\": {:.1}, ",
            "\"compile_patched\": {}, \"compile_full_rebuilds\": {}, \"patch_rate\": {:.3}}},\n"
        ),
        tune.wall_s,
        tune.candidates,
        tune.evaluations,
        tune.candidates_per_sec,
        tune.sims_per_sec,
        tune.compile_patched,
        tune.compile_full_rebuilds,
        tune.patch_rate()
    ));
    out.push_str(&format!(
        concat!(
            "  \"fig9_tune_pruning\": {{\"candidates_per_sec\": {:.1}, ",
            "\"pruned_bound\": {}, \"bounded_aborts\": {}, \"full_sims\": {}, ",
            "\"short_circuit_rate\": {:.3}}}\n"
        ),
        tune.candidates_per_sec,
        tune.pruned_bound,
        tune.bounded_aborts,
        tune.full_sims,
        tune.short_circuit_rate()
    ));
    out.push('}');
    out
}

/// Serialises a serve load-generator run as JSON (`BENCH_serve.json`):
/// dedup-phase batching counts, warm-path latency percentiles and
/// throughput, the mixed-phase source breakdown, the connection-ramp levels
/// and the pipeline-counter deltas, next to `BENCH_sim.json` so `perf_gate`
/// can soft-gate serving performance the same way it gates simulator
/// throughput.
pub fn bench_serve_json(report: &tilelink_serve::ServeBenchReport) -> String {
    let latency_entry = |stats: &tilelink_serve::loadgen::LatencyStats| {
        format!(
            concat!(
                "{{\"requests\": {}, \"wall_s\": {:.4}, \"requests_per_sec\": {:.1}, ",
                "\"mean_us\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, ",
                "\"max_us\": {}}}"
            ),
            stats.count,
            stats.wall_s,
            stats.requests_per_sec,
            stats.mean_us,
            stats.p50_us,
            stats.p95_us,
            stats.p99_us,
            stats.max_us
        )
    };
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"tilelink-bench-serve/v2\",\n");
    out.push_str(&format!("  \"quick\": {},\n", report.config.quick));
    out.push_str(&format!(
        "  \"cost_revision\": \"{}\",\n",
        report.cost_revision
    ));
    out.push_str(&format!(
        concat!(
            "  \"dedup\": {{\"waiters\": {}, \"searches\": {}, \"deduped\": {}, ",
            "\"warm\": {}, \"identical\": {}}},\n"
        ),
        report.dedup.waiters,
        report.dedup.searches,
        report.dedup.deduped,
        report.dedup.warm,
        report.dedup.identical
    ));
    out.push_str(&format!("  \"warm\": {},\n", latency_entry(&report.warm)));
    out.push_str(&format!(
        "  \"mixed\": {{\"stats\": {}, \"warm\": {}, \"cold\": {}, \"deduped\": {}}},\n",
        latency_entry(&report.mixed.stats),
        report.mixed.warm,
        report.mixed.cold,
        report.mixed.deduped
    ));
    out.push_str("  \"ramp\": [\n");
    for (i, level) in report.ramp.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"connections\": {}, \"stats\": {}}}{}\n",
            level.connections,
            latency_entry(&level.stats),
            if i + 1 < report.ramp.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        concat!(
            "  \"metrics\": {{\"pool_rejected\": {}, \"cache_evictions\": {}, ",
            "\"cache_expired\": {}, \"executor_reuses\": {}}}\n"
        ),
        report.metrics.pool_rejected,
        report.metrics.cache_evictions,
        report.metrics.cache_expired,
        report.metrics.executor_reuses
    ));
    out.push('}');
    out
}

/// Times `iters` invocations of `f` and prints min/median/max wall-clock
/// milliseconds under `name`.
///
/// A minimal stand-in for a third-party benchmark harness (none is available
/// in this offline environment); the `cargo bench` targets of this crate are
/// plain `harness = false` binaries built on it.
pub fn bench_case(name: &str, iters: usize, mut f: impl FnMut()) {
    f(); // warm-up, untimed
    let mut samples_ms = Vec::with_capacity(iters.max(1));
    for _ in 0..iters.max(1) {
        let start = std::time::Instant::now();
        f();
        samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples_ms.sort_by(f64::total_cmp);
    println!(
        "{name:<44} median {:>9.3} ms  (min {:>9.3}, max {:>9.3}, {} iters)",
        samples_ms[samples_ms.len() / 2],
        samples_ms[0],
        samples_ms[samples_ms.len() - 1],
        samples_ms.len()
    );
}

/// Geometric mean of an iterator of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn table2_has_expected_shape_and_ordering() {
        let groups = table2(&cost_for(&default_cluster(), &CostModelSpec::Analytic));
        assert_eq!(groups.len(), 2);
        for g in &groups {
            assert_eq!(g.entries.len(), 4);
            // Decomposition is the slowest method in both halves (paper Table 2).
            assert!(g.ms_of("Decomposition") > g.ms_of("Non-Overlap"));
            // TileLink beats the non-overlapping baseline.
            assert!(g.speedup("TileLink", "Non-Overlap") > 1.0, "{g:?}");
        }
    }

    #[test]
    fn bench_serve_json_parses_with_every_gated_key() {
        let stats = |count: usize| tilelink_serve::loadgen::LatencyStats {
            count,
            wall_s: 0.5,
            requests_per_sec: count as f64 / 0.5,
            mean_us: 42.0,
            p50_us: 30,
            p95_us: 90,
            p99_us: 150,
            max_us: 400,
        };
        let report = tilelink_serve::ServeBenchReport {
            config: tilelink_serve::LoadGenConfig::quick(CostModelSpec::Analytic),
            cost_revision: "analytic-v2".to_string(),
            dedup: tilelink_serve::loadgen::DedupPhase {
                waiters: 16,
                searches: 1,
                deduped: 15,
                warm: 0,
                identical: 16,
            },
            warm: stats(2000),
            mixed: tilelink_serve::loadgen::MixedPhase {
                stats: stats(200),
                warm: 150,
                cold: 30,
                deduped: 20,
            },
            ramp: vec![
                tilelink_serve::RampLevel {
                    connections: 8,
                    stats: stats(2000),
                },
                tilelink_serve::RampLevel {
                    connections: 64,
                    stats: stats(2000),
                },
            ],
            metrics: tilelink_serve::PipelineMetrics {
                pool_rejected: 0,
                cache_evictions: 3,
                cache_expired: 1,
                executor_reuses: 12,
            },
        };
        let json = bench_serve_json(&report);
        let v = tilelink_probe::parse_json(&json).expect("valid BENCH_serve JSON");
        // The keys perf_gate reads; losing one silently un-gates serving perf.
        for (path, key) in [
            ("warm", "requests_per_sec"),
            ("warm", "p50_us"),
            ("warm", "p95_us"),
            ("warm", "p99_us"),
            ("dedup", "searches"),
            ("dedup", "deduped"),
            ("metrics", "pool_rejected"),
            ("metrics", "cache_evictions"),
            ("metrics", "cache_expired"),
            ("metrics", "executor_reuses"),
        ] {
            assert!(
                v.get(path).and_then(|o| o.get(key)).is_some(),
                "missing {path}.{key} in {json}"
            );
        }
        assert!(v
            .get("mixed")
            .and_then(|m| m.get("stats"))
            .and_then(|s| s.get("p99_us"))
            .is_some());
        // Every ramp level carries connections + p99 for the gate.
        let ramp = v
            .get("ramp")
            .and_then(|r| r.as_array())
            .expect("ramp array");
        assert_eq!(ramp.len(), 2);
        for level in ramp {
            assert!(level.get("connections").is_some());
            assert!(level.get("stats").and_then(|s| s.get("p99_us")).is_some());
        }
    }

    #[test]
    fn fig10_rows_have_overlap_ratio() {
        let rows = fig10(0, &cost_for(&default_cluster(), &CostModelSpec::Analytic));
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.overlap_ratio >= 0.0 && r.overlap_ratio <= 1.0);
            assert!(r.group.speedup("TileLink", "Torch") > 1.0);
        }
    }

    #[test]
    fn sim_throughput_measures_all_three_graphs() {
        let rows = sim_throughput(2, &CostModelSpec::Analytic);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.tasks > 0, "{}", r.name);
            assert!(r.trace_sims_per_sec > 0.0, "{}", r.name);
            assert!(r.makespan_sims_per_sec > 0.0, "{}", r.name);
        }
        let tune = TuneThroughput {
            wall_s: 2.0,
            candidates: 10,
            evaluations: 8,
            candidates_per_sec: 5.0,
            sims_per_sec: 4.0,
            pruned_bound: 4,
            bounded_aborts: 2,
            full_sims: 10,
            compile_patched: 18,
            compile_full_rebuilds: 2,
        };
        let cold = OraclePhases {
            build_ms: 0.5,
            lower_ms: 1.0,
            plan_ms: 0.25,
            graph_ms: 0.75,
            simulate_ms: 2.5,
            total_ms: 5.5,
        };
        let warm = OraclePhases {
            build_ms: 0.0,
            lower_ms: 0.2,
            plan_ms: 0.05,
            graph_ms: 0.3,
            simulate_ms: 2.5,
            total_ms: 3.2,
        };
        let profile = OracleProfile { cold, warm };
        let json = bench_sim_json(&rows, &profile, &tune, true, "analytic-v2");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"fig9_tune\""));
        assert!(json.contains("fig9_routed_moe_first"));
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains("\"cost_revision\": \"analytic-v2\""));
        // The perf trajectory is machine-read by CI and future PRs: hold it to
        // a validator-grade parse, and check the phase keys CI gates on.
        let v = tilelink_probe::parse_json(&json).expect("valid BENCH_sim JSON");
        for entry in ["fig9_oracle_phases", "fig9_oracle_phases_warm"] {
            let ph = v.get(entry).expect("phase breakdown");
            for key in ["build_ms", "lower_ms", "plan_ms", "graph_ms", "simulate_ms"] {
                assert!(
                    ph.get(key)
                        .and_then(tilelink_probe::JsonValue::as_f64)
                        .is_some(),
                    "{entry}.{key}"
                );
            }
        }
        assert_eq!(
            v.get("fig9_oracle_phases")
                .and_then(|p| p.get("compile_fraction"))
                .and_then(tilelink_probe::JsonValue::as_f64),
            Some(0.5)
        );
        let tune_v = v.get("fig9_tune").expect("tune block");
        assert_eq!(
            tune_v
                .get("patch_rate")
                .and_then(tilelink_probe::JsonValue::as_f64),
            Some(0.9)
        );
        let pruning = v.get("fig9_tune_pruning").expect("pruning block");
        for (key, want) in [
            ("candidates_per_sec", 5.0),
            ("pruned_bound", 4.0),
            ("bounded_aborts", 2.0),
            ("full_sims", 10.0),
            // 6 of 16 disposed candidates were short-circuited.
            ("short_circuit_rate", 0.375),
        ] {
            assert_eq!(
                pruning.get(key).and_then(tilelink_probe::JsonValue::as_f64),
                Some(want),
                "fig9_tune_pruning.{key}"
            );
        }
    }

    #[test]
    fn fig9_oracle_phases_attribute_the_evaluation() {
        let profile = fig9_oracle_phases(&CostModelSpec::Analytic);
        let phases = profile.cold;
        // Every instrumented phase of a cold MoE oracle evaluation must
        // actually run: both halves build + lower + plan, build their graphs,
        // and simulate.
        assert!(phases.build_ms > 0.0, "{phases:?}");
        assert!(phases.lower_ms > 0.0, "{phases:?}");
        assert!(phases.plan_ms > 0.0, "{phases:?}");
        assert!(phases.graph_ms > 0.0, "{phases:?}");
        assert!(phases.simulate_ms > 0.0, "{phases:?}");
        // Attributed phase time can never exceed the evaluation's wall clock
        // (build/lower/plan/graph/simulate are disjoint top-level scopes).
        let attributed = phases.build_ms
            + phases.lower_ms
            + phases.plan_ms
            + phases.graph_ms
            + phases.simulate_ms;
        assert!(
            attributed <= phases.total_ms,
            "attributed {attributed} ms > wall {} ms",
            phases.total_ms
        );
        let frac = phases.compile_fraction();
        assert!((0.0..=1.0).contains(&frac), "{frac}");
        // The warm evaluation rides the incremental recompilation path: the
        // frontend build never runs, while lowering (the cached-program
        // patch), planning, graph construction and simulation still do.
        let warm = profile.warm;
        assert!(warm.build_ms == 0.0, "{warm:?}");
        assert!(warm.lower_ms > 0.0, "{warm:?}");
        assert!(warm.plan_ms > 0.0, "{warm:?}");
        assert!(warm.graph_ms > 0.0, "{warm:?}");
        assert!(warm.simulate_ms > 0.0, "{warm:?}");
    }

    #[test]
    fn fig8_trace_out_is_validator_grade_chrome_json() {
        use tilelink_probe::JsonValue;

        // The same graph `--trace-out` exports: first of the benchmark set.
        let (name, cost, graph) = benchmark_graphs(&CostModelSpec::Analytic)
            .into_iter()
            .next()
            .expect("benchmark graphs");
        assert_eq!(name, "fig8_mlp_ag_gemm");
        let tasks = graph.len();
        let trace = tilelink_sim::Engine::with_cost(cost)
            .run(&graph)
            .expect("fig8 graph simulates");
        let parsed = tilelink_probe::parse_json(&trace.to_chrome_json()).expect("valid trace JSON");
        let JsonValue::Array(events) = parsed else {
            panic!("trace_event output must be a JSON array");
        };
        let meta_of = |meta: &str, pid: f64, tid: Option<f64>| {
            events
                .iter()
                .filter(|m| {
                    m.get("ph").and_then(JsonValue::as_str) == Some("M")
                        && m.get("name").and_then(JsonValue::as_str) == Some(meta)
                        && m.get("pid").and_then(JsonValue::as_f64) == Some(pid)
                        && tid.is_none_or(|t| m.get("tid").and_then(JsonValue::as_f64) == Some(t))
                })
                .count()
        };
        let mut x_events = 0usize;
        for ev in &events {
            let pid = ev.get("pid").and_then(JsonValue::as_f64).expect("pid");
            let tid = ev.get("tid").and_then(JsonValue::as_f64).expect("tid");
            match ev.get("ph").and_then(JsonValue::as_str) {
                Some("M") => {}
                Some("X") => {
                    x_events += 1;
                    // Consistent timestamps, and lanes/processes that were
                    // actually declared: every rank names its process, every
                    // used resource lane names its thread.
                    assert!(ev.get("ts").and_then(JsonValue::as_f64).expect("ts") >= 0.0);
                    assert!(ev.get("dur").and_then(JsonValue::as_f64).expect("dur") >= 0.0);
                    assert_eq!(meta_of("process_name", pid, None), 1, "pid {pid}");
                    assert_eq!(
                        meta_of("thread_name", pid, Some(tid)),
                        1,
                        "pid {pid} tid {tid}"
                    );
                }
                ph => panic!("unexpected ph {ph:?}"),
            }
        }
        // One complete event per simulated task, spread over all 8 ranks.
        assert_eq!(x_events, tasks);
        let mut pids: Vec<u64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(JsonValue::as_f64))
            .map(|p| p as u64)
            .collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sim_throughput_accepts_the_calibrated_model() {
        let spec = CostModelSpec::Calibrated { path: None };
        let rows = sim_throughput(1, &spec);
        assert_eq!(rows.len(), 3);
        let tune = fig9_tune_throughput(true, &spec);
        assert!(tune.evaluations > 0);
        assert!(tune.wall_s > 0.0);
    }

    #[test]
    fn fig11_subset_speeds_up() {
        let rows = fig11(false, 2, &CostModelSpec::Analytic);
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!(r.speedup() > 1.0, "{}: {:.2}", r.model, r.speedup());
            assert_eq!(r.tuned, None);
            assert_eq!(r.tuned_speedup(), None);
        }
    }

    #[test]
    fn fig11_tuned_rows_carry_the_tuned_column() {
        let opts = tilelink_workloads::TuneOptions::default();
        let rows = fig11_tuned(false, 1, &CostModelSpec::Analytic, &opts);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        let t = r.tuned.expect("tuned column");
        assert!(t.evaluations > 0, "cold in-memory search must simulate");
        // Under the deterministic analytic model the searched config never
        // loses to the hand-picked defaults end to end (empirical pin, same
        // caveat as e2e::tests::tuned_speedup_is_at_least_the_default_config_speedup).
        let tuned_speedup = r.tuned_speedup().expect("tuned speedup");
        assert!(
            tuned_speedup >= r.speedup(),
            "tuned {tuned_speedup:.3}x < default {:.3}x",
            r.speedup()
        );
    }
}
