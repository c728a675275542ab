//! Prints every table and figure of the paper's evaluation from the simulated
//! cluster. Run with `cargo run -p tilelink-bench --bin reproduce --release`.
//!
//! Flags (combine freely; no flags prints everything):
//! `--table2 --shapes --fig8 --fig9 --fig10 --fig11 --ablation`
//!
//! `--quick` prints a fast smoke subset (shapes + Table 2) — used by CI to
//! keep this binary from rotting.
//!
//! `--cost-model {analytic|calibrated[:path]}` selects the cost provider the
//! simulator prices transfers with: the default `analytic` model reproduces
//! the historical figures; `calibrated` layers the α/β + achieved-bandwidth
//! table (built-in H800 defaults, or a TSV you measured) over it, repricing
//! baselines and TileLink kernels consistently. The provider's revision is
//! folded into the persistent tuning-cache key, so `--tune` results obtained
//! under different cost models never alias.
//!
//! `--tune` additionally runs the `tilelink-tune` design-space search on the
//! Figure 8 MLP and Figure 9 MoE shapes and prints tuned-vs-default speedups.
//! It is opt-in (not part of the no-flag default) because a cold search
//! simulates a few hundred candidate kernels per shape; repeated runs are
//! near-free thanks to the persistent tuning cache. Combined with `--fig11`
//! (`--fig11 --tune`) the end-to-end rows gain a third, tuned-TileLink column
//! whose per-layer configs come from the same search and cache.
//!
//! `--bench-sim` times the simulator itself instead of printing figures:
//! simulations/sec of the full-trace path vs the makespan-only fast path on
//! three representative kernel graphs, plus the wall-clock throughput of a
//! cold Figure 9 tune. `--bench-sim --json` additionally writes the numbers
//! to `BENCH_sim.json` (the perf trajectory CI uploads as an artifact);
//! `--bench-sim --quick` uses fewer iterations and a compact tuning space.
//!
//! `--bench-serve` load-tests the `tilelink-serve` tuning daemon over real
//! localhost sockets: a dedup volley (N identical cold requests must trigger
//! exactly one search), a warm-hit hammer (the microsecond path) and a mixed
//! catalog sweep, reporting throughput and p50/p95/p99 latency per phase.
//! `--bench-serve --json` writes the numbers to `BENCH_serve.json` (soft-gated
//! by `perf_gate` next to `BENCH_sim.json`); `--bench-serve --quick` runs the
//! reduced CI volume.
//!
//! `--serve` runs a small smoke of the same daemon: boots it on an ephemeral
//! port, then exercises PING, a cold search, a warm hit and a concurrent
//! dedup volley through real client connections. Like `--tune` it is opt-in
//! (not part of the no-flag default).
//!
//! `--routing {uniform|zipf:<s>|hot:<k>}` and `--objective {mean|p<1-99>|worst}`
//! make the MoE part of `--tune` routing-distribution-aware: candidates are
//! priced over sampled routings through the dynamic tile mapping and the
//! search minimises the chosen statistic (e.g. the p95 makespan) instead of
//! the expected-routing mean. The report prints the mean/uniform-tuned and the
//! skew-tuned winner side by side per Figure 9 shape. `--quick --tune` runs a
//! reduced smoke version of the same comparison (used by CI).
//!
//! Observability (combine with any of the above, including `--quick` and
//! `--bench-sim`):
//!
//! * `--profile[=<path>]` enables the `tilelink-probe` span profiler for the
//!   whole run and prints a per-phase wall-time table (count, total, mean,
//!   p95, max, self-minus-children) on exit; with `=<path>` it also writes
//!   the report plus the metrics-registry snapshot as JSON.
//! * `--trace-out <dir>` simulates the three benchmark graphs and writes one
//!   Chrome `trace_event` JSON per graph into `<dir>` (ranks as processes,
//!   resource lanes as threads — open in Perfetto or `chrome://tracing`),
//!   printing each trace's utilisation/overlap summary. Combined with
//!   `--profile` it also writes `host.trace.json` with the host-side spans.
//! * `--verbose` (requires `--tune`) prints per-beam-round search progress
//!   (round, best-so-far, evaluations) to stderr while tuning.

use tilelink_bench::{
    bench_serve_json, bench_sim_json, benchmark_graphs, cost_for, default_cluster, fig10, fig11,
    fig11_tuned, fig8, fig9, fig9_oracle_phases, fig9_tune_throughput, geomean, sim_throughput,
    table2, MlpPanel, MoePanel,
};
use tilelink_sim::CostModelSpec;
use tilelink_tune::{Objective, SearchExecutor, TuneCache};
use tilelink_workloads::moe::RoutingProfile;
use tilelink_workloads::{shapes, RoutingSpec, TuneOptions};

/// The section flags of a command line: everything except the option-style
/// arguments (`--cost-model`, `--routing`, `--objective`, `--trace-out` and
/// their values, `--quick`, `--verbose` and `--profile[=…]`). `--tune` keeps
/// its historical role as a section selector.
fn section_flags(args: &[String]) -> Vec<&String> {
    let mut sections: Vec<&String> = Vec::new();
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--cost-model" || a == "--routing" || a == "--objective" || a == "--trace-out" {
            skip_next = true; // skip the flag's value too
            continue;
        }
        if a == "--quick"
            || a == "--profile"
            || a == "--verbose"
            || a.starts_with("--cost-model=")
            || a.starts_with("--routing=")
            || a.starts_with("--objective=")
            || a.starts_with("--trace-out=")
            || a.starts_with("--profile=")
        {
            continue;
        }
        sections.push(a);
    }
    sections
}

/// Parses `--profile[=<path>]`: `None` when absent, `Some(None)` for the bare
/// flag (table on stdout only), `Some(Some(path))` when a JSON report was
/// also requested.
fn profile_arg(args: &[String]) -> Option<Option<String>> {
    let mut found = None;
    for a in args {
        if a == "--profile" {
            found = found.or(Some(None));
        } else if let Some(path) = a.strip_prefix("--profile=") {
            found = Some(Some(path.to_string()));
        }
    }
    found
}

/// Extracts the value of an option-style `--flag VALUE` / `--flag=VALUE`.
fn option_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        return match args.get(i + 1) {
            Some(v) => Ok(Some(v.clone())),
            None => Err(format!("{flag} requires a value")),
        };
    }
    let prefix = format!("{flag}=");
    Ok(args
        .iter()
        .find_map(|a| a.strip_prefix(&prefix))
        .map(String::from))
}

/// Parses `--routing` / `--objective` into the routing-aware tuning inputs.
/// `--objective` without `--routing` implies sampled uniform routing (a
/// percentile needs a distribution to take the percentile of).
fn routing_args(args: &[String]) -> Result<(Option<RoutingSpec>, Objective), String> {
    let profile = option_value(args, "--routing")?
        .map(|v| v.parse::<RoutingProfile>())
        .transpose()?;
    let objective = option_value(args, "--objective")?
        .map(|v| v.parse::<Objective>())
        .transpose()?
        .unwrap_or(Objective::Mean);
    let spec = match (profile, objective) {
        (Some(p), _) => Some(RoutingSpec::new(p)),
        (None, Objective::Mean) => None,
        (None, _) => Some(RoutingSpec::new(RoutingProfile::Uniform)),
    };
    Ok((spec, objective))
}

/// Section selection: no section flag means "print everything", so
/// `reproduce --cost-model calibrated` still prints everything.
fn wants(args: &[String], flag: &str) -> bool {
    let sections = section_flags(args);
    sections.is_empty() || sections.iter().any(|a| *a == flag)
}

fn print_groups(title: &str, groups: &[tilelink_bench::Group], baseline: &str) {
    println!("\n== {title} ==");
    for g in groups {
        print!("{:<12}", g.label);
        for e in &g.entries {
            print!(" {:>14}: {:>9.3} ms", e.method, e.ms);
        }
        println!();
    }
    println!(
        "geomean speedup of TileLink over {}: {:.2}x",
        baseline,
        geomean(groups.iter().map(|g| g.speedup("TileLink", baseline)))
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cluster = default_cluster();
    let spec = CostModelSpec::from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // Build once and fail fast on an unloadable calibration file; every
    // single-cluster section below shares this provider (fig11 picks its own
    // clusters, so it takes the spec instead).
    let cost = cost_for(&cluster, &spec);
    println!("(cost model: {spec}, revision {})", cost.revision());
    let (routing, objective) = routing_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // Routing flags only affect the tuning pass; accepting them without
    // `--tune` would silently drop them (same policy as --quick + sections).
    if routing.is_some() && !args.iter().any(|a| a == "--tune") {
        eprintln!("error: --routing/--objective require --tune");
        std::process::exit(2);
    }

    // `--json` only means something to the bench modes; anywhere else it
    // would be silently swallowed as an unmatched section flag, so reject it
    // (same policy as --routing without --tune).
    if args.iter().any(|a| a == "--json")
        && !args
            .iter()
            .any(|a| a == "--bench-sim" || a == "--bench-serve")
    {
        eprintln!("error: --json requires --bench-sim or --bench-serve");
        std::process::exit(2);
    }

    // Like --routing, --verbose only changes the tuning pass.
    let verbose = args.iter().any(|a| a == "--verbose");
    if verbose && !args.iter().any(|a| a == "--tune") {
        eprintln!("error: --verbose requires --tune");
        std::process::exit(2);
    }

    let profile = profile_arg(&args);
    let trace_out = option_value(&args, "--trace-out").unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if profile.is_some() {
        // Enabled before any section runs so the exit report attributes the
        // whole run; disabled sites cost one relaxed atomic load each.
        tilelink_probe::set_enabled(true);
    }

    run(&args, &cluster, &spec, &cost, routing, objective, verbose);

    if let Some(dir) = &trace_out {
        write_traces(dir, &spec);
    }
    if let Some(json_path) = &profile {
        finish_profile(json_path.as_deref(), trace_out.as_deref());
    }
}

/// Everything the selected flags asked for, in section order. Split out of
/// `main` so its early returns (`--bench-sim`, `--quick`) still fall through
/// to the `--trace-out` / `--profile` epilogue.
#[allow(clippy::too_many_arguments)]
fn run(
    args: &[String],
    cluster: &tilelink_sim::ClusterSpec,
    spec: &CostModelSpec,
    cost: &tilelink_sim::SharedCost,
    routing: Option<RoutingSpec>,
    objective: Objective,
    verbose: bool,
) {
    if args.iter().any(|a| a == "--bench-sim") {
        // A perf-trajectory mode, not a figure section: it times the
        // simulator itself (trace path vs makespan-only fast path, plus a
        // cold Figure 9 tune) and with --json records the numbers into
        // BENCH_sim.json so future perf PRs have a baseline.
        let quick = args.iter().any(|a| a == "--quick");
        if let Some(flag) = section_flags(args)
            .iter()
            .find(|f| **f != "--bench-sim" && **f != "--json")
        {
            eprintln!("error: --bench-sim cannot be combined with {flag}");
            std::process::exit(2);
        }
        bench_sim(quick, args.iter().any(|a| a == "--json"), spec, cost);
        return;
    }

    if args.iter().any(|a| a == "--bench-serve") {
        // The serving counterpart of --bench-sim: load-tests the
        // tilelink-serve daemon over real sockets and with --json records
        // the numbers into BENCH_serve.json for the perf-gate trajectory.
        let quick = args.iter().any(|a| a == "--quick");
        if let Some(flag) = section_flags(args)
            .iter()
            .find(|f| **f != "--bench-serve" && **f != "--json")
        {
            eprintln!("error: --bench-serve cannot be combined with {flag}");
            std::process::exit(2);
        }
        bench_serve(quick, args.iter().any(|a| a == "--json"), spec);
        return;
    }

    if args.iter().any(|a| a == "--quick") {
        // `--quick` replaces section selection entirely; combining it with
        // section flags would silently drop them, so reject that instead.
        // `--tune` is the one exception: `--quick --tune` runs a reduced
        // tuning smoke (the CI entry point for the routing-aware search).
        if let Some(flag) = section_flags(args).iter().find(|f| **f != "--tune") {
            eprintln!("error: --quick cannot be combined with {flag}");
            std::process::exit(2);
        }
        // CI smoke subset: cheap, but exercises shapes, baselines and one
        // compiled TileLink kernel per MLP half.
        print_shapes();
        print_groups(
            "Table 2: motivational example (MLP-1)",
            &table2(cost),
            "Non-Overlap",
        );
        if args.iter().any(|a| a == "--tune") {
            quick_tune_smoke(cluster, cost, routing, objective, verbose);
            quick_e2e_tune_smoke(spec, routing, objective, verbose);
        }
        return;
    }

    if wants(args, "--shapes") {
        print_shapes();
    }

    if wants(args, "--table2") {
        print_groups(
            "Table 2: motivational example (MLP-1)",
            &table2(cost),
            "Non-Overlap",
        );
    }

    if wants(args, "--fig8") {
        print_groups(
            "Figure 8: AG+GEMM",
            &fig8(MlpPanel::AgGemm, cost),
            "cuBLAS+NCCL",
        );
        print_groups(
            "Figure 8: GEMM+RS",
            &fig8(MlpPanel::GemmRs, cost),
            "cuBLAS+NCCL",
        );
        print_groups(
            "Figure 8: full MLP",
            &fig8(MlpPanel::Full, cost),
            "cuBLAS+NCCL",
        );
    }

    if wants(args, "--fig9") {
        print_groups(
            "Figure 9: AG+Gather+GroupGEMM",
            &fig9(MoePanel::First, cost),
            "cuBLAS+NCCL",
        );
        print_groups(
            "Figure 9: GroupGEMM+Scatter+TopK+RS",
            &fig9(MoePanel::Second, cost),
            "cuBLAS+NCCL",
        );
        print_groups(
            "Figure 9: full MoE",
            &fig9(MoePanel::Full, cost),
            "cuBLAS+NCCL",
        );
    }

    if wants(args, "--fig10") {
        for idx in 0..shapes::attn_shapes().len() {
            let rows = fig10(idx, cost);
            println!("\n== Figure 10: {} ==", shapes::attn_shapes()[idx].name);
            for r in &rows {
                print!("{:<16}", r.label);
                for e in &r.group.entries {
                    print!(" {:>9}: {:>9.3} ms", e.method, e.ms);
                }
                println!("  overlap ratio: {:.1}%", r.overlap_ratio * 100.0);
            }
            println!(
                "geomean speedup over Torch: {:.2}x, over RingAttn: {:.2}x, mean overlap ratio {:.1}%",
                geomean(rows.iter().map(|r| r.group.speedup("TileLink", "Torch"))),
                geomean(rows.iter().map(|r| r.group.speedup("TileLink", "RingAttn"))),
                100.0 * rows.iter().map(|r| r.overlap_ratio).sum::<f64>() / rows.len() as f64
            );
        }
    }

    if wants(args, "--fig11") {
        // Under --tune the Figure 11 rows gain a third, tuned-TileLink column:
        // per-layer configs searched by tilelink-tune (persistent cache, so
        // reruns answer from disk with zero simulations).
        let tune_requested = args.iter().any(|a| a == "--tune");
        let tune_opts = tune_requested.then(|| {
            let opts = TuneOptions::default()
                .with_default_cache()
                .with_executor(SearchExecutor::global())
                .with_verbose(verbose);
            let opts = match routing {
                Some(spec) => opts.with_routing(spec).with_objective(objective),
                None => opts.with_objective(objective),
            };
            println!(
                "\n(figure 11 tuning cache: {})",
                TuneCache::default_path().display()
            );
            if let Some(spec) = &opts.routing {
                // The tuned MoE estimate is the objective statistic over
                // sampled routings — a harder workload than the
                // uniform-routing default column.
                println!(
                    "(MoE layers tuned and priced under routing {spec}, objective {objective})"
                );
            }
            opts
        });
        for (two_nodes, label) in [(false, "8xH800"), (true, "16xH800")] {
            let rows = match &tune_opts {
                Some(opts) => fig11_tuned(two_nodes, usize::MAX, spec, opts),
                None => fig11(two_nodes, usize::MAX, spec),
            };
            println!("\n== Figure 11: end-to-end, {label} ==");
            for r in &rows {
                print!(
                    "{:<16} Torch {:>10.1} ms   TileLink {:>10.1} ms   speedup {:.2}x",
                    r.model,
                    r.torch_ms,
                    r.tilelink_ms,
                    r.speedup()
                );
                match (&r.tuned, r.tuned_speedup()) {
                    (Some(t), Some(s)) => println!(
                        "   tuned {:>10.1} ms   speedup {s:.2}x ({} sims, {} aborted, {} cached)",
                        t.ms, t.evaluations, t.bounded_aborts, t.cache_hits
                    ),
                    _ => println!(),
                }
            }
            print!(
                "geomean speedup: {:.2}x",
                geomean(rows.iter().map(|r| r.speedup()))
            );
            if rows.iter().all(|r| r.tuned.is_some()) {
                println!(
                    "   tuned geomean: {:.2}x",
                    geomean(rows.iter().filter_map(|r| r.tuned_speedup()))
                );
            } else {
                println!();
            }
        }
    }

    if wants(args, "--ablation") {
        ablations(cost);
    }

    // Opt-in only: a cold tuning run simulates hundreds of candidates.
    if args.iter().any(|a| a == "--tune") {
        tune(cluster, cost, routing, objective, verbose);
    }

    // Opt-in only, like --tune: boots a real daemon on an ephemeral port.
    if args.iter().any(|a| a == "--serve") {
        serve_smoke(spec);
    }
}

/// `--trace-out` epilogue: simulates the three benchmark graphs and writes
/// one Chrome `trace_event` JSON per graph into `dir`, printing each trace's
/// per-rank utilisation and overlap summary.
fn write_traces(dir: &str, spec: &CostModelSpec) {
    use tilelink_sim::Engine;

    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {dir}: {e}"));
    for (name, cost, graph) in benchmark_graphs(spec) {
        let trace = Engine::with_cost(cost)
            .run(&graph)
            .expect("benchmark graph simulates");
        let path = format!("{dir}/{name}.trace.json");
        std::fs::write(&path, trace.to_chrome_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\n== Trace: {name} (wrote {path}) ==");
        print!("{}", trace.summary());
    }
}

/// `--profile` epilogue: drains every span recorded during the run, prints
/// the per-phase attribution table and — when a path was given — writes the
/// JSON report (phases plus the metrics-registry snapshot). When `--trace-out`
/// was also given, the host spans are additionally exported as a Chrome trace
/// next to the simulated ones.
fn finish_profile(json_path: Option<&str>, trace_dir: Option<&str>) {
    let spans = tilelink_probe::take_spans();
    let report = tilelink_probe::ProfileReport::from_spans(&spans);
    println!("\n== Host profile ({} spans) ==", spans.len());
    print!("{}", report.render());
    if let Some(path) = json_path {
        std::fs::write(path, report.to_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("(wrote {path})");
    }
    if let Some(dir) = trace_dir {
        let path = format!("{dir}/host.trace.json");
        std::fs::write(&path, tilelink_probe::chrome::spans_to_chrome(&spans))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("(wrote {path})");
    }
}

fn print_shapes() {
    println!("== Table 4: benchmark shapes ==");
    for s in shapes::mlp_shapes() {
        println!(
            "{}: S={} H={} I={} ({})",
            s.name, s.tokens, s.hidden, s.intermediate, s.source
        );
    }
    for s in shapes::moe_shapes() {
        println!(
            "{}: S={} H={} I={} E={} topk={}",
            s.name, s.tokens, s.hidden, s.intermediate, s.experts, s.top_k
        );
    }
    for s in shapes::attn_shapes() {
        println!(
            "{}: heads={} head_dim={} seq={:?}",
            s.name, s.heads, s.head_dim, s.seq_lens
        );
    }
}

/// Tuned-vs-default comparison on the Figure 8 MLP and Figure 9 MoE shapes,
/// plus — when a routing distribution was requested — the mean/uniform-tuned
/// vs skew-tuned winner comparison per Figure 9 shape.
fn tune(
    cluster: &tilelink_sim::ClusterSpec,
    cost: &tilelink_sim::SharedCost,
    routing: Option<RoutingSpec>,
    objective: Objective,
    verbose: bool,
) {
    use tilelink_workloads::autotune::{self, MlpOracle, MoeOracle, TuneOptions};

    let opts = TuneOptions::default()
        .with_default_cache()
        .with_cost(cost.clone())
        .with_executor(tilelink_tune::SearchExecutor::global())
        .with_verbose(verbose);
    if let Some(path) = &opts.cache_path {
        println!(
            "\n(tuning cache: {}, cost-model revision {})",
            path.display(),
            cost.revision()
        );
    }

    println!("\n== Autotune: Figure 8 MLP layers (tuned vs default config) ==");
    let mut speedups = Vec::new();
    for shape in shapes::mlp_shapes() {
        let tuned = autotune::tuned_full_mlp(&shape, cluster, &opts).expect("tuning succeeds");
        let default_ms = default_ms(
            &tuned,
            &MlpOracle::new(shape.clone(), cluster.clone()).with_cost(cost.clone()),
        );
        let speedup = default_ms / tuned.layer.total_ms();
        speedups.push(speedup);
        println!(
            "{:<8} default {:>9.3} ms -> tuned {:>9.3} ms ({:.2}x, {}) best: {}",
            shape.name,
            default_ms,
            tuned.layer.total_ms(),
            speedup,
            effort(&tuned.search),
            tuned.config.cache_key()
        );
    }
    println!(
        "geomean tuned-vs-default speedup: {:.2}x",
        geomean(speedups)
    );

    println!("\n== Autotune: Figure 9 MoE layers (tuned vs default config) ==");
    let mut speedups = Vec::new();
    let mut mean_winners = Vec::new();
    for shape in shapes::moe_shapes() {
        let tuned = autotune::tuned_full_moe(&shape, cluster, &opts).expect("tuning succeeds");
        let default_ms = default_ms(
            &tuned,
            &MoeOracle::new(shape.clone(), cluster.clone()).with_cost(cost.clone()),
        );
        let speedup = default_ms / tuned.layer.total_ms();
        speedups.push(speedup);
        println!(
            "{:<8} default {:>9.3} ms -> tuned {:>9.3} ms ({:.2}x, {}) best: {}",
            shape.name,
            default_ms,
            tuned.layer.total_ms(),
            speedup,
            effort(&tuned.search),
            tuned.config.cache_key()
        );
        mean_winners.push((shape, tuned));
    }
    println!(
        "geomean tuned-vs-default speedup: {:.2}x",
        geomean(speedups)
    );

    // Routing-distribution-aware pass: retune each MoE shape over sampled
    // routings and print the skew winner next to the mean/uniform winner.
    let Some(spec) = routing else { return };
    let routed_opts = opts.with_routing(spec).with_objective(objective);
    println!("\n== Autotune: Figure 9 MoE layers under routing {spec}, objective {objective} ==");
    for (shape, mean_tuned) in &mean_winners {
        let routed =
            autotune::tuned_full_moe(shape, cluster, &routed_opts).expect("tuning succeeds");
        let marker = if routed.config == mean_tuned.config {
            "same config"
        } else {
            "DIFFERS"
        };
        println!(
            "{:<8} mean/uniform best: {:<44} {:>9.3} ms",
            shape.name,
            mean_tuned.config.cache_key(),
            mean_tuned.layer.total_ms(),
        );
        println!(
            "         {}/{} best:   {:<44} {:>9.3} ms  ({})  [{marker}]",
            spec.profile,
            objective,
            routed.config.cache_key(),
            routed.layer.total_ms(),
            effort(&routed.search),
        );
    }
}

/// Reduced tuning smoke for `--quick --tune`: one MoE shape, a compact space,
/// few routing samples — enough to exercise the routing-aware search end to
/// end without the cost of the full `--tune` pass. CI runs this under both
/// cost models, against the persistent default cache, and checks that a
/// rerun simulates nothing.
fn quick_tune_smoke(
    cluster: &tilelink_sim::ClusterSpec,
    cost: &tilelink_sim::SharedCost,
    routing: Option<RoutingSpec>,
    objective: Objective,
    verbose: bool,
) {
    use tilelink::{CommMapping, TileShape};
    use tilelink_tune::{SearchSpace, Strategy};
    use tilelink_workloads::autotune::{self, TuneOptions};

    let shape = shapes::moe_shapes()[0].clone();
    let space = SearchSpace::new()
        .with_comm_tiles([TileShape::new(128, 128), TileShape::new(256, 128)])
        .with_compute_tiles([TileShape::new(128, 256), TileShape::new(256, 256)])
        .with_mappings([CommMapping::CopyEngine, CommMapping::Hybrid { sms: 20 }])
        .with_stages([2, 3]);
    let base = TuneOptions {
        strategy: Strategy::Beam {
            width: 2,
            sweeps: 1,
        },
        space,
        ..TuneOptions::default()
    }
    .with_default_cache()
    .with_cost(cost.clone())
    .with_executor(tilelink_tune::SearchExecutor::global())
    .with_verbose(verbose);

    println!("\n== Autotune smoke: {} (compact space) ==", shape.name);
    let mean_tuned =
        autotune::tuned_full_moe(&shape, cluster, &base).expect("mean tuning succeeds");
    println!(
        "mean/uniform best: {:<44} {:>9.3} ms ({})",
        mean_tuned.config.cache_key(),
        mean_tuned.layer.total_ms(),
        effort(&mean_tuned.search),
    );
    let Some(mut spec) = routing else { return };
    spec.samples = 4; // smoke: fewer sampled routings per candidate
    let routed_opts = base.with_routing(spec).with_objective(objective);
    let routed =
        autotune::tuned_full_moe(&shape, cluster, &routed_opts).expect("routed tuning succeeds");
    let marker = if routed.config == mean_tuned.config {
        "same config"
    } else {
        "DIFFERS"
    };
    println!(
        "{}/{} best:     {:<44} {:>9.3} ms ({})  [{marker}]",
        spec.profile,
        objective,
        routed.config.cache_key(),
        routed.layer.total_ms(),
        effort(&routed.search),
    );
}

/// Reduced tuned-e2e smoke for `--quick --tune`: one dense and one MoE model
/// on the single-node setup plus the dense model on the two-node setup,
/// against the persistent default cache (so CI's repeated steps reuse the
/// tuning TSV instead of re-simulating). Unlike the layer smoke above this
/// searches the *standard* space — the tuned column is only meaningful if the
/// search can reach configurations at least as good as the hand-picked ones.
fn quick_e2e_tune_smoke(
    spec: &CostModelSpec,
    routing: Option<RoutingSpec>,
    objective: Objective,
    verbose: bool,
) {
    let mut opts = TuneOptions::default()
        .with_default_cache()
        .with_objective(objective)
        .with_executor(SearchExecutor::global())
        .with_verbose(verbose);
    if let Some(mut spec) = routing {
        spec.samples = 4; // smoke: fewer sampled routings per candidate
        opts = opts.with_routing(spec);
    }
    println!(
        "\n== Tuned e2e smoke (Figure 11 subset, cache {}) ==",
        TuneCache::default_path().display()
    );
    if let Some(spec) = &opts.routing {
        // The tuned MoE estimate is then the objective statistic over sampled
        // routings — a harder workload than the uniform-routing default
        // column, so the two speedups are not directly comparable.
        println!("(MoE layers tuned and priced under routing {spec}, objective {objective})");
    }
    let models = shapes::model_configs();
    // One dense and one MoE model on the single-node setup (the MoE model is
    // what --routing/--objective act on), the dense one again on two nodes.
    for (two_nodes, names, label) in [
        (false, &["LLaMA2-7B", "Mixtral-8x7B"][..], "8xH800"),
        (true, &["LLaMA2-7B"][..], "16xH800"),
    ] {
        let (cluster, tokens) = if two_nodes {
            tilelink_workloads::e2e::two_node_setup()
        } else {
            tilelink_workloads::e2e::single_node_setup()
        };
        let cost = cost_for(&cluster, spec);
        for model in models.iter().filter(|m| names.contains(&m.name)) {
            let cmp =
                tilelink_workloads::e2e::compare_model_tuned_with(model, tokens, &cost, &opts)
                    .expect("tuned e2e smoke");
            println!(
                "{label:<8} {:<14} default speedup {:.2}x   tuned speedup {:.2}x ({} sims, {} aborted, {} cached)",
                model.name,
                cmp.default_speedup(),
                cmp.tuned_speedup(),
                cmp.tuned.evaluations,
                cmp.tuned.bounded_aborts,
                cmp.tuned.cache_hits
            );
        }
    }
}

/// Simulator-throughput trajectory: trace path vs makespan-only fast path on
/// the three benchmark graphs, plus one cold Figure 9 tune — all priced by
/// the selected `--cost-model`. With `json` the numbers are also written to
/// `BENCH_sim.json` in the working directory.
fn bench_sim(quick: bool, json: bool, spec: &CostModelSpec, cost: &tilelink_sim::SharedCost) {
    let iters = if quick { 30 } else { 200 };
    println!("== Simulator throughput ({iters} timed simulations per path) ==");
    let rows = sim_throughput(iters, spec);
    for r in &rows {
        println!(
            "{:<24} {:>6} tasks   trace {:>9.1} sims/s   makespan-only {:>9.1} sims/s   {:>5.2}x",
            r.name,
            r.tasks,
            r.trace_sims_per_sec,
            r.makespan_sims_per_sec,
            r.speedup()
        );
    }
    // Compile-vs-simulate attribution of one full fig9 MoE oracle evaluation
    // (span-profiled build/lower/plan/graph/simulate phases).
    let profile = fig9_oracle_phases(spec);
    for (label, phases) in [("cold", &profile.cold), ("warm", &profile.warm)] {
        println!(
            "fig9 MoE-1 oracle phases ({label}): build {:.3} ms, lower {:.3} ms, plan {:.3} ms, \
             graph {:.3} ms, simulate {:.3} ms ({:.1}% compile of {:.3} ms wall)",
            phases.build_ms,
            phases.lower_ms,
            phases.plan_ms,
            phases.graph_ms,
            phases.simulate_ms,
            phases.compile_fraction() * 100.0,
            phases.total_ms
        );
    }
    let tune = fig9_tune_throughput(quick, spec);
    println!(
        "fig9 MoE-1 cold tune ({}): {:.2} s wall, {} disposed/s ({} full sims, \
         {} bound-pruned, {} bounded aborts; {:.0}% short-circuited), {} sims ({:.1}/s), \
         {:.0}% patched compiles",
        if quick {
            "compact space"
        } else {
            "standard space"
        },
        tune.wall_s,
        tune.candidates_per_sec as u64,
        tune.full_sims,
        tune.pruned_bound,
        tune.bounded_aborts,
        tune.short_circuit_rate() * 100.0,
        tune.evaluations,
        tune.sims_per_sec,
        tune.patch_rate() * 100.0
    );
    if json {
        let path = "BENCH_sim.json";
        std::fs::write(
            path,
            bench_sim_json(&rows, &profile, &tune, quick, &cost.revision()),
        )
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("(wrote {path})");
    }
}

/// Serving-throughput trajectory: drives the `tilelink-serve` daemon with the
/// three-phase load generator (dedup volley, warm hammer, mixed catalog
/// sweep) over real localhost sockets. With `json` the numbers are also
/// written to `BENCH_serve.json` in the working directory.
fn bench_serve(quick: bool, json: bool, spec: &CostModelSpec) {
    use tilelink_serve::loadgen::{run_loadgen, LoadGenConfig};

    let cfg = if quick {
        LoadGenConfig::quick(spec.clone())
    } else {
        LoadGenConfig::full(spec.clone())
    };
    println!(
        "== Serving throughput ({} dedup waiters, {} clients x {} warm + {} mixed requests) ==",
        cfg.dedup_waiters, cfg.clients, cfg.warm_requests, cfg.mixed_requests
    );
    let report = run_loadgen(&cfg).unwrap_or_else(|e| panic!("load generation failed: {e}"));

    let d = &report.dedup;
    println!(
        "dedup  {:>3} identical cold requests -> {} search, {} deduped, {} warm ({} identical replies)",
        d.waiters, d.searches, d.deduped, d.warm, d.identical
    );
    let w = &report.warm;
    println!(
        "warm   {:>6} requests in {:.3} s   {:>9.0} req/s   mean {:>7.1} us   \
         p50 {:>5} us   p95 {:>5} us   p99 {:>5} us   max {:>6} us   [p99 < 1 ms: {}]",
        w.count,
        w.wall_s,
        w.requests_per_sec,
        w.mean_us,
        w.p50_us,
        w.p95_us,
        w.p99_us,
        w.max_us,
        if w.p99_us < 1000 { "OK" } else { "MISS" }
    );
    let m = &report.mixed;
    println!(
        "mixed  {:>6} requests in {:.3} s   {:>9.0} req/s   mean {:>7.1} us   \
         p50 {:>5} us   p95 {:>5} us   p99 {:>5} us   ({} warm, {} cold, {} deduped)",
        m.stats.count,
        m.stats.wall_s,
        m.stats.requests_per_sec,
        m.stats.mean_us,
        m.stats.p50_us,
        m.stats.p95_us,
        m.stats.p99_us,
        m.warm,
        m.cold,
        m.deduped
    );
    for level in &report.ramp {
        let s = &level.stats;
        println!(
            "ramp   {:>4} conns {:>6} requests   {:>9.0} req/s   mean {:>7.1} us   \
             p50 {:>5} us   p95 {:>5} us   p99 {:>5} us   [p99 < 1 ms: {}]",
            level.connections,
            s.count,
            s.requests_per_sec,
            s.mean_us,
            s.p50_us,
            s.p95_us,
            s.p99_us,
            if s.p99_us < 1000 { "OK" } else { "MISS" }
        );
    }
    let pm = &report.metrics;
    println!(
        "pipeline counters: pool_rejected={} cache_evictions={} cache_expired={} executor_reuses={}",
        pm.pool_rejected, pm.cache_evictions, pm.cache_expired, pm.executor_reuses
    );
    if json {
        let path = "BENCH_serve.json";
        std::fs::write(path, bench_serve_json(&report))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("(wrote {path})");
    }
}

/// `--serve` smoke: boots the daemon on an ephemeral localhost port and
/// exercises every request path through real client connections — PING, a
/// cold quick-space search, a warm hit of the same key, and a concurrent
/// volley of identical requests that must collapse into one search.
fn serve_smoke(spec: &CostModelSpec) {
    use std::sync::{Arc, Barrier};
    use tilelink_serve::protocol::{parse_reply, Reply};
    use tilelink_serve::server::{serve_ephemeral, Client};
    use tilelink_serve::service::{ServeOptions, TuneService};

    let server = serve_ephemeral(TuneService::new(ServeOptions {
        cost: spec.clone(),
        cache_path: None, // smoke stays hermetic: no shared TSV
        ..ServeOptions::quick()
    }))
    .expect("bind ephemeral port");
    println!("\n== Serve smoke (daemon on {}) ==", server.addr());

    let mut client = Client::connect(server.addr()).expect("connect");
    let pong = client.request("PING").expect("ping");
    println!("PING -> {pong}");

    let line = "TUNE workload=MLP-1";
    for pass in ["cold", "warm"] {
        let reply = client.request(line).expect("tune request");
        let Ok(Reply::Ok(fields)) = parse_reply(&reply) else {
            panic!("{pass} request failed: {reply}");
        };
        println!(
            "{line} -> source={} total {:.3} ms ({} sims) best: {}",
            fields.source, fields.total_ms, fields.evals, fields.config
        );
    }

    // Concurrent identical cold requests: the daemon must run one search and
    // broadcast it to everyone else.
    const WAITERS: usize = 4;
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(WAITERS));
    let handles: Vec<_> = (0..WAITERS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                client
                    .request("TUNE workload=MoE-1 routing=zipf:1.2 objective=p95")
                    .expect("dedup request")
            })
        })
        .collect();
    let (mut cold, mut deduped) = (0, 0);
    for handle in handles {
        match parse_reply(&handle.join().expect("waiter thread")) {
            Ok(Reply::Ok(fields)) if fields.source == "cold" => cold += 1,
            Ok(Reply::Ok(fields)) if fields.source == "deduped" => deduped += 1,
            other => panic!("dedup volley reply unexpected: {other:?}"),
        }
    }
    println!("{WAITERS} concurrent identical requests -> {cold} search, {deduped} deduped");

    let stats = client.request("STATS").expect("stats");
    println!("{stats}");
    server.shutdown();
}

/// Ablations over the design choices called out in DESIGN.md: decoupled tile
/// sizes, number of communication SMs and resource mapping.
fn ablations(cost: &tilelink_sim::SharedCost) {
    use tilelink::config::{CommMapping, TileShape};
    use tilelink_workloads::mlp;

    let shape = &shapes::mlp_shapes()[0];
    println!("\n== Ablation: compute tile size (AG+GEMM, MLP-1) ==");
    for tile in [64usize, 128, 256] {
        let cfg = mlp::ag_gemm_config().with_compute_tile(TileShape::new(128, tile));
        let r = mlp::timed_ag_gemm_with(shape, &cfg, cost).expect("ablation");
        println!("compute tile 128x{tile:<4} -> {:>9.3} ms", r.total_ms());
    }

    println!("\n== Ablation: communication SMs (GEMM+RS, MLP-1) ==");
    for sms in [8u64, 20, 40] {
        let cfg = mlp::gemm_rs_config().with_comm_mapping(CommMapping::Hybrid { sms });
        let r = mlp::timed_gemm_rs_with(shape, &cfg, cost).expect("ablation");
        println!("comm SMs {sms:<3} -> {:>9.3} ms", r.total_ms());
    }

    println!("\n== Ablation: resource mapping (AG+GEMM, MLP-1) ==");
    for (name, mapping) in [
        ("copy engine", CommMapping::CopyEngine),
        ("20 SMs", CommMapping::Sm { sms: 20 }),
        ("hybrid", CommMapping::Hybrid { sms: 20 }),
    ] {
        let cfg = mlp::ag_gemm_config().with_comm_mapping(mapping);
        let r = mlp::timed_ag_gemm_with(shape, &cfg, cost).expect("ablation");
        println!("{name:<12} -> {:>9.3} ms", r.total_ms());
    }
}

/// Milliseconds of the default config: served from the search's own ranking
/// (the default is always a beam seed), falling back to one oracle call only
/// if an exotic space excluded it.
fn default_ms(
    tuned: &tilelink_workloads::TunedLayer,
    oracle: &dyn tilelink_tune::CostOracle,
) -> f64 {
    let default = tilelink::OverlapConfig::default();
    tuned
        .search
        .ranked
        .iter()
        .find(|c| c.config == default)
        .map(|c| c.report.total_ms())
        .unwrap_or_else(|| {
            oracle
                .evaluate_bounded(&default, f64::INFINITY)
                .expect("default config evaluates")
                .report()
                .expect("an infinite cutoff is never exceeded")
                .total_ms()
        })
}

/// The search-effort part of an autotune row. A rerun answered entirely from
/// the tune cache prints `0 sims, 0 aborted`: every candidate is a cached
/// report or is disposed of by its bound or cached floor.
fn effort(search: &tilelink_tune::TuneReport) -> String {
    format!(
        "{} sims, {} aborted, {} cached",
        search.evaluations, search.bounded_aborts, search.cache_hits
    )
}
