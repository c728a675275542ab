//! The traced run (`--trace 1`): replays a workload's inputs through the
//! public calls of each layer, timing every call inside a span, and reports
//! the per-layer metrics of [`crate::metrics::PER_LAYER`].
//!
//! The inputs are the workload's tuning keys (as `TUNE` request lines) plus,
//! for `figures`, the Figure 10 attention kernels. Spans are kept in memory
//! and written to `out/<workload>-seed<n>-spans.json` when the run ends;
//! the spans of one serve request share its sequence id. The end-to-end
//! metrics are never measured here: the tracing-overhead metric compares one
//! untraced and one span-profiled pass of the workload itself.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

use tilelink::exec::{simulate_report_with, task_graph};
use tilelink::ir::TileProgram;
use tilelink::{detail_hash, CacheSite, CompiledKernel, Compiler, OverlapConfig, TileMapping};
use tilelink_serve::{
    parse_command, serve_ephemeral, Client, Command, TuneRequest, TuneService, WorkloadSpec,
};
use tilelink_sim::{BoundedMakespan, CostModelSpec, Engine, SharedCost, TaskGraph};
use tilelink_tune::{
    cluster_key, CostOracle, SearchExecutor, SearchSpace, Strategy, TuneCache, TuneReport, Tuner,
};
use tilelink_workloads::autotune::{MlpOracle, MoeOracle};
use tilelink_workloads::shapes::{self, MlpShape, MoeShape};
use tilelink_workloads::{attention, mlp, moe, RoutingSample};

use crate::host::json_str;
use crate::report::{secs, Bench};
use crate::{figures, serve, tune_sweep};

/// Timed sweeps over the inputs for each per-call timing.
const REPS: usize = 3;

/// In-memory spans of the bench's own calls into the layers.
struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

struct Span {
    name: &'static str,
    /// Sequence id of the serve request the span belongs to.
    request: Option<u64>,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl SpanLog {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::close`].
    fn open(&mut self, name: &'static str, request: Option<u64>, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, returning its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name`, returning its result and
    /// duration in seconds.
    fn time<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, request, parent);
        let out = std::hint::black_box(f());
        (out, self.close(id))
    }

    fn json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\": {id}, \"name\": {}, \"request\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    json_str(s.name),
                    s.request.map_or("null".to_string(), |r| r.to_string()),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

/// A tile mapping of any builder, so every kernel can go through one
/// generic `Compiler::compile_cached` call.
struct AnyMapping(Box<dyn TileMapping>);

impl TileMapping for AnyMapping {
    fn num_tiles(&self) -> usize {
        self.0.num_tiles()
    }
    fn num_channels(&self) -> usize {
        self.0.num_channels()
    }
    fn rows_of(&self, tile: usize) -> tilelink::Result<Range<usize>> {
        self.0.rows_of(tile)
    }
    fn rank_of(&self, tile: usize) -> tilelink::Result<usize> {
        self.0.rank_of(tile)
    }
    fn channel_of(&self, tile: usize) -> tilelink::Result<usize> {
        self.0.channel_of(tile)
    }
    fn channel_threshold(&self, channel: usize) -> u64 {
        self.0.channel_threshold(channel)
    }
    fn channels_for_rows(&self, rows: Range<usize>) -> Vec<usize> {
        self.0.channels_for_rows(rows)
    }
}

fn any<M: TileMapping + 'static>(
    (program, mapping): (TileProgram, M),
) -> (TileProgram, AnyMapping) {
    (program, AnyMapping(Box::new(mapping)))
}

/// One kernel a workload's inputs compile: a program builder and its input.
enum Builder {
    MlpAg(MlpShape),
    MlpRs(MlpShape),
    MoeAg(MoeShape),
    MoeRs(MoeShape),
    RoutedAg(MoeShape, RoutingSample),
    RoutedRs(MoeShape, RoutingSample),
    Attention {
        heads: usize,
        head_dim: usize,
        seq: usize,
    },
}

struct Kernel {
    builder: Builder,
    cost: SharedCost,
    /// The tuning key it belongs to (none for attention kernels).
    key: Option<usize>,
}

impl Kernel {
    fn world(&self) -> usize {
        self.cost.cluster().world_size()
    }

    /// The configuration the kernel is built with when no winner is given.
    fn default_config(&self) -> OverlapConfig {
        match self.builder {
            Builder::Attention { .. } => attention::attention_config(),
            _ => OverlapConfig::default(),
        }
    }

    fn build(&self, cfg: &OverlapConfig) -> tilelink::Result<(TileProgram, AnyMapping)> {
        let world = self.world();
        Ok(match &self.builder {
            Builder::MlpAg(s) => any(mlp::ag_gemm_program(
                s.tokens,
                s.hidden,
                s.intermediate,
                world,
                cfg,
            )),
            Builder::MlpRs(s) => any(mlp::gemm_rs_program(
                s.tokens,
                s.hidden,
                s.intermediate,
                world,
                cfg,
            )),
            Builder::MoeAg(s) => any(moe::ag_group_gemm_program(s, world, cfg)),
            Builder::MoeRs(s) => any(moe::group_gemm_rs_program(s, world, cfg)),
            Builder::RoutedAg(s, sample) => {
                any(moe::routed_ag_group_gemm_program(s, world, cfg, sample)?)
            }
            Builder::RoutedRs(s, sample) => {
                any(moe::routed_group_gemm_rs_program(s, world, cfg, sample))
            }
            Builder::Attention {
                heads,
                head_dim,
                seq,
            } => any(attention::sp_attention_program(
                *heads, *head_dim, *seq, world, cfg,
            )),
        })
    }

    fn compile(
        &self,
        cfg: &OverlapConfig,
        built: &(TileProgram, AnyMapping),
    ) -> tilelink::Result<CompiledKernel> {
        Compiler::new(*cfg, self.cost.cluster().gpu.clone())
            .with_cost(self.cost.clone())
            .compile(&built.0, &built.1)
    }
}

/// One tuning key of the replay.
struct Key {
    line: String,
    req: TuneRequest,
    cost: SharedCost,
}

impl Key {
    fn parse(line: &str) -> Self {
        let Ok(Command::Tune(req)) = parse_command(line) else {
            panic!("catalog line {line:?} is not a TUNE request");
        };
        let cost = CostModelSpec::Analytic
            .build(&req.cluster)
            .expect("analytic cost model builds");
        Self {
            line: line.to_string(),
            req: *req,
            cost,
        }
    }

    fn routed(&self) -> bool {
        matches!(
            &self.req.workload,
            WorkloadSpec::Moe {
                routing: Some(_),
                ..
            }
        )
    }

    fn oracle(&self) -> Box<dyn CostOracle> {
        match &self.req.workload {
            WorkloadSpec::Mlp(shape) => Box::new(
                MlpOracle::new(shape.clone(), self.req.cluster.clone())
                    .with_cost(self.cost.clone()),
            ),
            WorkloadSpec::Moe { shape, routing } => {
                let mut oracle = MoeOracle::new(shape.clone(), self.req.cluster.clone())
                    .with_cost(self.cost.clone())
                    .with_objective(self.req.objective);
                if let Some(spec) = routing {
                    oracle = oracle.with_routing(*spec);
                }
                Box::new(oracle)
            }
        }
    }

    /// The two layer halves this key compiles (routed keys: for the first
    /// sampled routing).
    fn kernels(&self, index: usize) -> Vec<Kernel> {
        let builders = match &self.req.workload {
            WorkloadSpec::Mlp(s) => vec![Builder::MlpAg(s.clone()), Builder::MlpRs(s.clone())],
            WorkloadSpec::Moe {
                shape,
                routing: None,
            } => {
                vec![Builder::MoeAg(shape.clone()), Builder::MoeRs(shape.clone())]
            }
            WorkloadSpec::Moe {
                shape,
                routing: Some(spec),
            } => {
                let sample = spec.sampler().samples_for(shape, 1).remove(0);
                vec![
                    Builder::RoutedAg(shape.clone(), sample.clone()),
                    Builder::RoutedRs(shape.clone(), sample),
                ]
            }
        };
        builders
            .into_iter()
            .map(|builder| Kernel {
                builder,
                cost: self.cost.clone(),
                key: Some(index),
            })
            .collect()
    }
}

/// The `TUNE` lines whose keys a workload's replay uses: the serve catalog
/// for `serve`; its single-node and routed keys (the `tune_sweep` keys, which
/// are also the Figure 8/9 shapes) otherwise.
fn key_lines(workload: &str) -> Vec<String> {
    let catalog = serve::catalog();
    if workload == "serve" {
        return catalog;
    }
    catalog
        .into_iter()
        .filter(|l| !l.contains("cluster=h800x8x2"))
        .collect()
}

/// Figure 10's attention kernels (the `figures` replay only).
fn attention_kernels() -> Vec<Kernel> {
    let cost =
        tilelink_bench::cost_for(&tilelink_bench::default_cluster(), &CostModelSpec::Analytic);
    shapes::attn_shapes()
        .into_iter()
        .flat_map(|shape| {
            let cost = cost.clone();
            shape.seq_lens.clone().into_iter().map(move |seq| Kernel {
                builder: Builder::Attention {
                    heads: shape.heads,
                    head_dim: shape.head_dim,
                    seq,
                },
                cost: cost.clone(),
                key: None,
            })
        })
        .collect()
}

/// Times `call` over every item, `REPS` times, inside spans named `metric`,
/// and samples `metric` with each sweep's mean per call, scaled by `scale`.
fn sweep<T>(
    bench: &mut Bench,
    log: &mut SpanLog,
    metric: &'static str,
    scale: f64,
    items: &[T],
    mut call: impl FnMut(&T),
) {
    if items.is_empty() {
        return;
    }
    for _ in 0..REPS {
        let mut total = 0.0;
        for item in items {
            total += log.time(metric, None, None, || call(item)).1;
        }
        bench.sample(metric, total / items.len() as f64 * scale);
    }
}

/// Cold searches of every key (file-backed cache), with the search counters.
fn tune_step(
    bench: &mut Bench,
    log: &mut SpanLog,
    keys: &[Key],
) -> (Vec<Option<TuneReport>>, std::path::PathBuf) {
    let cache = bench.out_dir.join(format!(
        "layers-{}-{}.tsv",
        bench.workload,
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache);
    tilelink::reset_compile_cache();
    let mut reports = Vec::new();
    let mut total = 0.0;
    let mut sums = [0usize; 4];
    let (mut patched, mut rebuilt) = (0u64, 0u64);
    for key in keys {
        let oracle = key.oracle();
        let tuner = TuneCache::open(&cache).map(|c| {
            Tuner::new(Strategy::default())
                .with_executor(SearchExecutor::global())
                .with_cache(c)
        });
        let (report, s) = log.time("tune.search_ms", None, None, || {
            tuner
                .ok()
                .and_then(|t| t.tune(&*oracle, &SearchSpace::standard()).ok())
        });
        total += s;
        bench.check(report.is_some(), || format!("{}: search failed", key.line));
        if let Some(r) = &report {
            let disposed = r.ranked.len() + r.failed.bound_pruned;
            for (sum, n) in
                sums.iter_mut()
                    .zip([r.evaluations, r.pruned_bound(), r.bounded_aborts, disposed])
            {
                *sum += n;
            }
            patched += r.compile_patched;
            rebuilt += r.compile_full_rebuilds;
        }
        reports.push(report);
    }
    bench.sample("tune.search_ms", total / keys.len() as f64 * 1e3);
    let [evaluations, lb_pruned, aborts, disposed] = sums;
    bench.sample("tune.evaluations", evaluations as f64);
    bench.sample("tune.bound_pruned", lb_pruned as f64);
    bench.sample("tune.bounded_aborts", aborts as f64);
    bench.sample(
        "tune.short_circuit_frac",
        (lb_pruned + aborts) as f64 / disposed as f64,
    );
    bench.sample("tune.compile_patched", patched as f64);
    bench.sample("tune.compile_full_rebuilds", rebuilt as f64);
    bench.sample(
        "tune.patch_frac",
        patched as f64 / (patched + rebuilt) as f64,
    );
    (reports, cache)
}

/// `TuneCache::open` / `get` / `flush` on the file the searches filled.
fn cache_step(
    bench: &mut Bench,
    log: &mut SpanLog,
    keys: &[Key],
    reports: &[Option<TuneReport>],
    path: &std::path::Path,
) {
    let entry_keys: Vec<String> = keys
        .iter()
        .zip(reports)
        .flat_map(|(key, report)| {
            let oracle = key.oracle();
            let prefix = TuneCache::key_prefix(
                &oracle.workload_key(),
                &cluster_key(oracle.cluster()),
                &oracle.cost_revision(),
                &oracle.objective().key(),
            );
            report
                .iter()
                .flat_map(|r| &r.ranked)
                .map(move |c| TuneCache::key_in(&prefix, &c.config))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut cache = None;
    for _ in 0..REPS {
        let (opened, s) = log.time("tune.cache_open_ms", None, None, || TuneCache::open(path));
        bench.sample("tune.cache_open_ms", s * 1e3);
        cache = opened.ok();
    }
    let Some(cache) = cache else {
        bench.check(false, || {
            format!("cannot reopen tune cache {}", path.display())
        });
        return;
    };
    let mut hits = 0usize;
    sweep(bench, log, "tune.cache_get_us", 1e6, &entry_keys, |k| {
        hits += usize::from(cache.get(k).is_some());
    });
    bench.check(hits == REPS * entry_keys.len(), || {
        format!(
            "tune cache answered {hits} of {} lookups",
            REPS * entry_keys.len()
        )
    });
    for _ in 0..REPS {
        let (flushed, s) = log.time("tune.cache_flush_ms", None, None, || cache.flush());
        bench.sample("tune.cache_flush_ms", s * 1e3);
        bench.check(flushed.is_ok(), || {
            format!("tune cache flush failed: {flushed:?}")
        });
    }
    let _ = std::fs::remove_file(path);
}

/// Builder, compiler, graph and simulator calls on every kernel.
fn kernel_steps(
    bench: &mut Bench,
    log: &mut SpanLog,
    kernels: &[Kernel],
    winners: &[Option<OverlapConfig>],
) {
    let built: Vec<_> = kernels
        .iter()
        .filter_map(|k| k.build(&k.default_config()).ok())
        .collect();
    bench.check(built.len() == kernels.len(), || {
        "a kernel failed to build".to_string()
    });
    if built.len() != kernels.len() {
        return;
    }
    sweep(bench, log, "workloads.build_us", 1e6, kernels, |k| {
        let _ = k.build(&k.default_config());
    });
    let pairs: Vec<(&Kernel, &(TileProgram, AnyMapping))> = kernels.iter().zip(&built).collect();
    sweep(bench, log, "tilelink.compile_us", 1e6, &pairs, |(k, b)| {
        let _ = k.compile(&k.default_config(), b);
    });
    let compiled: Vec<CompiledKernel> = pairs
        .iter()
        .filter_map(|(k, b)| k.compile(&k.default_config(), b).ok())
        .collect();
    bench.check(compiled.len() == kernels.len(), || {
        "a kernel failed to compile".to_string()
    });
    if compiled.len() != kernels.len() {
        return;
    }

    // Patched compiles: fill the compile cache once per kernel, then time
    // cache hits for a config that differs only in its pipeline depth.
    tilelink::reset_compile_cache();
    let site = |i: usize| CacheSite::new("perfbench.layers", detail_hash([i as u64]));
    let patched_config = |k: &Kernel| {
        let mut cfg = k.default_config();
        cfg.num_stages = if cfg.num_stages == 2 { 3 } else { 2 };
        cfg
    };
    let indexed: Vec<(usize, &Kernel)> = kernels.iter().enumerate().collect();
    for (i, k) in &indexed {
        let cfg = k.default_config();
        let filled = Compiler::new(cfg, k.cost.cluster().gpu.clone())
            .with_cost(k.cost.clone())
            .compile_cached(site(*i), || k.build(&cfg));
        bench.check(filled.is_ok(), || {
            format!("cached compile failed: {filled:?}")
        });
    }
    let mut rebuilt = 0usize;
    sweep(
        bench,
        log,
        "tilelink.compile_patch_us",
        1e6,
        &indexed,
        |(i, k)| {
            let cfg = patched_config(k);
            let _ = Compiler::new(cfg, k.cost.cluster().gpu.clone())
                .with_cost(k.cost.clone())
                .compile_cached(site(*i), || {
                    rebuilt += 1;
                    k.build(&cfg)
                });
        },
    );
    bench.check(rebuilt == 0, || {
        format!("{rebuilt} cached compiles rebuilt instead of patching")
    });

    let with_kernel: Vec<(&Kernel, &CompiledKernel)> = kernels.iter().zip(&compiled).collect();
    sweep(
        bench,
        log,
        "tilelink.graph_us",
        1e6,
        &with_kernel,
        |(k, c)| {
            let _ = task_graph(c, k.cost.cluster());
        },
    );
    sweep(
        bench,
        log,
        "tilelink.simulate_report_us",
        1e6,
        &with_kernel,
        |(k, c)| {
            let _ = simulate_report_with(c, &k.cost);
        },
    );
    let graphs: Vec<(&Kernel, TaskGraph)> = with_kernel
        .iter()
        .map(|(k, c)| (*k, task_graph(c, k.cost.cluster())))
        .collect();
    let tasks: usize = graphs.iter().map(|(_, g)| g.len()).sum();
    bench.sample("sim.tasks", tasks as f64);
    let ns_per_task = 1e9 * graphs.len() as f64 / tasks as f64;
    sweep(
        bench,
        log,
        "sim.makespan_ns_per_task",
        ns_per_task,
        &graphs,
        |(k, g)| {
            let _ = Engine::with_cost(k.cost.clone()).makespan(g);
        },
    );
    sweep(
        bench,
        log,
        "sim.trace_ns_per_task",
        ns_per_task,
        &graphs,
        |(k, g)| {
            let _ = Engine::with_cost(k.cost.clone()).run(g);
        },
    );

    // Incumbent-bounded simulation: each key's kernels under the default
    // config, cut off at the makespan the same kernel has under the key's
    // tuned winner (attention kernels, which have no search, are skipped).
    let bounded: Vec<(&Kernel, &TaskGraph, f64)> = graphs
        .iter()
        .filter_map(|(k, g)| {
            let winner = winners.get(k.key?)?.as_ref()?;
            let built = k.build(winner).ok()?;
            let graph = task_graph(&k.compile(winner, &built).ok()?, k.cost.cluster());
            let cutoff = Engine::with_cost(k.cost.clone()).makespan(&graph).ok()?;
            Some((*k, g, cutoff))
        })
        .collect();
    let mut aborted = 0usize;
    sweep(
        bench,
        log,
        "sim.bounded_us",
        1e6,
        &bounded,
        |(k, g, cutoff)| {
            if let Ok(BoundedMakespan::Exceeded(_)) =
                Engine::with_cost(k.cost.clone()).makespan_bounded(g, *cutoff)
            {
                aborted += 1;
            }
        },
    );
    bench.input("sim_bounded_kernels", bounded.len());
    bench.input("sim_bounded_aborted_per_sweep", aborted / REPS);
}

/// Lower bounds and warm bounded evaluations through each key's oracle.
fn oracle_steps(bench: &mut Bench, log: &mut SpanLog, keys: &[Key]) {
    let oracles: Vec<(bool, Box<dyn CostOracle>)> =
        keys.iter().map(|k| (k.routed(), k.oracle())).collect();
    let space = SearchSpace::standard();
    let candidates: Vec<(&dyn CostOracle, OverlapConfig)> = oracles
        .iter()
        .flat_map(|(_, o)| space.candidates(&**o).into_iter().map(move |c| (&**o, c)))
        .collect();
    bench.input("lower_bound_candidates", candidates.len());
    sweep(
        bench,
        log,
        "workloads.lower_bound_us",
        1e6,
        &candidates,
        |(o, c)| {
            let _ = o.lower_bound(c);
        },
    );
    for (routed, metric) in [
        (false, "workloads.eval_us"),
        (true, "workloads.eval_routed_us"),
    ] {
        let selected: Vec<&dyn CostOracle> = oracles
            .iter()
            .filter(|(r, _)| *r == routed)
            .map(|(_, o)| &**o)
            .collect();
        let default = OverlapConfig::default();
        for o in &selected {
            // Warm the compile cache: the tuner evaluates in this state.
            let warm = o.evaluate_bounded(&default, f64::INFINITY);
            bench.check(warm.is_ok(), || {
                format!("{}: evaluation failed", o.workload_key())
            });
        }
        sweep(bench, log, metric, 1e6, &selected, |o| {
            let _ = o.evaluate_bounded(&default, f64::INFINITY);
        });
    }
}

/// Parse, cold tune, warm probe and wire round trip of every key through
/// one daemon; each request's spans share its sequence id.
fn serve_step(bench: &mut Bench, log: &mut SpanLog, keys: &[Key]) {
    let lines: Vec<&str> = keys.iter().map(|k| k.line.as_str()).collect();
    sweep(bench, log, "serve.parse_us", 1e6, &lines, |l| {
        let _ = parse_command(l);
    });
    let handle = match serve_ephemeral(TuneService::new(serve::options())) {
        Ok(handle) => handle,
        Err(e) => {
            bench.check(false, || format!("daemon boot failed: {e}"));
            return;
        }
    };
    let mut client = match Client::connect(handle.addr()) {
        Ok(client) => client,
        Err(e) => {
            bench.check(false, || format!("connect failed: {e}"));
            return;
        }
    };
    let service = handle.service().clone();
    let stats = |client: &mut Client| {
        client
            .request("STATS")
            .ok()
            .and_then(|l| tilelink_serve::parse_reply(&l).ok()?.stats().ok())
    };
    let before = stats(&mut client);
    tilelink::reset_compile_cache();
    let mut cold_total = 0.0;
    for (seq, key) in keys.iter().enumerate() {
        let (done, s) = log.time("serve.cold_tune_ms", Some(seq as u64), None, || {
            service.tune(&key.req)
        });
        cold_total += s;
        bench.check(done.is_ok(), || format!("{}: cold tune failed", key.line));
    }
    bench.sample("serve.cold_tune_ms", cold_total / keys.len() as f64 * 1e3);
    let mut seq = keys.len() as u64;
    for _ in 0..REPS {
        let (mut warm_total, mut overhead_total) = (0.0, 0.0);
        for key in keys {
            seq += 1;
            let request = log.open("serve.request", Some(seq), None);
            let (parsed, _) = log.time("serve.parse_us", Some(seq), Some(request), || {
                parse_command(&key.line)
            });
            let (warm, warm_s) = log.time("serve.try_warm_us", Some(seq), Some(request), || {
                service.try_warm(&key.req)
            });
            let (reply, wire_s) = log.time("serve.wire_us", Some(seq), Some(request), || {
                client.request(&key.line)
            });
            log.close(request);
            bench.check(parsed.is_ok() && warm.is_some(), || {
                format!("{}: not warm", key.line)
            });
            bench.check(
                reply.as_ref().is_ok_and(|r| r.contains(" source=warm ")),
                || format!("{}: wire reply {reply:?}", key.line),
            );
            warm_total += warm_s;
            overhead_total += wire_s - warm_s;
        }
        bench.sample("serve.try_warm_us", warm_total / keys.len() as f64 * 1e6);
        bench.sample(
            "serve.wire_overhead_us",
            overhead_total / keys.len() as f64 * 1e6,
        );
    }
    let after = stats(&mut client);
    drop(client);
    handle.shutdown();
    match (before, after) {
        (Some(b), Some(a)) => {
            bench.sample("serve.warm", (a.warm - b.warm) as f64);
            bench.sample("serve.cold", (a.cold - b.cold) as f64);
        }
        _ => {
            bench.check(false, || "STATS failed".to_string());
        }
    }
}

/// One pass of the workload itself, returning its wall time.
fn workload_pass(bench: &mut Bench, index: usize) -> f64 {
    let start = Instant::now();
    match bench.workload {
        "figures" => {
            let cost = tilelink_bench::cost_for(
                &tilelink_bench::default_cluster(),
                &CostModelSpec::Analytic,
            );
            figures::pass(bench, &cost);
        }
        "tune_sweep" => {
            let keys = tune_sweep::keys();
            tune_sweep::pass(bench, &keys, index);
        }
        _ => {
            serve::pass(bench, &serve::catalog());
        }
    }
    secs(start)
}

/// The traced run of the bench's workload.
pub fn run(bench: &mut Bench) {
    let keys: Vec<Key> = key_lines(bench.workload)
        .iter()
        .map(|l| Key::parse(l))
        .collect();
    let mut kernels: Vec<Kernel> = keys
        .iter()
        .enumerate()
        .flat_map(|(i, k)| k.kernels(i))
        .collect();
    if bench.workload == "figures" {
        kernels.extend(attention_kernels());
    }
    bench.input("keys", keys.len());
    bench.input("kernels", kernels.len());
    bench.input("reps", REPS);
    bench.input("executor_threads", SearchExecutor::global().threads());
    let mut log = SpanLog::new();
    bench.start_clock();

    let (reports, cache) = tune_step(bench, &mut log, &keys);
    let winners: Vec<Option<OverlapConfig>> = reports
        .iter()
        .map(|r| r.as_ref().map(|r| r.best.config))
        .collect();
    cache_step(bench, &mut log, &keys, &reports, &cache);
    kernel_steps(bench, &mut log, &kernels, &winners);
    oracle_steps(bench, &mut log, &keys);
    serve_step(bench, &mut log, &keys);

    // Tracing overhead: the same workload pass without and with the span
    // profiler collecting the program's own spans.
    let untraced = workload_pass(bench, 0);
    tilelink_probe::set_enabled(true);
    let traced = workload_pass(bench, 1);
    tilelink_probe::set_enabled(false);
    let probe_spans = tilelink_probe::take_spans();
    bench.sample("probe.trace_overhead_frac", traced / untraced - 1.0);
    bench.input("probe_spans", probe_spans.len());

    let mut phases = BTreeMap::new();
    for span in &probe_spans {
        *phases.entry(span.name).or_insert(0u64) += span.dur_ns;
    }
    let path = bench
        .out_dir
        .join(format!("{}-seed{}-spans.json", bench.workload, bench.seed));
    let body = format!(
        "{{\"bench_spans\": {}, \"probe_phase_ns\": {{{}}}}}\n",
        log.json(),
        phases
            .iter()
            .map(|(name, ns)| format!("{}: {ns}", json_str(name)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
