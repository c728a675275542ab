//! `figures` workload: one pass computes Table 2, Figure 8 (3 panels),
//! Figure 9 (3 panels), Figure 10 (every shape) and Figure 11 (both
//! clusters) — what a no-flag `reproduce` computes — from a cold compile
//! cache, then repeats the same calls with the compile cache warm.
//!
//! Cold compiles, graph building and the simulator do almost all the work;
//! the bounds, search, tune cache and daemon do none of it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tilelink_bench::{
    cost_for, default_cluster, fig10, fig11, fig8, fig9, table2, AttentionRow, E2eRow, Group,
    MlpPanel, MoePanel,
};
use tilelink_probe::metrics::{
    SIM_MAKESPAN_RUNS, SIM_TRACE_RUNS, TUNE_COMPILE_FULL_REBUILDS, TUNE_COMPILE_PATCHED,
};
use tilelink_sim::{CostModelSpec, SharedCost};
use tilelink_workloads::shapes;

use crate::report::{secs, time_setups, Bench, Counters};
use crate::stats::geomean;

/// Geomeans pinned by `crates/bench/tests/figures_pinned.rs` (analytic cost
/// model). A pass whose figures drift from them fails its check.
pub const PINNED_FIG8_FULL: f64 = 1.309702108081508;
/// Figure 9 full-MoE speedup geomean over cuBLAS+NCCL.
pub const PINNED_FIG9_FULL: f64 = 3.976571952754703;
/// Figure 11 speedup geomean, 8×H800.
pub const PINNED_FIG11_SINGLE: f64 = 1.650689315301968;
/// Figure 11 speedup geomean, 16×H800.
pub const PINNED_FIG11_TWO_NODE: f64 = 2.831073385410031;
/// Relative tolerance of the pinned comparisons (the figures test's own).
pub const PINNED_REL_TOL: f64 = 1e-9;

/// One figure call's rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    Groups(Vec<Group>),
    Attention(Vec<AttentionRow>),
    Models(Vec<E2eRow>),
}

/// One timed operation: a public `tilelink_bench` figure call.
struct Op {
    name: &'static str,
    run: fn(&SharedCost) -> Output,
}

const OPS: [Op; 11] = [
    Op {
        name: "table2",
        run: |c| Output::Groups(table2(c)),
    },
    Op {
        name: "fig8.ag_gemm",
        run: |c| Output::Groups(fig8(MlpPanel::AgGemm, c)),
    },
    Op {
        name: "fig8.gemm_rs",
        run: |c| Output::Groups(fig8(MlpPanel::GemmRs, c)),
    },
    Op {
        name: "fig8.full",
        run: |c| Output::Groups(fig8(MlpPanel::Full, c)),
    },
    Op {
        name: "fig9.first",
        run: |c| Output::Groups(fig9(MoePanel::First, c)),
    },
    Op {
        name: "fig9.second",
        run: |c| Output::Groups(fig9(MoePanel::Second, c)),
    },
    Op {
        name: "fig9.full",
        run: |c| Output::Groups(fig9(MoePanel::Full, c)),
    },
    Op {
        name: "fig10.attn1",
        run: |c| Output::Attention(fig10(0, c)),
    },
    Op {
        name: "fig10.attn2",
        run: |c| Output::Attention(fig10(1, c)),
    },
    Op {
        name: "fig11.single_node",
        run: |_| Output::Models(fig11(false, usize::MAX, &CostModelSpec::Analytic)),
    },
    Op {
        name: "fig11.two_node",
        run: |_| Output::Models(fig11(true, usize::MAX, &CostModelSpec::Analytic)),
    },
];

/// What the workload builds before its first operation: the cost provider
/// every single-cluster figure prices with.
fn setup() -> SharedCost {
    cost_for(&default_cluster(), &CostModelSpec::Analytic)
}

/// Runs every figure call once, timing each; `None` marks a call that
/// panicked.
fn run_ops(cost: &SharedCost) -> Vec<(Option<Output>, f64)> {
    OPS.iter()
        .map(|op| {
            let start = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| (op.run)(cost))).ok();
            (out, secs(start))
        })
        .collect()
}

fn counters_now() -> [u64; 4] {
    [
        SIM_MAKESPAN_RUNS.get(),
        SIM_TRACE_RUNS.get(),
        TUNE_COMPILE_PATCHED.get(),
        TUNE_COMPILE_FULL_REBUILDS.get(),
    ]
}

/// One pass: the figure calls from a cold compile cache, then again warm.
/// Returns the cold outputs.
pub fn pass(bench: &mut Bench, cost: &SharedCost) -> Vec<Option<Output>> {
    let before = counters_now();
    tilelink::reset_compile_cache();
    let cold = run_ops(cost);
    let warm = run_ops(cost);
    for (op, ((_, cold_s), (_, warm_s))) in OPS.iter().zip(cold.iter().zip(&warm)) {
        bench.step(false, op.name, *cold_s);
        bench.step(true, op.name, *warm_s);
    }
    let after = counters_now();
    let delta = |i: usize| (after[i] - before[i]) as f64;
    // The figure calls run on this thread only, so every count repeats.
    bench.pass_counters(
        Counters::from([
            ("sim.makespan_runs", delta(0)),
            ("sim.trace_runs", delta(1)),
            ("tune.compile_patched", delta(2)),
            ("tune.compile_full_rebuilds", delta(3)),
        ]),
        Counters::new(),
    );

    let warm_latencies: Vec<f64> = warm.iter().map(|(_, s)| *s).collect();
    let mut outputs = Vec::with_capacity(OPS.len());
    for ((op, (cold, _)), (warm, _)) in OPS.iter().zip(cold).zip(warm) {
        bench.check(cold.is_some(), || format!("{} panicked (cold)", op.name));
        bench.check(warm.is_some(), || format!("{} panicked (warm)", op.name));
        bench.check(cold == warm, || {
            format!("{}: warm compile cache changed the figure", op.name)
        });
        outputs.push(cold);
    }
    check_pinned(bench, &outputs);
    bench.end_pass(OPS.len(), &warm_latencies);
    outputs
}

fn groups_of<'a>(outputs: &'a [Option<Output>], name: &str) -> Option<&'a [Group]> {
    let i = OPS.iter().position(|op| op.name == name)?;
    match outputs[i].as_ref()? {
        Output::Groups(groups) => Some(groups),
        _ => None,
    }
}

fn models_of<'a>(outputs: &'a [Option<Output>], name: &str) -> Option<&'a [E2eRow]> {
    let i = OPS.iter().position(|op| op.name == name)?;
    match outputs[i].as_ref()? {
        Output::Models(rows) => Some(rows),
        _ => None,
    }
}

/// TileLink's speedups over cuBLAS+NCCL across the full-layer rows of
/// Figures 8 and 9.
fn full_layer_speedups(outputs: &[Option<Output>]) -> Option<(Vec<f64>, Vec<f64>)> {
    let speedups = |groups: &[Group]| {
        groups
            .iter()
            .map(|g| g.speedup("TileLink", "cuBLAS+NCCL"))
            .collect::<Vec<f64>>()
    };
    Some((
        speedups(groups_of(outputs, "fig8.full")?),
        speedups(groups_of(outputs, "fig9.full")?),
    ))
}

fn check_pinned(bench: &mut Bench, outputs: &[Option<Output>]) {
    let mut pinned = |label: &str, actual: Option<f64>, expected: f64| {
        bench.check(
            actual.is_some_and(|a| ((a - expected) / expected).abs() < PINNED_REL_TOL),
            || format!("{label} geomean {actual:?} drifted from pinned {expected}"),
        );
    };
    let full = full_layer_speedups(outputs);
    pinned(
        "fig8 full-MLP",
        full.as_ref().map(|(f8, _)| geomean(f8)),
        PINNED_FIG8_FULL,
    );
    pinned(
        "fig9 full-MoE",
        full.as_ref().map(|(_, f9)| geomean(f9)),
        PINNED_FIG9_FULL,
    );
    let e2e = |name: &str| {
        models_of(outputs, name)
            .map(|rows| geomean(&rows.iter().map(E2eRow::speedup).collect::<Vec<_>>()))
    };
    pinned(
        "fig11 8xH800",
        e2e("fig11.single_node"),
        PINNED_FIG11_SINGLE,
    );
    pinned(
        "fig11 16xH800",
        e2e("fig11.two_node"),
        PINNED_FIG11_TWO_NODE,
    );
}

/// The `figures` workload.
pub fn run(bench: &mut Bench) {
    bench.input("figure_calls_per_pass", OPS.len());
    bench.input("attention_shapes", shapes::attn_shapes().len());
    let cost = setup();
    bench.start_clock();
    let mut first: Option<Vec<Option<Output>>> = None;
    let mut passes = 0;
    while passes == 0 || bench.time_left() {
        bench.samples("setup_s", time_setups(5, 256, |_| setup()));
        let outputs = pass(bench, &cost);
        passes += 1;
        match &first {
            None => {
                if let Some((f8, f9)) = full_layer_speedups(&outputs) {
                    let all: Vec<f64> = f8.into_iter().chain(f9).collect();
                    bench.sample("speedup_geomean", geomean(&all));
                }
                first = Some(outputs);
            }
            Some(first) => {
                bench.check(&outputs == first, || {
                    "figure rows differ between passes".to_string()
                });
            }
        }
    }
    crate::report::sample_peak_rss(bench);
}
