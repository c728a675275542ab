//! End-to-end model comparison (Figure 11): PyTorch-style execution vs
//! TileLink overlapped kernels for a dense and a mixture-of-experts model.
//!
//! Run with `cargo run --release --example end_to_end`.
//!
//! Pass `--tune` to add a third column with *searched* per-layer
//! configurations (the `tilelink-tune` design space, persistent cache — a
//! rerun answers from disk with zero simulations). `--cost-model
//! {analytic|calibrated[:path]}` selects the pricing provider as in the
//! `reproduce` binary.

use tilelink_sim::CostModelSpec;
use tilelink_workloads::autotune::TuneOptions;
use tilelink_workloads::e2e;
use tilelink_workloads::shapes::model_configs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = CostModelSpec::from_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let tune = args.iter().any(|a| a == "--tune");

    let (cluster, tokens) = e2e::single_node_setup();
    let cost = spec.build(&cluster).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    println!("simulated 8xH800, batch 4 x sequence 8192 (cost model: {spec})\n");
    let opts = TuneOptions::default().with_default_cache();
    for model in model_configs()
        .iter()
        .filter(|m| m.name == "LLaMA2-7B" || m.name == "Mixtral-8x7B")
    {
        let cmp = e2e::compare_model_with(model, tokens, &cost).expect("comparison");
        print!(
            "{:<14} PyTorch {:>8.1} ms | TileLink {:>8.1} ms | speedup {:.2}x (attention {:.0}% of time)",
            model.name,
            cmp.torch.total_s * 1e3,
            cmp.tilelink.total_s * 1e3,
            cmp.speedup(),
            100.0 * cmp.tilelink.attention_s / cmp.tilelink.total_s,
        );
        if tune {
            let tuned = e2e::tuned_model_timing_with(model, tokens, &cost, &opts).expect("tuning");
            print!(
                " | tuned {:>8.1} ms, speedup {:.2}x ({} sims, {} aborted, {} cached)",
                tuned.timing.total_s * 1e3,
                cmp.torch.total_s / tuned.timing.total_s,
                tuned.evaluations,
                tuned.bounded_aborts,
                tuned.cache_hits,
            );
        }
        println!();
    }
}
