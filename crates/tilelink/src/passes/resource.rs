//! Resource mapping: who gets the SMs, the copy engines and the link.

use crate::config::{CommMapping, OverlapConfig};
use crate::ir::{BlockRole, TileProgram};
use crate::{Result, TileLinkError};
use tilelink_sim::{CostProvider, GpuSpec};

/// Which lane a communication block's transfers travel on in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferLane {
    /// SM-driven copies: the transfer saturates a share of the NVLink port and
    /// the block occupies one of the reserved communication SMs.
    SmPort {
        /// Percentage of the port granted to each communication block.
        port_share: u64,
    },
    /// Copy-engine (DMA) transfers triggered from the host.
    CopyEngine,
}

/// The outcome of the resource-mapping pass for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourcePlan {
    /// SMs reserved for communication blocks on every rank.
    pub comm_sms: u64,
    /// SMs left for computation blocks on every rank.
    pub compute_sms: u64,
    /// SMs each computation block occupies (1, as on real hardware where one
    /// thread block resides on one SM).
    pub sms_per_compute_block: u64,
    /// Transfer lane of the communication blocks.
    pub lane: TransferLane,
    /// Whether host-driven copies add a kernel-launch latency per transfer.
    pub host_launch_per_copy: bool,
    /// Achieved GEMM efficiency of the computation tiles (fed to the cost model).
    pub compute_efficiency: f64,
}

/// The facts the resource-mapping pass needs from a program: everything else
/// in [`ResourcePlan::derive_with`] depends only on the config and the device.
///
/// Extracting this tiny summary is what lets the incremental recompilation
/// path re-derive a plan for a patched candidate without walking (or even
/// keeping) the `TileProgram` it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanInputs {
    /// Number of ranks the program runs on.
    pub world_size: usize,
    /// Maximum number of communication (producer) blocks on any rank (≥ 1).
    pub comm_blocks_per_rank: usize,
    /// Maximum number of computation (consumer) blocks on any rank (≥ 1).
    pub consumer_blocks_per_rank: usize,
}

impl PlanInputs {
    /// Summarises a program in one pass over its blocks.
    pub fn of_program(program: &TileProgram) -> Self {
        let mut comm = vec![0usize; program.world_size];
        let mut cons = vec![0usize; program.world_size];
        for b in &program.blocks {
            match b.role {
                BlockRole::Producer => comm[b.rank] += 1,
                BlockRole::Consumer => cons[b.rank] += 1,
                BlockRole::Host => {}
            }
        }
        Self {
            world_size: program.world_size,
            comm_blocks_per_rank: comm.into_iter().max().unwrap_or(0).max(1),
            consumer_blocks_per_rank: cons.into_iter().max().unwrap_or(0).max(1),
        }
    }
}

impl ResourcePlan {
    /// Derives the plan with the GEMM-efficiency heuristic of an explicit cost
    /// provider (`None` falls back to the analytic model).
    ///
    /// # Errors
    ///
    /// Returns [`TileLinkError::InvalidConfig`] if the configuration is invalid
    /// for the device (for example reserving every SM for communication).
    pub fn derive_with(
        config: &OverlapConfig,
        gpu: &GpuSpec,
        program: &TileProgram,
        cost: Option<&dyn CostProvider>,
    ) -> Result<Self> {
        Self::derive_from_inputs(config, gpu, PlanInputs::of_program(program), cost)
    }

    /// Derives the plan from a pre-computed program summary.
    ///
    /// # Errors
    ///
    /// Returns [`TileLinkError::InvalidConfig`] if the configuration is invalid
    /// for the device (for example reserving every SM for communication).
    pub fn derive_from_inputs(
        config: &OverlapConfig,
        gpu: &GpuSpec,
        inputs: PlanInputs,
        cost: Option<&dyn CostProvider>,
    ) -> Result<Self> {
        config.validate(gpu.sm_count)?;
        let comm_sms = config.comm_mapping.comm_sms();
        let compute_sms = gpu.sm_count - comm_sms;
        let comm_blocks_per_rank = inputs.comm_blocks_per_rank;
        let consumer_blocks_per_rank = inputs.consumer_blocks_per_rank;
        let lane = match config.comm_mapping {
            CommMapping::CopyEngine => TransferLane::CopyEngine,
            CommMapping::Sm { .. } => TransferLane::SmPort {
                port_share: (GpuSpec::LINK_PORT_SHARES / comm_blocks_per_rank as u64).max(1),
            },
            CommMapping::Hybrid { .. } => TransferLane::CopyEngine,
        };
        if compute_sms == 0 {
            return Err(TileLinkError::InvalidConfig {
                reason: "no SMs left for computation".to_string(),
            });
        }
        // Tile efficiency of the computation side: decoupling lets the compute
        // tile stay large even when the communication tile is small.
        // The K extent is unknown at this level; use a deep-reduction proxy.
        let compute_efficiency = match cost {
            Some(cost) => {
                cost.gemm_tile_efficiency(config.compute_tile.m, config.compute_tile.n, 4096)
            }
            None => tilelink_sim::CostModel::gemm_tile_efficiency(
                config.compute_tile.m,
                config.compute_tile.n,
                4096,
            ),
        };
        // Each coarse consumer block of the tile program stands for a row of
        // real thread blocks. Spread them so the grid drains in a handful of
        // waves: early tiles finish first and release their consumers, which is
        // what makes fused overlap effective on real hardware.
        let target_waves = 4;
        let sms_per_compute_block =
            (compute_sms * target_waves / consumer_blocks_per_rank as u64).clamp(1, compute_sms);
        Ok(Self {
            comm_sms,
            compute_sms,
            sms_per_compute_block,
            lane,
            host_launch_per_copy: matches!(
                config.comm_mapping,
                CommMapping::CopyEngine | CommMapping::Hybrid { .. }
            ),
            compute_efficiency,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TileShape;
    use crate::ir::{BlockDesc, TileProgram};

    fn program_with_blocks(producers: usize, consumers: usize) -> TileProgram {
        let mut p = TileProgram::new("p", 1);
        for i in 0..producers {
            p.add_block(BlockDesc::new(format!("comm{i}"), 0, BlockRole::Producer));
        }
        for i in 0..consumers {
            p.add_block(BlockDesc::new(format!("gemm{i}"), 0, BlockRole::Consumer));
        }
        p
    }

    #[test]
    fn sm_mapping_reserves_comm_sms() {
        let cfg = OverlapConfig::default().with_comm_mapping(CommMapping::Sm { sms: 20 });
        let plan =
            ResourcePlan::derive_with(&cfg, &GpuSpec::h800(), &program_with_blocks(20, 112), None)
                .unwrap();
        assert_eq!(plan.comm_sms, 20);
        assert_eq!(plan.compute_sms, 112);
        assert!(matches!(plan.lane, TransferLane::SmPort { port_share } if port_share == 5));
        assert!(!plan.host_launch_per_copy);
    }

    #[test]
    fn copy_engine_mapping_keeps_all_sms_for_compute() {
        let cfg = OverlapConfig::default().with_comm_mapping(CommMapping::CopyEngine);
        let plan =
            ResourcePlan::derive_with(&cfg, &GpuSpec::h800(), &program_with_blocks(1, 100), None)
                .unwrap();
        assert_eq!(plan.comm_sms, 0);
        assert_eq!(plan.compute_sms, 132);
        assert_eq!(plan.lane, TransferLane::CopyEngine);
        assert!(plan.host_launch_per_copy);
    }

    #[test]
    fn hybrid_mapping_reserves_sms_and_uses_copy_engine() {
        let cfg = OverlapConfig::default().with_comm_mapping(CommMapping::Hybrid { sms: 16 });
        let plan =
            ResourcePlan::derive_with(&cfg, &GpuSpec::h800(), &program_with_blocks(16, 100), None)
                .unwrap();
        assert_eq!(plan.comm_sms, 16);
        assert_eq!(plan.lane, TransferLane::CopyEngine);
        assert!(plan.host_launch_per_copy);
    }

    #[test]
    fn larger_compute_tiles_give_better_efficiency() {
        let small = OverlapConfig::default().with_compute_tile(TileShape::new(32, 32));
        let large = OverlapConfig::default().with_compute_tile(TileShape::new(128, 256));
        let p = program_with_blocks(1, 1);
        let e_small = ResourcePlan::derive_with(&small, &GpuSpec::h800(), &p, None)
            .unwrap()
            .compute_efficiency;
        let e_large = ResourcePlan::derive_with(&large, &GpuSpec::h800(), &p, None)
            .unwrap()
            .compute_efficiency;
        assert!(e_large > e_small);
    }

    #[test]
    fn derive_with_provider_matches_analytic_default() {
        let cluster = tilelink_sim::ClusterSpec::h800_node(8);
        let cost = tilelink_sim::analytic_cost(&cluster);
        let cfg = OverlapConfig::default();
        let p = program_with_blocks(2, 4);
        let a = ResourcePlan::derive_with(&cfg, &GpuSpec::h800(), &p, None).unwrap();
        let b = ResourcePlan::derive_with(&cfg, &GpuSpec::h800(), &p, Some(&*cost)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = OverlapConfig::default().with_comm_mapping(CommMapping::Sm { sms: 200 });
        assert!(ResourcePlan::derive_with(
            &cfg,
            &GpuSpec::h800(),
            &program_with_blocks(1, 1),
            None
        )
        .is_err());
    }
}
