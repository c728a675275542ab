//! Configuration of one overlapped kernel: the decoupled design space.
//!
//! Section 3.1 of the paper decouples the communication and computation parts
//! of a fused kernel along three axes — tile size, tile order and resource
//! mapping — and lets each side choose independently. [`OverlapConfig`]
//! captures exactly those choices.
//!
//! Not every axis reaches a compiled kernel. This module is the one place
//! that says which ones do:
//!
//! | axis | read by |
//! | --- | --- |
//! | `comm_tile.m`, `compute_tile.m`, `channels_per_rank` | the tile-program builders (`ProgramAxes`) |
//! | `compute_tile.n`, `comm_mapping` | resource planning |
//! | `num_stages` | software pipelining |
//! | `comm_tile.n` | nothing yet (no builder tiles the comm side along N) |
//! | `order`, `mode` | nothing: no builder models them, so they only reach the kernel's `config` field |
//!
//! Two consequences are encoded here and used elsewhere. The compiler's
//! program cache keys on `ProgramAxes`: a candidate that differs from a
//! cached one only outside them re-runs planning and pipelining on the cached
//! lowered program. And configs with equal [`OverlapConfig::priced_projection`]s
//! (`order`/`mode` twins) compile to kernels with identical task graphs, so
//! a tuner may price such a twin once.

use crate::{Result, TileLinkError};

/// A 2-D tile shape (rows × columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileShape {
    /// Tile extent along the row (M) dimension.
    pub m: usize,
    /// Tile extent along the column (N) dimension.
    pub n: usize,
}

impl TileShape {
    /// Creates a tile shape.
    pub const fn new(m: usize, n: usize) -> Self {
        Self { m, n }
    }

    /// Number of elements in the tile.
    pub fn numel(&self) -> usize {
        self.m * self.n
    }
}

impl std::fmt::Display for TileShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.m, self.n)
    }
}

/// The order in which remote tiles are produced/consumed (Figure 2b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TileOrder {
    /// Ring order: rank `r` handles segments `r+1, r+2, ...` in turn, passing
    /// partial results to its neighbour (used by GEMM + ReduceScatter).
    Ring,
    /// Full-mesh order: every rank exchanges tiles with every other rank
    /// directly (used by AllGather-style producers).
    #[default]
    AllToAll,
}

/// How data moves between ranks (Figure 3b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransferMode {
    /// The consumer reads remote data from every peer and notifies itself with
    /// local barriers.
    #[default]
    Pull,
    /// The producer writes local data into every peer and notifies the remote
    /// consumers.
    Push,
}

/// Which hardware resource carries the communication part (Figure 2c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommMapping {
    /// Copy engine (DMA), driven by host-side primitives; no SM contention but
    /// host launch latency per transfer.
    CopyEngine,
    /// Dedicated communication SMs inside the fused kernel.
    Sm {
        /// Number of SMs reserved for communication blocks.
        sms: u64,
    },
    /// Hybrid: bulk data movement on the copy engine, reductions/epilogues on
    /// a few SMs (the mapping TileLink picks for GEMM + ReduceScatter in the
    /// paper's evaluation).
    Hybrid {
        /// Number of SMs reserved for the reduction/epilogue blocks.
        sms: u64,
    },
}

impl Default for CommMapping {
    fn default() -> Self {
        CommMapping::Sm { sms: 20 }
    }
}

impl CommMapping {
    /// Number of SMs the communication side reserves (0 for pure copy-engine mapping).
    pub fn comm_sms(&self) -> u64 {
        match self {
            CommMapping::CopyEngine => 0,
            CommMapping::Sm { sms } | CommMapping::Hybrid { sms } => *sms,
        }
    }
}

/// The complete decoupled design-space choice for one overlapped kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OverlapConfig {
    /// Tile shape used by the communication (producer) side.
    pub comm_tile: TileShape,
    /// Tile shape used by the computation (consumer) side.
    pub compute_tile: TileShape,
    /// Tile order of the communication side.
    pub order: TileOrder,
    /// Push or pull data movement.
    pub mode: TransferMode,
    /// Resource mapping of the communication side.
    pub comm_mapping: CommMapping,
    /// Barrier channels per rank (the `C` of Section 4.1).
    pub channels_per_rank: usize,
    /// Software-pipeline depth applied to the compute blocks.
    pub num_stages: usize,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        Self {
            comm_tile: TileShape::new(128, 128),
            compute_tile: TileShape::new(128, 256),
            order: TileOrder::AllToAll,
            mode: TransferMode::Pull,
            comm_mapping: CommMapping::default(),
            channels_per_rank: 4,
            num_stages: 3,
        }
    }
}

/// The config axes the tile-program builders read: everything else a
/// builder's program and tile mapping depend on comes from the workload
/// shape, not from the [`OverlapConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ProgramAxes {
    comm_rows: usize,
    compute_rows: usize,
    channels_per_rank: usize,
}

impl OverlapConfig {
    /// The axes a tile-program builder reads (see the module docs).
    pub(crate) fn program_axes(&self) -> ProgramAxes {
        ProgramAxes {
            comm_rows: self.comm_tile.m,
            compute_rows: self.compute_tile.m,
            channels_per_rank: self.channels_per_rank,
        }
    }

    /// This config with `order` and `mode` reset to their defaults: the part
    /// of the config that reaches a compiled kernel's task graph. Two configs
    /// with the same projection (`order`/`mode` twins) simulate identically.
    ///
    /// ```
    /// use tilelink::{OverlapConfig, TileOrder, TransferMode};
    /// let twin = OverlapConfig::default()
    ///     .with_order(TileOrder::Ring)
    ///     .with_mode(TransferMode::Push);
    /// assert_eq!(twin.priced_projection(), OverlapConfig::default());
    /// ```
    #[must_use]
    pub fn priced_projection(&self) -> Self {
        Self {
            order: TileOrder::default(),
            mode: TransferMode::default(),
            ..*self
        }
    }

    /// Validates the configuration against a device with `sm_count` SMs.
    ///
    /// # Errors
    ///
    /// Returns [`TileLinkError::InvalidConfig`] if a tile extent or the channel
    /// count is zero, or if the communication mapping reserves every SM.
    pub fn validate(&self, sm_count: u64) -> Result<()> {
        if self.comm_tile.m == 0 || self.comm_tile.n == 0 {
            return Err(TileLinkError::InvalidConfig {
                reason: "communication tile extents must be positive".to_string(),
            });
        }
        if self.compute_tile.m == 0 || self.compute_tile.n == 0 {
            return Err(TileLinkError::InvalidConfig {
                reason: "computation tile extents must be positive".to_string(),
            });
        }
        if self.channels_per_rank == 0 {
            return Err(TileLinkError::InvalidConfig {
                reason: "channels_per_rank must be positive".to_string(),
            });
        }
        if self.num_stages == 0 {
            return Err(TileLinkError::InvalidConfig {
                reason: "num_stages must be positive".to_string(),
            });
        }
        let comm_sms = self.comm_mapping.comm_sms();
        if comm_sms >= sm_count {
            return Err(TileLinkError::InvalidConfig {
                reason: format!(
                    "communication mapping reserves {comm_sms} SMs but the device only has {sm_count}"
                ),
            });
        }
        Ok(())
    }

    /// Canonical, stable string encoding of this configuration.
    ///
    /// The encoding is used as (part of) the key of the persistent tuning cache
    /// of `tilelink-tune`, so it must be injective: two different
    /// configurations never encode to the same string. The format is
    /// human-readable on purpose, so cache files can be inspected:
    ///
    /// ```
    /// use tilelink::OverlapConfig;
    /// assert_eq!(
    ///     OverlapConfig::default().cache_key(),
    ///     "ct128x128;xt128x256;o=a2a;m=pull;r=sm20;ch4;st3"
    /// );
    /// ```
    pub fn cache_key(&self) -> String {
        let order = match self.order {
            TileOrder::Ring => "ring",
            TileOrder::AllToAll => "a2a",
        };
        let mode = match self.mode {
            TransferMode::Pull => "pull",
            TransferMode::Push => "push",
        };
        let mapping = match self.comm_mapping {
            CommMapping::CopyEngine => "ce".to_string(),
            CommMapping::Sm { sms } => format!("sm{sms}"),
            CommMapping::Hybrid { sms } => format!("hy{sms}"),
        };
        format!(
            "ct{};xt{};o={order};m={mode};r={mapping};ch{};st{}",
            self.comm_tile, self.compute_tile, self.channels_per_rank, self.num_stages
        )
    }

    /// Returns a copy with a different communication tile.
    pub fn with_comm_tile(mut self, tile: TileShape) -> Self {
        self.comm_tile = tile;
        self
    }

    /// Returns a copy with a different computation tile.
    pub fn with_compute_tile(mut self, tile: TileShape) -> Self {
        self.compute_tile = tile;
        self
    }

    /// Returns a copy with a different communication resource mapping.
    pub fn with_comm_mapping(mut self, mapping: CommMapping) -> Self {
        self.comm_mapping = mapping;
        self
    }

    /// Returns a copy with a different transfer mode.
    pub fn with_mode(mut self, mode: TransferMode) -> Self {
        self.mode = mode;
        self
    }

    /// Returns a copy with a different tile order.
    pub fn with_order(mut self, order: TileOrder) -> Self {
        self.order = order;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_on_h800() {
        assert!(OverlapConfig::default().validate(132).is_ok());
    }

    #[test]
    fn zero_tile_is_rejected() {
        let cfg = OverlapConfig::default().with_comm_tile(TileShape::new(0, 128));
        assert!(matches!(
            cfg.validate(132),
            Err(TileLinkError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn reserving_every_sm_is_rejected() {
        let cfg = OverlapConfig::default().with_comm_mapping(CommMapping::Sm { sms: 132 });
        assert!(cfg.validate(132).is_err());
        let cfg = OverlapConfig::default().with_comm_mapping(CommMapping::Sm { sms: 20 });
        assert!(cfg.validate(132).is_ok());
    }

    #[test]
    fn zero_channels_rejected() {
        let cfg = OverlapConfig {
            channels_per_rank: 0,
            ..OverlapConfig::default()
        };
        assert!(cfg.validate(132).is_err());
    }

    #[test]
    fn comm_sms_by_mapping() {
        assert_eq!(CommMapping::CopyEngine.comm_sms(), 0);
        assert_eq!(CommMapping::Sm { sms: 20 }.comm_sms(), 20);
        assert_eq!(CommMapping::Hybrid { sms: 8 }.comm_sms(), 8);
    }

    #[test]
    fn tile_shape_helpers() {
        let t = TileShape::new(128, 256);
        assert_eq!(t.numel(), 32768);
        assert_eq!(t.to_string(), "128x256");
    }

    #[test]
    fn cache_key_is_injective_across_axes() {
        let base = OverlapConfig::default();
        let variants = [
            base,
            base.with_comm_tile(TileShape::new(64, 128)),
            base.with_compute_tile(TileShape::new(64, 128)),
            base.with_order(TileOrder::Ring),
            base.with_mode(TransferMode::Push),
            base.with_comm_mapping(CommMapping::CopyEngine),
            base.with_comm_mapping(CommMapping::Sm { sms: 8 }),
            base.with_comm_mapping(CommMapping::Hybrid { sms: 20 }),
        ];
        let keys: std::collections::HashSet<String> =
            variants.iter().map(OverlapConfig::cache_key).collect();
        assert_eq!(keys.len(), variants.len());
    }

    #[test]
    fn priced_projection_resets_only_order_and_mode() {
        let cfg = OverlapConfig {
            comm_tile: TileShape::new(64, 64),
            compute_tile: TileShape::new(64, 128),
            order: TileOrder::Ring,
            mode: TransferMode::Push,
            comm_mapping: CommMapping::CopyEngine,
            channels_per_rank: 2,
            num_stages: 4,
        };
        let projected = cfg.priced_projection();
        assert_eq!(
            projected,
            cfg.with_order(TileOrder::AllToAll)
                .with_mode(TransferMode::Pull)
        );
        assert_eq!(projected.priced_projection(), projected);
        assert_eq!(cfg.program_axes(), projected.program_axes());
        assert_ne!(
            cfg.program_axes(),
            cfg.with_comm_tile(TileShape::new(128, 64)).program_axes()
        );
    }

    #[test]
    fn config_is_hashable() {
        let mut set = std::collections::HashSet::new();
        set.insert(OverlapConfig::default());
        set.insert(OverlapConfig::default());
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn builder_style_updates() {
        let cfg = OverlapConfig::default()
            .with_mode(TransferMode::Push)
            .with_order(TileOrder::Ring)
            .with_compute_tile(TileShape::new(64, 64));
        assert_eq!(cfg.mode, TransferMode::Push);
        assert_eq!(cfg.order, TileOrder::Ring);
        assert_eq!(cfg.compute_tile, TileShape::new(64, 64));
    }
}
