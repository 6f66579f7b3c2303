//! Trace-driven memory-hierarchy simulator for the *Cache-Conscious
//! Structure Layout* reproduction (Chilimbi, Hill & Larus, PLDI 1999).
//!
//! The paper measures its placement techniques on two substrates: a Sun
//! Ultraserver E5000 (tree microbenchmark, RADIANCE, VIS) and RSIM, a
//! cycle-level out-of-order simulator (the Olden suite, Table 1). Neither is
//! available here, so this crate provides the closest synthetic equivalent:
//!
//! * a two-level, set-associative, LRU [`cache::Cache`] hierarchy
//!   ([`MemorySystem`]) with write-through or write-back policies,
//! * a fully-associative [`tlb::Tlb`],
//! * hardware and software prefetching models ([`prefetch`]),
//! * a simplified out-of-order [`pipeline::Pipeline`] that attributes each
//!   cycle to *busy*, *instruction stall*, *data stall*, or *store stall*
//!   using the paper's attribution rule (Section 4.4), and
//! * machine presets ([`config::MachineConfig`]) for the E5000 and the
//!   paper's Table 1 RSIM configuration.
//!
//! Workloads are *programs over a simulated heap*: they emit [`event::Event`]
//! streams (instruction work, branches, loads, stores, prefetches) into an
//! [`event::EventSink`] — either a pure [`MemorySink`] when only miss rates
//! matter (Figures 5 and 10) or a [`pipeline::Pipeline`] when the stall
//! breakdown matters (Figure 7).
//!
//! # Example
//!
//! ```
//! use cc_sim::config::MachineConfig;
//! use cc_sim::event::{Event, EventSink};
//! use cc_sim::MemorySink;
//!
//! let mut mem = MemorySink::new(MachineConfig::ultrasparc_e5000());
//! // A tiny pointer chase: two nodes in the same 64-byte L2 block.
//! mem.event(Event::load(0x1000, 20));
//! mem.event(Event::load(0x1014, 20));
//! let s = mem.system().l2_stats();
//! assert_eq!(s.misses(), 1, "second access hits the block the first pulled in");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod config;
pub mod event;
pub mod fasthash;
pub mod geometry;
pub mod hierarchy;
pub mod pipeline;
pub mod prefetch;
pub mod shard;
pub mod stats;
pub mod tlb;

pub use batch::{
    BatchCursor, BatchOutcome, BatchSink, MemRef, TraceBuf, TraceCorruption, TraceFault,
    TraceRecorder,
};
pub use config::{Latency, MachineConfig};
pub use event::{AffinityTrace, Event, EventSink, Tee};
pub use geometry::CacheGeometry;
pub use hierarchy::{AccessKind, AccessOutcome, Level, MemorySystem};
pub use pipeline::{Breakdown, Pipeline, PipelineConfig};
pub use shard::{
    ShardDegradation, ShardPlan, ShardReplayOutcome, ShardedReplayer, ShardedTrace, SplitPool,
};
pub use stats::CacheStats;

/// An [`EventSink`] that drives a [`MemorySystem`] and ignores pipeline
/// timing — the measurement device for the miss-rate-only experiments
/// (tree microbenchmark, model validation).
///
/// Each event advances a logical access clock by one so that prefetch
/// completion still has a meaningful time base.
#[derive(Debug)]
pub struct MemorySink {
    system: MemorySystem,
    insts: u64,
    branches: u64,
    now: u64,
    /// Cycles accumulated by the Section 5.1 latency formula as accesses
    /// stream through (includes TLB penalties).
    cycles: u64,
}

impl MemorySink {
    /// Creates a sink simulating `machine`.
    pub fn new(machine: MachineConfig) -> Self {
        MemorySink {
            system: MemorySystem::new(machine),
            insts: 0,
            branches: 0,
            now: 0,
            cycles: 0,
        }
    }

    /// The underlying memory system (cache and TLB statistics).
    pub fn system(&self) -> &MemorySystem {
        &self.system
    }

    /// Enables per-region miss attribution on the underlying memory system
    /// (see [`MemorySystem::enable_attribution`]).
    pub fn enable_attribution(&mut self, map: std::sync::Arc<cc_obs::RegionMap>) {
        self.system.enable_attribution(map);
    }

    /// Additionally attributes demand accesses to struct fields (see
    /// [`MemorySystem::enable_field_attribution`]).
    ///
    /// # Panics
    ///
    /// Panics if [`MemorySink::enable_attribution`] was not called.
    pub fn enable_field_attribution(&mut self, map: std::sync::Arc<cc_obs::FieldMap>) {
        self.system.enable_field_attribution(map);
    }

    /// The attribution profile, if [`MemorySink::enable_attribution`] was
    /// called.
    pub fn attribution(&self) -> Option<&cc_obs::MissProfile> {
        self.system.attribution()
    }

    /// Instructions retired (from [`Event::Inst`]).
    pub fn insts(&self) -> u64 {
        self.insts
    }

    /// Branches observed (from [`Event::Branch`]).
    pub fn branches(&self) -> u64 {
        self.branches
    }

    /// Total memory cycles accumulated by the paper's Section 5.1 formula:
    /// every reference costs `t_h`, plus the L1/L2 miss penalties and TLB
    /// penalties actually incurred.
    pub fn memory_cycles(&self) -> u64 {
        self.cycles
    }

    /// Resets the statistics counters (cache *contents* are preserved), so a
    /// caller can separate warm-up from steady-state measurement.
    pub fn reset_stats(&mut self) {
        self.system.reset_stats();
        self.insts = 0;
        self.branches = 0;
        self.cycles = 0;
    }
}

impl EventSink for MemorySink {
    fn event(&mut self, ev: Event) {
        self.now += 1;
        match ev {
            Event::Inst(n) => self.insts += u64::from(n),
            Event::Branch(n) => self.branches += u64::from(n),
            Event::Load { addr, size, .. } => {
                let out = self.system.access(addr, size, AccessKind::Read, self.now);
                self.cycles += out.cycles;
            }
            Event::Store { addr, size } => {
                let out = self.system.access(addr, size, AccessKind::Write, self.now);
                self.cycles += out.cycles;
            }
            Event::Prefetch { addr } => {
                self.system.prefetch(addr, self.now);
            }
        }
    }
}
