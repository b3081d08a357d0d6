//! Machine configurations: the paper's two evaluation platforms.
//!
//! * [`MachineConfig::smp4`] — a 4-way Itanium 2 SMP server: four CPUs on a
//!   single snooping front-side bus with the MESI ("Illinois") protocol.
//! * [`MachineConfig::altix8`] — an 8-CPU SGI Altix-like cc-NUMA system: four
//!   2-CPU nodes, each node with local memory and a home directory, joined by
//!   a fat-tree interconnect. Remote and coherent misses are substantially
//!   more expensive than on the SMP, which is why the paper's optimizations
//!   help more there (up to 68 % vs up to 15 %).
//!
//! Latencies follow the paper's §4 measurements: L3 hits ~12 cycles, memory
//! loads 120–150 cycles, coherent misses 180–200+ cycles on the SMP.

use serde::{Deserialize, Serialize};

/// Geometry and hit latency of one cache level.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheGeometry {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size / (self.ways * self.line)
    }
}

/// Interconnect topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// All CPUs share one snooping front-side bus.
    SmpBus,
    /// cc-NUMA: `cpus_per_node` CPUs per node, per-node memory + directory,
    /// nodes connected by a fat tree.
    Numa { cpus_per_node: usize },
}

/// Full machine description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Human-readable name used in experiment reports.
    pub name: String,
    pub num_cpus: usize,
    pub topology: Topology,
    /// L1 data cache (integer loads only; FP loads bypass L1 on Itanium 2).
    pub l1d: CacheGeometry,
    pub l2: CacheGeometry,
    pub l3: CacheGeometry,
    /// DRAM load latency for a local (or SMP) access, in cycles.
    pub mem_latency: u64,
    /// Latency of a miss serviced by another cache's modified line (HITM).
    pub hitm_latency: u64,
    /// Latency of a clean cache-to-cache transfer (snoop hit, no flush).
    pub cache2cache_latency: u64,
    /// Store-upgrade drain latency (Shared line, invalidation round trip —
    /// on an Illinois-protocol FSB this is a full bus transaction, which is
    /// why "cache coherent L2 write misses could lead to L3 misses", §1).
    pub upgrade_latency: u64,
    /// Cycles a core loses when its cache must flush a Modified line in
    /// response to another CPU's snoop (HITM victim penalty).
    pub snoop_stall: u64,
    /// Additional latency for touching a remote NUMA node's memory.
    pub numa_remote_penalty: u64,
    /// Additional latency for a coherent miss crossing the interconnect.
    pub numa_remote_hitm_penalty: u64,
    /// Per-hop fat-tree latency (NUMA only).
    pub numa_hop_latency: u64,
    /// Page size used by the first-touch placement policy (NUMA only).
    pub numa_page_bytes: usize,
    /// Cycles one bus transaction occupies the bus (bandwidth model).
    pub bus_occupancy: u64,
    /// Miss-status-holding registers per CPU: outstanding load/prefetch
    /// misses. Prefetches are dropped when all are busy.
    pub mshrs_per_cpu: usize,
    /// Store-buffer entries per CPU; a full buffer stalls the core — this is
    /// how expensive store upgrades at partition boundaries turn into the
    /// paper's coherence slowdowns.
    pub store_buffer_entries: usize,
    /// DEAR latency filter threshold (cycles): ignore events faster than
    /// this. §4 programs it just above the L3 hit latency.
    pub dear_min_latency: u64,
    /// FP pipeline latency (fma and friends).
    pub fp_latency: u64,
    /// Long FP op latency (`fdiv.d`, `fsqrt.d`).
    pub fp_long_latency: u64,
    /// Size of data memory in bytes.
    pub mem_bytes: usize,
    /// Which host execution engine simulates this machine (see
    /// [`HostAccel`]). Never changes what is simulated.
    pub host_accel: HostAccel,
}

/// Host execution engine of the simulator. The choice never changes what is
/// simulated: [`HostAccel::Fast`] is bit-identical to
/// [`HostAccel::Reference`] on every observable (cycles, counters, overflow
/// captures, DEAR, MESI state, memory, registers), enforced by the
/// equivalence suites under `tests/`, each of which runs one against the
/// other.
///
/// Both presets, [`MachineConfig::smp4`] and [`MachineConfig::altix8`],
/// build [`HostAccel::Fast`]; [`MachineConfig::with_host_accel`] selects the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HostAccel {
    /// The per-cycle oracle: [`crate::Machine::step`] every cycle, every
    /// instruction through the full interpreter.
    Reference,
    /// The default engine, the block engine: all-stalled windows are
    /// skipped in bulk, and cores issue pre-decoded micro-ops out of the
    /// block cache (see `crate::blocks`) in stretches wherever no cross-core
    /// effect can land. The memory system is the same under both: its
    /// directory names the CPUs a snoop visits.
    #[default]
    Fast,
}

impl HostAccel {
    /// The default engine.
    pub fn fast() -> Self {
        Self::Fast
    }

    /// The per-cycle, per-access reference simulator.
    pub fn reference() -> Self {
        Self::Reference
    }
}

impl MachineConfig {
    /// The paper's 4-way Itanium 2 SMP server: four CPUs on one front-side
    /// bus, simulated by the default engine, [`HostAccel::Fast`].
    pub fn smp4() -> Self {
        MachineConfig {
            name: "smp4".into(),
            num_cpus: 4,
            topology: Topology::SmpBus,
            l1d: CacheGeometry {
                size: 16 << 10,
                ways: 4,
                line: 64,
                hit_latency: 1,
            },
            l2: CacheGeometry {
                size: 256 << 10,
                ways: 8,
                line: 128,
                hit_latency: 5,
            },
            l3: CacheGeometry {
                size: 1536 << 10,
                ways: 12,
                line: 128,
                hit_latency: 12,
            },
            mem_latency: 140,
            hitm_latency: 190,
            cache2cache_latency: 60,
            upgrade_latency: 170,
            snoop_stall: 30,
            numa_remote_penalty: 0,
            numa_remote_hitm_penalty: 0,
            numa_hop_latency: 0,
            numa_page_bytes: 16 << 10,
            bus_occupancy: 6,
            mshrs_per_cpu: 8,
            store_buffer_entries: 8,
            dear_min_latency: 13,
            fp_latency: 4,
            fp_long_latency: 30,
            mem_bytes: 64 << 20,
            host_accel: HostAccel::Fast,
        }
    }

    /// The paper's SGI Altix cc-NUMA configuration with 8 CPUs
    /// (four 2-CPU nodes on a fat tree).
    pub fn altix8() -> Self {
        let mut cfg = Self::smp4();
        cfg.name = "altix8".into();
        cfg.num_cpus = 8;
        cfg.topology = Topology::Numa { cpus_per_node: 2 };
        // The NUMALink interconnect makes both plain remote accesses and,
        // especially, coherent misses far costlier than the FSB.
        cfg.mem_latency = 150;
        cfg.numa_remote_penalty = 130;
        cfg.hitm_latency = 210;
        cfg.numa_remote_hitm_penalty = 240;
        cfg.cache2cache_latency = 80;
        cfg.upgrade_latency = 280;
        cfg.snoop_stall = 40;
        cfg.numa_hop_latency = 25;
        // Each node has its own bus; contention per node is milder.
        cfg.bus_occupancy = 5;
        cfg
    }

    /// Same configuration on the given host execution engine.
    pub fn with_host_accel(mut self, accel: HostAccel) -> Self {
        self.host_accel = accel;
        self
    }

    /// Number of NUMA nodes (1 for an SMP).
    pub(crate) fn num_nodes(&self) -> usize {
        match self.topology {
            Topology::SmpBus => 1,
            Topology::Numa { cpus_per_node } => self.num_cpus.div_ceil(cpus_per_node),
        }
    }

    /// Node that owns a CPU.
    pub(crate) fn node_of_cpu(&self, cpu: usize) -> usize {
        match self.topology {
            Topology::SmpBus => 0,
            Topology::Numa { cpus_per_node } => cpu / cpus_per_node,
        }
    }

    /// Fat-tree hop count between two nodes (0 when equal; siblings share a
    /// switch; otherwise up-and-down through `log2` levels).
    pub(crate) fn hops_between(&self, a: usize, b: usize) -> u64 {
        if a == b {
            return 0;
        }
        // Distance in a binary fat tree: 2 * (levels to the common ancestor).
        let diff = a ^ b;
        let levels = (usize::BITS - diff.leading_zeros()) as u64;
        2 * levels
    }

    /// Coherence/memory line size (L2/L3 line — the coherence granule).
    pub fn coherence_line(&self) -> usize {
        self.l2.line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smp4_matches_paper_platform() {
        let c = MachineConfig::smp4();
        assert_eq!(c.num_cpus, 4);
        assert_eq!(c.topology, Topology::SmpBus);
        assert_eq!(c.l2.line, 128, "Itanium 2 L2 line size per the paper");
        assert_eq!(
            c.l2.size,
            256 << 10,
            "256KB L2 per the paper's DAXPY analysis"
        );
        assert_eq!(c.num_nodes(), 1);
        assert_eq!(c.node_of_cpu(3), 0);
        // Coherent misses cost more than plain memory (paper: 120-150 vs 180-200).
        assert!(c.hitm_latency > c.mem_latency);
        // The DEAR filter threshold sits just above the L3 hit latency (§4).
        assert_eq!(c.dear_min_latency, c.l3.hit_latency + 1);
    }

    #[test]
    fn altix8_is_numa_with_2cpu_nodes() {
        let c = MachineConfig::altix8();
        assert_eq!(c.num_cpus, 8);
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.node_of_cpu(0), 0);
        assert_eq!(c.node_of_cpu(1), 0);
        assert_eq!(c.node_of_cpu(2), 1);
        assert_eq!(c.node_of_cpu(7), 3);
        // Remote coherent misses are the dominant penalty (why Fig. 5b
        // speedups dwarf Fig. 5a speedups).
        assert!(c.numa_remote_hitm_penalty > c.numa_remote_penalty);
    }

    #[test]
    fn fat_tree_hops() {
        let c = MachineConfig::altix8();
        assert_eq!(c.hops_between(0, 0), 0);
        assert_eq!(c.hops_between(0, 1), 2, "sibling nodes share a switch");
        assert_eq!(c.hops_between(0, 2), 4);
        assert_eq!(c.hops_between(1, 3), 4);
        assert_eq!(c.hops_between(0, 3), 4);
        assert_eq!(c.hops_between(2, 3), 2);
    }

    #[test]
    fn cache_geometry_sets() {
        let c = MachineConfig::smp4();
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 256);
        assert_eq!(c.l3.sets(), 1024);
    }

    #[test]
    fn host_accel_round_trips() {
        for accel in [HostAccel::Reference, HostAccel::Fast] {
            let cfg = MachineConfig::altix8().with_host_accel(accel);
            let v = serde_json::to_value(&cfg).expect("serializes");
            let back: MachineConfig = serde_json::from_value(&v).expect("round trip");
            assert_eq!(back.host_accel, accel);
            assert_eq!(back.num_cpus, cfg.num_cpus);
        }
    }
}
