//! The names, units and directions of every metric the benchmark reports.
//! `BENCHMARK.json` at the repo root lists the same names (a self-test
//! holds the two equal); README.md says what each one measures and which
//! end-to-end metric it should move.

/// `(name, unit, better)`.
pub type Def = (&'static str, &'static str, &'static str);

/// End-to-end metrics: reported by every workload on an untraced run.
pub const END_TO_END: &[Def] = &[
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics: reported by every workload on a traced run, 0 where
/// the workload does not exercise the layer.
pub const PER_LAYER: &[Def] = &[
    // Set-up, by the layer that spent it.
    ("kernels.build_ms", "ms", "lower"),
    ("machine.new_ms", "ms", "lower"),
    ("kernels.init_ms", "ms", "lower"),
    ("isa.decode_ns", "ns", "lower"),
    ("isa.encode_ns", "ns", "lower"),
    ("isa.lower_ns", "ns", "lower"),
    // The simulator proper: `Workload::run` minus the hook.
    ("machine.run_self_s", "s", "lower"),
    ("machine.host_ns_per_guest_cycle", "ns", "lower"),
    ("machine.host_ns_per_guest_inst", "ns", "lower"),
    ("machine.guest_cycles", "count", "lower"),
    ("machine.inst_retired", "count", "lower"),
    ("machine.core.solo_ns_per_cycle", "ns", "lower"),
    ("machine.core.lockstep4_ns_per_cycle", "ns", "lower"),
    ("machine.blocks.horizon_cycle_share", "share", "higher"),
    ("machine.blocks.mean_horizon", "cycles", "higher"),
    ("machine.blocks.fallback_cycle_share", "share", "lower"),
    (
        "machine.blocks.fallback_mem_boundary_share",
        "share",
        "lower",
    ),
    ("machine.blocks.fallback_sampling_share", "share", "lower"),
    ("machine.blocks.builds", "count", "lower"),
    ("machine.blocks.invalidations", "count", "lower"),
    // Seeded streams driven straight into `MemSystem::access`.
    ("machine.memsys.private_hit_ns", "ns", "lower"),
    ("machine.memsys.l2_hit_ns", "ns", "lower"),
    ("machine.memsys.stream_miss_ns", "ns", "lower"),
    ("machine.memsys.snoop_miss_ns", "ns", "lower"),
    ("machine.memsys.pingpong_hitm_ns", "ns", "lower"),
    ("machine.memsys.store_upgrade_ns", "ns", "lower"),
    ("machine.memsys.prefetch_excl_ns", "ns", "lower"),
    ("machine.memsys.numa_remote_miss_ns", "ns", "lower"),
    ("machine.memsys.mixed_seeded_ns", "ns", "lower"),
    // Simulated counts (exact): what the modelled hardware did.
    ("machine.memsys.l2_miss", "count", "lower"),
    ("machine.memsys.l3_miss", "count", "lower"),
    ("machine.memsys.bus_memory", "count", "lower"),
    ("machine.memsys.bus_rd_hitm", "count", "lower"),
    ("machine.memsys.bus_upgrade", "count", "lower"),
    ("machine.memsys.lfetch_issued", "count", "lower"),
    ("machine.memsys.lfetch_dropped", "count", "lower"),
    ("machine.stall_cycle_share", "share", "lower"),
    // The attached runtime, from outside.
    ("rt.hook_s", "s", "lower"),
    ("rt.hook_share", "share", "lower"),
    ("rt.hook_us_per_tick_p50", "us", "lower"),
    ("rt.hook_us_per_tick_p99", "us", "lower"),
    ("rt.ticks", "count", "lower"),
    ("rt.attach_ms", "ms", "lower"),
    ("rt.detach_ms", "ms", "lower"),
    // What the runtime decided (exact, from `CobraReport`).
    ("rt.adaptive_speedup_pct", "%", "higher"),
    ("rt.converge_ticks", "ticks", "lower"),
    ("rt.converge_ticks_warm", "ticks", "lower"),
    ("rt.stale_ticks", "ticks", "lower"),
    ("rt.overhead_cycle_pct", "%", "lower"),
    ("rt.samples_forwarded", "count", "lower"),
    ("rt.samples_merged", "count", "lower"),
    ("rt.applied", "count", "lower"),
    ("rt.reverted", "count", "lower"),
    ("rt.useful_share", "share", "higher"),
    ("rt.candidates_trialed", "count", "lower"),
    ("rt.tournaments_promoted", "count", "higher"),
    ("rt.warm_hits", "count", "higher"),
    ("rt.phase_changes", "count", "lower"),
    ("rt.osr_migrations", "count", "higher"),
    ("rt.osr_reverse_migrations", "count", "lower"),
    ("rt.verify_rejects", "count", "lower"),
    ("rt.deploy_failures", "count", "lower"),
    // The decision pipeline's stages, driven one by one.
    ("perfmon.poll_us_per_tick", "us", "lower"),
    ("perfmon.drain_us_per_tick", "us", "lower"),
    ("perfmon.samples", "count", "lower"),
    ("perfmon.dropped", "count", "lower"),
    ("rt.trace.select_loops_us", "us", "lower"),
    ("rt.optimizer.consider_us", "us", "lower"),
    ("verify.check_plan_us", "us", "lower"),
    ("verify.check_seed_us", "us", "lower"),
    ("verify.plans_checked", "count", "higher"),
    ("osr.map_build_us", "us", "lower"),
    ("verify.check_osr_map_us", "us", "lower"),
    ("store.save_ms", "ms", "lower"),
    ("store.load_ms", "ms", "lower"),
    ("store.snapshot_bytes", "bytes", "lower"),
    ("store.merge_unordered_us", "us", "lower"),
    ("store.skipped_records", "count", "lower"),
    // The service path.
    ("fleet.frame_encode_us", "us", "lower"),
    ("fleet.frame_decode_us", "us", "lower"),
    ("fleet.frame_bytes", "bytes", "lower"),
    ("fleet.fold_per_s", "1/s", "higher"),
    ("fleet.mixed_ops_per_s", "1/s", "higher"),
    ("fleet.fetch_p50_us", "us", "lower"),
    ("fleet.fetch_p99_us", "us", "lower"),
    ("fleet.upload_rtt_p50_us", "us", "lower"),
    ("fleet.upload_rtt_p99_us", "us", "lower"),
    ("fleet.fetch_rtt_c_p50_us", "us", "lower"),
    ("fleet.fetch_rtt_c_p99_us", "us", "lower"),
    ("fleet.uploads", "count", "higher"),
    ("fleet.upload_rejects", "count", "lower"),
    ("fleet.seed_hits", "count", "higher"),
    ("fleet.served_unverified", "count", "lower"),
    ("fleet.frames_rejected", "count", "lower"),
    ("fleet.persist_errors", "count", "lower"),
];

/// The six workloads, in the order a full record runs them.
pub const WORKLOADS: &[&str] = &[
    "npb_fixed_smp4",
    "npb_fixed_altix8",
    "adapt_fine_smp4",
    "daxpy_sweep",
    "compute_dense",
    "fleet_mixed",
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program reports. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let owned = |t: &[Def]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|d| (d.0.into(), d.1.into(), d.2.into()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
        assert!(PER_LAYER.len() <= 128);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        // Every end-to-end metric has a bound; set-up has the largest.
        let bounds = crate::compare::bounds(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(bounds.len(), END_TO_END.len());
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
        assert!(bounds.iter().all(|(_, b)| *b <= setup && *b <= 0.25));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
