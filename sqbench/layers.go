package main

// layerCatalog is the per-layer ledger: every metric the traced run
// reports, with the end-to-end metric it should move (by its
// per-workload name; README.md maps those to the gated set) and the
// workload where it should move it. Decided before any measurement, so
// a later change can be checked against the prediction.
var layerCatalog = []struct{ name, unit, kind, moves string }{
	// bench: the load generator itself.
	{"bench.lag_ms_p99", "ms", "measured", "validity: must stay well below boot_p50_ms (boot-warm, flash-crowd)"},
	{"bench.queue_wait_ms_p50", "ms", "measured", "boot_p99_ms on boot-warm, flash-crowd"},
	{"bench.queue_wait_ms_p99", "ms", "measured", "boot_p99_ms on boot-warm, flash-crowd"},
	{"bench.trace_overhead_pct", "%", "measured", "traced vs untraced pass of one run: op_p50_quiet_ms (all)"},
	{"bench.trace_cpu_overhead_pct", "%", "measured", "traced vs untraced pass of one run: cpu_ms_per_op (all)"},

	// core / ctlplane: a span around each call the workload makes.
	{"core.boot_us", "us", "measured", "boot_p50_ms, boot_capacity_per_s on boot-warm"},
	{"core.register_us", "us", "measured", "register_p50_ms on register-churn"},
	{"core.gc_us", "us", "measured", "register_p99_ms on register-churn"},
	{"core.deregister_us", "us", "measured", "register_p99_ms on register-churn"},
	{"core.drop_replica_us", "us", "measured", "nothing (flash-crowd)"},
	{"core.boot_unattributed_us", "us", "measured", "ledger closure: boot span minus zvol read and qcow replays"},
	{"core.register_unattributed_us", "us", "measured", "ledger closure: register span minus write/send/receive/peer replays"},

	// zvol read path, replayed on the booting node's live ccVolume.
	{"zvol.read_object_us", "us", "measured", "boot_p50_ms, boot_capacity_per_s on boot-warm; cold_boot_p50_ms on flash-crowd; none on register-churn"},
	{"zvol.read_object_allocs", "count", "counted", "boot_capacity_per_s on boot-warm"},
	{"zvol.read_object_blocks", "count", "counted", "boot_p50_ms on boot-warm"},
	{"compress.decompress_us", "us", "measured", "boot_p50_ms on boot-warm (codec floor of the read)"},
	{"block.hash_us", "us", "measured", "boot_p50_ms on boot-warm (two SHA-256 passes)"},
	{"zvol.read_over_floor", "ratio", "measured", "boot_p50_ms on boot-warm (read / (decompress + hash))"},
	{"qcow.trace_read_us", "us", "measured", "boot_p50_ms on boot-warm"},

	// zvol write/send path, replayed on storage- and replica-side shadows.
	{"zvol.write_object_us", "us", "measured", "register_p50_ms on register-churn; none on boot-warm"},
	{"zvol.snapshot_us", "us", "measured", "register_p50_ms on register-churn"},
	{"zvol.send_us", "us", "measured", "register_p50_ms on register-churn"},
	{"zvol.encode_us", "us", "measured", "register_p50_ms on register-churn"},
	{"zvol.prepare_us", "us", "measured", "register_p50_ms on register-churn"},
	{"zvol.receive_prepared_us", "us", "measured", "register_p50_ms on register-churn (paid once per node)"},
	{"zvol.gc_us", "us", "measured", "register_p99_ms on register-churn"},
	{"zvol.live_objects", "count", "counted", "register_p50_ms on register-churn (held steady)"},
	{"zvol.live_snapshots", "count", "counted", "register_p50_ms on register-churn (held steady)"},
	{"zvol.ddt_entries", "count", "counted", "replica_ddt_mem_kb on register-churn"},
	{"zvol.gc_destroyed_per_cycle", "count", "counted", "register_p99_ms on register-churn"},
	{"zvol.dedup_hit_ratio", "ratio", "counted", "wire_bytes_per_register, replica_disk_mb on register-churn"},
	{"zvol.compress_kept_ratio", "ratio", "counted", "replica_disk_mb on register-churn"},

	// peer exchange.
	{"peer.set_holdings_us", "us", "measured", "register_p50_ms on register-churn (32 per register)"},
	{"peer.acquire_us", "us", "measured", "cold_boot_p50_ms on flash-crowd"},
	{"peer.bytes_per_cold_boot", "B", "counted", "net_bytes_per_boot on flash-crowd"},
	{"peer.fallbacks_per_cold_boot", "count", "counted", "net_bytes_per_boot on flash-crowd"},
	{"peer.hit_ratio", "ratio", "counted", "net_bytes_per_boot, cold_boot_p50_ms on flash-crowd"},

	// wire: client call minus the server-side call.
	{"wire.boot_rpc_us", "us", "measured", "boot_p50_ms on flash-crowd"},
	{"wire.register_rpc_us", "us", "measured", "boot_p50_ms on flash-crowd"},

	// obs.
	{"obs.scrape_ms", "ms", "measured", "boot_p99_ms on flash-crowd"},

	// Go runtime over the measured phase.
	{"go.gc_cpu_frac", "ratio", "measured", "boot_capacity_per_s on boot-warm; register_p99_ms on register-churn"},
	{"go.alloc_mb_per_op", "MB", "measured", "boot_capacity_per_s on boot-warm; register_p99_ms on register-churn"},
}

func layerMetric(name string) metric {
	for _, l := range layerCatalog {
		if l.name == name {
			return metric{name: name, unit: l.unit, kind: l.kind}
		}
	}
	panic("sqbench: layer metric not in catalog: " + name)
}
