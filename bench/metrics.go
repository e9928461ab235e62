package main

import "strings"

// This file is the one table of metric names. BENCHMARK.json repeats the
// name/unit/better(/bound) columns (bench_test.go asserts the two agree);
// the layer, source and "moves" columns exist only here and in README.md,
// because the driver's schema for BENCHMARK.json allows no further keys.

// Workload names (normative; BENCHMARK.json lists the same five).
const (
	wlBulkKeyedTCP    = "bulk_keyed_tcp"
	wlBulkRLMNative   = "bulk_rlm_native"
	wlMultilevelDup   = "multilevel_dup_tcp"
	wlSvcTinyClosed   = "svc_tiny_closed"
	wlSvcTinyOpen     = "svc_tiny_open"
	wlProbes          = "probes" // pseudo workload: the layer probes alone
	numClusterRanks   = 4        // p everywhere (the ROADMAP reference shape)
	svcClientConns    = 2        // nproc is 2: never more load generators
	svcOpenRatePerSec = 150.0    // fixed offered rate of svc_tiny_open
)

var workloadNames = []string{wlBulkKeyedTCP, wlBulkRLMNative, wlMultilevelDup, wlSvcTinyClosed, wlSvcTinyOpen}

var workloadWhy = map[string]string{
	wlBulkKeyedTCP:  "ROADMAP reference run (AMS, TCP p=4, 8 MB uniform uint64, keyed): radix/classify kernels and the bulk exchange wire-netcomm-coll-delivery each carry a large share",
	wlBulkRLMNative: "transport control (RLM, native p=4, 8 MB skewed 16-byte records, prefix path): no codec, no sockets, the only workload on the merge side of seq and on msel",
	wlMultilevelDup: "the paper's multi-level contribution (AMS r=2x2, tie-break) on duplicate-heavy input: data crosses the wire twice, collectives and grouping run per level",
	wlSvcTinyClosed: "service capacity, closed loop: 2 clients post 4096-key jobs back to back; per-job cost is dispatch, tag epochs, latency-bound collectives and JSON, not kernels",
	wlSvcTinyOpen:   "unloaded service latency, open loop at a fixed 150 jobs/s timed from the due time: the alpha-times-startups term end to end, which the throughput number hides",
}

func isServiceWorkload(w string) bool { return strings.HasPrefix(w, "svc_") }
func isTCPWorkload(w string) bool     { return w != wlBulkRLMNative }

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" | "higher"
	bound  float64 // end-to-end only: relative worsening that is a regression
	layer  string  // per-layer only: the package measured
	source string  // per-layer only: A (op returns), B (traced run), C (probe)
	// applies reports whether the metric is measured on a workload; the
	// contract's result line still carries a 0 for the others.
	applies func(w string) bool
	moves   string // which end-to-end metric, on which workload, it should move
}

func always(string) bool        { return true }
func oneShotOnly(w string) bool { return !isServiceWorkload(w) }

// amsWorkload: the two AMS-sort runs (sample, splitter-sort and classify
// spans exist only there; RLM selects splitters with msel).
func amsWorkload(w string) bool { return w == wlBulkKeyedTCP || w == wlMultilevelDup }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. failed_ratio is printed and gated too, but it is always 0
// on a passing run, so the driver's contract carries it as
// failed/attempted instead of as a bounded metric; output_imbalance is
// one-shot only and therefore lives in perLayer as core.output_imbalance.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.12},
	{name: "op_ms_p95", unit: "ms", better: "lower", bound: 0.20},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.08},
	{name: "s_per_gb", unit: "s/GB", better: "lower", bound: 0.08},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.05},
}

const (
	movesKeyed   = "op_ms_p50, s_per_gb on bulk_keyed_tcp; not svc_tiny_*"
	movesRLM     = "op_ms_p50, s_per_gb on bulk_rlm_native; not bulk_keyed_tcp, svc_tiny_*"
	movesDup     = "op_ms_p50, core.output_imbalance on multilevel_dup_tcp; not bulk_rlm_native"
	movesBulkNet = "op_ms_p50, s_per_gb, alloc_mb_per_op on bulk_keyed_tcp and multilevel_dup_tcp; not bulk_rlm_native"
	movesSmall   = "op_ms_p50 on svc_tiny_open, ops_per_s on svc_tiny_closed, less so multilevel_dup_tcp; not bulk_*"
	movesSvc     = "op_ms_p50, op_ms_p95 on svc_tiny_open, ops_per_s on svc_tiny_closed; no one-shot workload"
	movesTail    = "op_ms_p95 on every workload (the slowest rank sets the time)"
	movesCPU     = "ops_per_s, s_per_gb on every workload (4 ranks share 2 cores)"
	movesNative  = "op_ms_p50 on bulk_rlm_native; no TCP workload"
	movesNone    = "no end-to-end metric: a budget of its own (measured with tracing off)"
	movesPhase   = "op_ms_p50 of its own workload (phase share of the blocking path)"
)

var perLayer = []metricDef{
	// A. From what the untraced ops return.
	{name: "core.splitter_selection_ms", unit: "ms", better: "lower", layer: "core", source: "A", applies: always, moves: movesPhase},
	{name: "core.bucket_processing_ms", unit: "ms", better: "lower", layer: "core", source: "A", applies: always, moves: movesKeyed},
	{name: "core.data_delivery_ms", unit: "ms", better: "lower", layer: "core", source: "A", applies: always, moves: movesBulkNet},
	{name: "core.local_sort_ms", unit: "ms", better: "lower", layer: "core", source: "A", applies: always, moves: movesKeyed},
	{name: "core.level0_ms", unit: "ms", better: "lower", layer: "core", source: "A", applies: oneShotOnly, moves: movesDup},
	{name: "core.level1_ms", unit: "ms", better: "lower", layer: "core", source: "A", applies: func(w string) bool { return w == wlMultilevelDup }, moves: movesDup},
	{name: "core.exchange_share", unit: "ratio", better: "lower", layer: "core", source: "A", applies: always, moves: movesBulkNet},
	{name: "core.max_imbalance", unit: "ratio", better: "lower", layer: "core", source: "A", applies: oneShotOnly, moves: movesDup},
	{name: "core.output_imbalance", unit: "ratio", better: "lower", layer: "core", source: "A", applies: oneShotOnly, moves: "the paper's (1+eps) guarantee; user-visible on one-shot workloads, validated on every op"},
	{name: "core.rank_skew_ms", unit: "ms", better: "lower", layer: "core", source: "A", applies: oneShotOnly, moves: movesTail},
	{name: "core.speedup_vs_baseline", unit: "ratio", better: "higher", layer: "core", source: "A", applies: oneShotOnly, moves: "restates op_ms_p50 against baseline.slices_sort_ms"},
	{name: "svc.mesh_wall_ms_p50", unit: "ms", better: "lower", layer: "svc", source: "A", applies: isServiceWorkload, moves: movesSmall},
	{name: "svc.overhead_ms_p50", unit: "ms", better: "lower", layer: "svc", source: "A", applies: isServiceWorkload, moves: movesSvc},
	{name: "svc.overhead_ms_p95", unit: "ms", better: "lower", layer: "svc", source: "A", applies: isServiceWorkload, moves: movesSvc},
	{name: "svc.op_ms_p99", unit: "ms", better: "lower", layer: "svc", source: "A", applies: isServiceWorkload, moves: movesTail},
	{name: "svc.spec_ms_p50", unit: "ms", better: "lower", layer: "svc", source: "A", applies: isServiceWorkload, moves: movesSvc},
	{name: "svc.raw_ms_p50", unit: "ms", better: "lower", layer: "svc", source: "A", applies: isServiceWorkload, moves: movesSvc},
	{name: "svc.http_floor_us_p50", unit: "us", better: "lower", layer: "svc", source: "A", applies: isServiceWorkload, moves: movesSvc},
	{name: "svc.rejected_ratio", unit: "ratio", better: "lower", layer: "svc", source: "A", applies: isServiceWorkload, moves: "failed ops on svc_tiny_*"},
	{name: "svc.retried_jobs", unit: "count", better: "lower", layer: "svc", source: "A", applies: isServiceWorkload, moves: "failed ops on svc_tiny_* (attempts must stay 1)"},
	{name: "loadgen.lag_ms_p95", unit: "ms", better: "lower", layer: "loadgen", source: "A", applies: func(w string) bool { return w == wlSvcTinyOpen }, moves: "validity of svc_tiny_open: the generator must not be the bottleneck"},
	{name: "loadgen.backlog_growing", unit: "count", better: "lower", layer: "loadgen", source: "A", applies: func(w string) bool { return w == wlSvcTinyOpen }, moves: "validity of svc_tiny_open: 1 means the fixed rate exceeds capacity"},
	{name: "proc.cpu_s_per_op", unit: "s", better: "lower", layer: "proc", source: "A", applies: always, moves: movesCPU},
	{name: "proc.gc_cycles_per_op", unit: "count", better: "lower", layer: "proc", source: "A", applies: always, moves: movesTail},
	{name: "proc.gc_pause_ms_per_op", unit: "ms", better: "lower", layer: "proc", source: "A", applies: always, moves: movesTail},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower", layer: "proc", source: "A", applies: always, moves: "memory; work moved into set-up shows here and in setup_s"},

	// B. From the traced run.
	{name: "core.span.sample_ms", unit: "ms", better: "lower", layer: "core", source: "B", applies: amsWorkload, moves: movesPhase},
	{name: "core.span.splitter_sort_ms", unit: "ms", better: "lower", layer: "core", source: "B", applies: amsWorkload, moves: movesSmall},
	{name: "core.span.classify_ms", unit: "ms", better: "lower", layer: "core", source: "B", applies: amsWorkload, moves: movesKeyed},
	{name: "core.span.piece_sort_ms", unit: "ms", better: "lower", layer: "core", source: "B", applies: func(string) bool { return false }, moves: "plain comparator last level only: no workload takes it (0 everywhere says so)"},
	{name: "core.span.exchange_ms", unit: "ms", better: "lower", layer: "core", source: "B", applies: oneShotOnly, moves: movesBulkNet},
	{name: "core.span.merge_ms", unit: "ms", better: "lower", layer: "core", source: "B", applies: func(w string) bool { return w == wlBulkRLMNative }, moves: movesRLM},
	{name: "core.span.local_sort_ms", unit: "ms", better: "lower", layer: "core", source: "B", applies: oneShotOnly, moves: movesKeyed},
	{name: "core.span.deliver_ms", unit: "ms", better: "lower", layer: "delivery", source: "B", applies: oneShotOnly, moves: movesBulkNet},
	{name: "coll.emit_ms", unit: "ms", better: "lower", layer: "coll", source: "B", applies: oneShotOnly, moves: movesBulkNet},
	{name: "netcomm.frames_per_op", unit: "count", better: "lower", layer: "netcomm", source: "B", applies: isTCPWorkload, moves: movesSmall},
	{name: "netcomm.writev_calls_per_op", unit: "count", better: "lower", layer: "netcomm", source: "B", applies: isTCPWorkload, moves: movesBulkNet},
	{name: "netcomm.bytes_per_op", unit: "B", better: "lower", layer: "netcomm", source: "B", applies: isTCPWorkload, moves: movesBulkNet},
	{name: "netcomm.bufio_writes_per_op", unit: "count", better: "lower", layer: "netcomm", source: "B", applies: isTCPWorkload, moves: movesSmall},
	{name: "netcomm.mbox_wait_ms_per_op", unit: "ms", better: "lower", layer: "netcomm", source: "B", applies: isTCPWorkload, moves: movesSmall},
	{name: "netcomm.mbox_depth_max", unit: "count", better: "lower", layer: "netcomm", source: "B", applies: isTCPWorkload, moves: movesTail},
	{name: "delivery.msgs_per_rank", unit: "count", better: "lower", layer: "delivery", source: "B", applies: oneShotOnly, moves: "the paper's O(r) startup bound; op_ms_p50 on multilevel_dup_tcp"},
	{name: "obs.spans_per_op", unit: "count", better: "lower", layer: "obs", source: "B", applies: always, moves: movesNone},
	{name: "obs.gather_ms", unit: "ms", better: "lower", layer: "obs", source: "B", applies: oneShotOnly, moves: movesNone},
	{name: "obs.overhead_pct", unit: "%", better: "lower", layer: "obs", source: "B", applies: always, moves: movesNone},

	// C. Layer probes.
	{name: "seq.sort_keyed_ns_per_elem", unit: "ns", better: "lower", layer: "seq", source: "C", applies: always, moves: movesKeyed},
	{name: "seq.sort_prefixed_u64_ns_per_elem", unit: "ns", better: "lower", layer: "seq", source: "C", applies: always, moves: movesDup},
	{name: "seq.sort_prefixed_rec_ns_per_elem", unit: "ns", better: "lower", layer: "seq", source: "C", applies: always, moves: movesRLM},
	{name: "seq.sort_prefixed_dup_ns_per_elem", unit: "ns", better: "lower", layer: "seq", source: "C", applies: always, moves: movesDup},
	{name: "seq.sort_cmp_ns_per_elem", unit: "ns", better: "lower", layer: "seq", source: "C", applies: always, moves: "no workload's hot path (all five run keyed or prefixed kernels); the comparator reference"},
	{name: "seq.classify_keyed_ns_per_elem", unit: "ns", better: "lower", layer: "seq", source: "C", applies: always, moves: movesKeyed},
	{name: "seq.classify_prefixed_ns_per_elem", unit: "ns", better: "lower", layer: "seq", source: "C", applies: always, moves: movesDup},
	{name: "seq.classify_cmp_ns_per_elem", unit: "ns", better: "lower", layer: "seq", source: "C", applies: always, moves: "no workload's hot path; the comparator reference"},
	{name: "seq.multiway_ns_per_elem", unit: "ns", better: "lower", layer: "seq", source: "C", applies: always, moves: "no workload's hot path; the comparator reference"},
	{name: "seq.multiway_prefixed_ns_per_elem", unit: "ns", better: "lower", layer: "seq", source: "C", applies: always, moves: movesRLM},
	{name: "baseline.slices_sort_ms", unit: "ms", better: "lower", layer: "baseline", source: "C", applies: always, moves: "nothing: single-threaded reference and machine-speed calibration"},
	{name: "wire.encode_bulk_gb_s", unit: "GB/s", better: "higher", layer: "wire", source: "C", applies: always, moves: movesBulkNet},
	{name: "wire.decode_bulk_gb_s", unit: "GB/s", better: "higher", layer: "wire", source: "C", applies: always, moves: movesBulkNet},
	{name: "wire.decode_copy_gb_s", unit: "GB/s", better: "higher", layer: "wire", source: "C", applies: always, moves: "big-endian peers only: no workload's hot path"},
	{name: "wire.encode_rec_gb_s", unit: "GB/s", better: "higher", layer: "wire", source: "C", applies: always, moves: "struct payloads over TCP: no workload today (bulk_rlm_native is native)"},
	{name: "wire.encode_small_ns", unit: "ns", better: "lower", layer: "wire", source: "C", applies: always, moves: movesSmall},
	{name: "wire.decode_small_ns", unit: "ns", better: "lower", layer: "wire", source: "C", applies: always, moves: movesSmall},
	{name: "wire.allocs_per_frame", unit: "count", better: "lower", layer: "wire", source: "C", applies: always, moves: "alloc_mb_per_op on TCP and service workloads"},
	{name: "netcomm.rendezvous_ms", unit: "ms", better: "lower", layer: "netcomm", source: "C", applies: always, moves: "setup_s on TCP and service workloads; not bulk_rlm_native"},
	{name: "netcomm.pingpong_us_p50", unit: "us", better: "lower", layer: "netcomm", source: "C", applies: always, moves: movesSmall},
	{name: "netcomm.pingpong_us_p95", unit: "us", better: "lower", layer: "netcomm", source: "C", applies: always, moves: movesSmall},
	{name: "netcomm.stream_gb_s", unit: "GB/s", better: "higher", layer: "netcomm", source: "C", applies: always, moves: movesBulkNet},
	{name: "netcomm.heartbeat_overhead_pct", unit: "%", better: "lower", layer: "netcomm", source: "C", applies: always, moves: "op_ms_p50 of TCP workloads once heartbeats default on (off in every workload today)"},
	{name: "native.pingpong_ns_p50", unit: "ns", better: "lower", layer: "native", source: "C", applies: always, moves: movesNative},
	{name: "native.fanin_ns_per_msg", unit: "ns", better: "lower", layer: "native", source: "C", applies: always, moves: movesNative},
	{name: "coll.alltoallv_bulk_ms.tcp", unit: "ms", better: "lower", layer: "coll", source: "C", applies: always, moves: movesBulkNet},
	{name: "coll.alltoallv_1factor_bulk_ms.tcp", unit: "ms", better: "lower", layer: "coll", source: "C", applies: always, moves: movesBulkNet},
	{name: "coll.alltoallv_small_us.tcp", unit: "us", better: "lower", layer: "coll", source: "C", applies: always, moves: movesSmall},
	{name: "coll.allreduce_us.tcp", unit: "us", better: "lower", layer: "coll", source: "C", applies: always, moves: movesSmall},
	{name: "coll.bcast_us.tcp", unit: "us", better: "lower", layer: "coll", source: "C", applies: always, moves: movesSmall},
	{name: "coll.allgather_merge_us.tcp", unit: "us", better: "lower", layer: "coll", source: "C", applies: always, moves: movesSmall},
	{name: "coll.barrier_us.tcp", unit: "us", better: "lower", layer: "coll", source: "C", applies: always, moves: movesSmall},
	{name: "coll.alltoallv_bulk_ms.native", unit: "ms", better: "lower", layer: "coll", source: "C", applies: always, moves: movesNative},
	{name: "coll.alltoallv_small_us.native", unit: "us", better: "lower", layer: "coll", source: "C", applies: always, moves: movesNative},
	{name: "coll.barrier_us.native", unit: "us", better: "lower", layer: "coll", source: "C", applies: always, moves: movesNative},
	{name: "delivery.deliver_stream_ms.tcp", unit: "ms", better: "lower", layer: "delivery", source: "C", applies: always, moves: movesBulkNet},
	{name: "delivery.deliver_batch_ms.tcp", unit: "ms", better: "lower", layer: "delivery", source: "C", applies: always, moves: "no workload (Options.Batch is the conformance reference): the A/B lever for the stream path"},
	{name: "delivery.deliver_stream_ms.native", unit: "ms", better: "lower", layer: "delivery", source: "C", applies: always, moves: movesNative},
	{name: "delivery.deliver_2group_ms.tcp", unit: "ms", better: "lower", layer: "delivery", source: "C", applies: always, moves: "op_ms_p50 on multilevel_dup_tcp (level 0 delivers to 2 groups of 2)"},
	{name: "msel.select_us", unit: "us", better: "lower", layer: "msel", source: "C", applies: always, moves: movesRLM},
	{name: "grouping.optimal_l_us", unit: "us", better: "lower", layer: "grouping", source: "C", applies: always, moves: movesDup},
	{name: "obs.span_enabled_ns", unit: "ns", better: "lower", layer: "obs", source: "C", applies: always, moves: movesNone},
	{name: "obs.span_disabled_ns", unit: "ns", better: "lower", layer: "obs", source: "C", applies: always, moves: "all timings, slightly, on every workload"},
}

// naReason says why a per-layer metric carries no measurement on w.
func naReason(m metricDef, w string) string {
	switch {
	case strings.HasPrefix(m.name, "core.span.") && isServiceWorkload(w),
		m.name == "coll.emit_ms" && isServiceWorkload(w),
		m.name == "delivery.msgs_per_rank" && isServiceWorkload(w),
		m.name == "obs.gather_ms" && isServiceWorkload(w):
		return "service jobs hide the obs recorder (ROADMAP item 4): only transport counters and bench spans exist"
	case strings.HasPrefix(m.name, "netcomm.") && !isTCPWorkload(w):
		return "native backend: no sockets, no frames"
	case strings.HasPrefix(m.name, "svc.") || strings.HasPrefix(m.name, "loadgen."):
		return "service workloads only"
	case m.name == "core.span.piece_sort_ms":
		return "plain comparator last level only; every workload runs a keyed or prefixed kernel"
	}
	return "span or value does not occur on this workload's code path"
}
