//! The names every later performance or simplicity change is judged by.
//!
//! `BENCHMARK.json` at the repo root lists the same names;
//! `tests/names.rs` keeps the two in step.

/// A metric a user of `tables` pays for, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
/// Lower is better for all of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// The end-to-end metrics, measured with tracing off.
///
/// `trial_s`, `setup_s` and `peak_rss_mb` are host readings; `rounds` and
/// `wire_bits` are simulated, repeat exactly, and may not move at all.
///
/// The two timing bounds are as wide as a bound may be. On the 2-core
/// sandbox this was sized on, whole runs drift together with the host: the
/// same binary and seed, run back to back, read 2.7 s and then 3.4 s on
/// `sqrt-clean`, and the medians of two ten-run sets taken twenty minutes
/// apart differ by 10–18 %. No statistic taken inside one run removes that;
/// `README.md` has the numbers.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "trial_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.05,
    },
    EndToEnd {
        name: "rounds",
        unit: "count",
        bound: 0.0,
    },
    EndToEnd {
        name: "wire_bits",
        unit: "count",
        bound: 0.0,
    },
];

/// A metric of one layer, from the traced run. No bound: these explain a
/// move in an end-to-end metric, they are not judged themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    /// Metric name, prefixed with the module it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "higher",
    }
}

/// The per-layer metrics: spans and counts of the traced trials first, then
/// the probes, then the shares derived from both.
pub const PER_LAYER: [Layer; 48] = [
    lower("trace.trial_s", "s"),
    lower("bench.instance_s", "s"),
    lower("netsim.network_new_s", "s"),
    lower("core.protocols.session_open_s", "s"),
    lower("core.protocols.step_s", "s"),
    lower("core.protocols.step_p50_ms", "ms"),
    lower("core.protocols.step_tail_ms", "ms"),
    higher("core.protocols.step_tail_pct", "%"),
    lower("core.protocols.step_max_ms", "ms"),
    lower("core.protocols.self_s", "s"),
    lower("adversary.act_s", "s"),
    lower("adversary.act_calls", "count"),
    lower("adversary.edges_per_round", "count"),
    lower("adversary.share", "ratio"),
    lower("netsim.frames_sent", "count"),
    lower("netsim.frames_corrupted", "count"),
    lower("netsim.host_ns_per_frame", "ns"),
    higher("core.routing.cache_hits", "count"),
    lower("core.routing.cache_misses", "count"),
    lower("bench.check_s", "s"),
    lower("bench.cold_trial_s", "s"),
    lower("proc.cpu_s", "s"),
    higher("proc.cpu_per_wall", "ratio"),
    lower("snapshot.encode_ms", "ms"),
    lower("snapshot.restore_ms", "ms"),
    lower("snapshot.bytes", "B"),
    higher("trace.coverage_frac", "ratio"),
    lower("trace.overhead_frac", "ratio"),
    lower("codes.gf_axpy_ns_per_elem", "ns"),
    lower("codes.rs_encode_ns_per_sym", "ns"),
    lower("codes.rs_decode_clean_ns_per_sym", "ns"),
    lower("codes.rs_decode_erasure_ns_per_sym", "ns"),
    lower("codes.rs_decode_error_ns_per_sym", "ns"),
    lower("bits.pack_ns_per_sym", "ns"),
    lower("netsim.traffic_fill_ns_per_frame", "ns"),
    lower("netsim.exchange_dense_ns_per_frame", "ns"),
    lower("netsim.inbox_walk_ns_per_frame", "ns"),
    lower("netsim.store_bytes_per_frame_dense", "B"),
    lower("netsim.exchange_sparse_ns_per_frame", "ns"),
    lower("netsim.store_bytes_per_frame_sparse", "B"),
    lower("adversary.matchings_us_per_round", "us"),
    lower("adversary.greedy_us_per_round", "us"),
    lower("core.routing.route_s", "s"),
    lower("core.routing.session_open_ms", "ms"),
    lower("core.routing.route_rounds", "count"),
    lower("core.routing.decode_failures", "count"),
    lower("codes.encode_share_pred", "ratio"),
    lower("netsim.exchange_share_pred", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reading, with all its digits.
    pub value: f64,
}

/// Whether `name` is fit to be a metric or workload name: letters, digits,
/// `_`, `.` and `-`, starting with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}
