"""Per-layer metrics derived from one traced pass.

``_s`` metrics are self time in seconds, summed over the spans named;
``_calls`` count spans; the rest are counts kept by the probes below,
at the same call boundaries.  ``channels.apply_channel_madds`` is
computed from shapes, not measured: the complex multiply-adds of one
per-Kraus contraction over the whole matrix per block, as the sitewise
kernel is written.
"""

from __future__ import annotations

import math
from collections import defaultdict

from spans import self_times

DENSITY_SPANS = tuple(
    f"sources.{cls}.density"
    for cls in ("IIDSource", "ClassicallyCorrelatedSource", "ChannelTransformedSource")
)
CHECK_SPANS = tuple(
    f"sources.{fn}"
    for fn in ("check_consistency", "check_stationarity", "check_n_consistency", "check_n_stationarity")
)

# metric -> span names whose self time it sums; a name ending in "." is a prefix
SELF_TIME = {
    "operators.validate_density_s": ("operators.validate_density",),
    "operators.observables_s": ("operators.random_observable", "operators.word_projector"),
    "operators.trace_pairing_s": ("operators.trace_pairing",),
    "channels.apply_channel_s": ("channels.apply_channel",),
    "channels.apply_dual_s": ("channels.apply_dual",),
    "sources.density_s": DENSITY_SPANS,
    "sources.source_correlation_s": ("sources.source_correlation",),
    "sources.checks_s": CHECK_SPANS,
    "sources.source_block_mean_s": ("sources.source_block_mean",),
    "classical.correlation_sweep_s": ("classical.classical_correlation_sweep",),
    "classical.classify_process_s": ("classical.classify_process",),
    # statistics, verdicts and fits: everything ergodicity does itself
    "ergodicity.sweep_report_s": ("ergodicity.",),
    "ergodicity.fit_decay_s": ("ergodicity.fit_decay",),
    "runner.load_s": ("runner.ExperimentConfig.from_json", "runner.ExperimentConfig.from_dict"),
    "runner.build_source_s": ("runner.build_source",),
    "runner.run_experiment_s": ("runner.run_experiment",),
    "runner.emit_report_s": ("runner.emit_report",),
}

# metric -> span names whose calls it counts
CALLS = {
    "operators.validate_density_calls": ("operators.validate_density",),
    "channels.apply_channel_calls": ("channels.apply_channel",),
    "channels.apply_dual_calls": ("channels.apply_dual",),
    "sources.density_calls": DENSITY_SPANS,
    "classical.correlation_sweep_calls": ("classical.classical_correlation_sweep",),
}

# metric -> unit of the counts kept by probes or by the benchmark's file scan
COUNTS = {
    "operators.validate_density_max_side": "rows",
    "channels.apply_channel_madds": "madd",
    "sources.density_max_side": "rows",
    "sources.correlation_values": "count",
    "classical.gap_steps": "count",
    "ergodicity.pairs": "count",
    "runner.emit_bytes": "bytes",
    "runner.csv_rows": "rows",
}

OVERHEAD = "trace.overhead_s"


def _raise_to(counts, key: str, value) -> None:
    counts[key] = max(counts[key], value)


def _validate_density(counts, args, result) -> None:
    _raise_to(counts, "operators.validate_density_max_side", args["op"].dim)


def _density(counts, args, result) -> None:
    _raise_to(counts, "sources.density_max_side", result.dim)


def _apply_channel(counts, args, result) -> None:
    channel, rho = args["channel"], args["rho"]
    block_sites = round(math.log(channel.dim) / math.log(rho.site_dim))
    blocks = rho.sites // block_sites
    counts["channels.apply_channel_madds"] += blocks * len(channel) * rho.dim**2 * channel.dim**2


def _source_correlation(counts, args, result) -> None:
    counts["sources.correlation_values"] += len(result)


def _correlation_sweep(counts, args, result) -> None:
    gaps = args["gaps"]
    if args["process"].kind == "markov" and len(gaps):
        counts["classical.gap_steps"] += int(max(gaps)) + 1


def _sweep_report(counts, args, result) -> None:
    counts["ergodicity.pairs"] += len(result.pairs)


PROBES = {
    "operators.validate_density": _validate_density,
    **{name: _density for name in DENSITY_SPANS},
    "channels.apply_channel": _apply_channel,
    "sources.source_correlation": _source_correlation,
    "classical.classical_correlation_sweep": _correlation_sweep,
    "ergodicity.sweep_report": _sweep_report,
}


def units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    out = {}
    for name in SELF_TIME:
        out[name] = "s"
    for name in CALLS:
        out[name] = "count"
    out.update(COUNTS)
    out[OVERHEAD] = "s"
    return out


def _selected(name: str, patterns) -> bool:
    return any(name.startswith(p) if p.endswith(".") else name == p for p in patterns)


def layer_metrics(spans, counts) -> dict:
    """Every per-layer metric except the tracing overhead, from one traced pass."""
    times = self_times(spans)
    out = {}
    for metric, patterns in SELF_TIME.items():
        out[metric] = sum(t for name, t in times.items() if _selected(name, patterns))
    for metric, names in CALLS.items():
        out[metric] = sum(counts.get(name + ".calls", 0) for name in names)
    for metric in COUNTS:
        out[metric] = counts.get(metric, 0)
    return out


def layer_self_times(spans, trace_prefix: str) -> dict:
    """Self time per layer over the spans whose trace starts with trace_prefix."""
    out = defaultdict(float)
    for name, t in self_times([s for s in spans if s.trace.startswith(trace_prefix)]).items():
        out[name.split(".", 1)[0]] += t
    return dict(out)
