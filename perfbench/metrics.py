"""The benchmark's metrics, and which end-to-end metric each layer metric moves.

BENCHMARK.json lists the same names; a test keeps the two in step.
"""

from __future__ import annotations

import statistics

#: (name, unit, better, bound): what a user of hweyl sees, from untraced runs.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),      # the whole job list
    ("job_p50_s", "s", "lower", 0.25),   # median job
    ("job_p99_s", "s", "lower", 0.25),   # 99th-percentile job
    ("peak_rss_mb", "MB", "lower", 0.1),  # peak resident memory of the worker
    ("ok_ratio", "ratio", "higher", 0.01),  # jobs that passed their oracle
    ("setup_s", "s", "lower", 0.25),     # import hweyl.cli, fresh interpreter
)

_HOPF = "on hopf-type2 and hopf-type1"
_QUANT_MOVES = "wall_s " + _HOPF
_BIALG_MOVES = "job_p50_s and wall_s on classify-stream only"

#: (span, fields, what the metric should move).
LAYER_GROUPS = (
    ("params.mul", ("calls", "self_s", "pairs", "keep_ratio", "terms_max"),
     "wall_s, job_p50_s and peak_rss_mb on hopf-type2 (most) and hopf-type1; "
     "nothing on classify-stream"),
    ("params.add", ("calls", "self_s"), "wall_s " + _HOPF),
    ("freealg.normal_form", ("calls", "self_s", "terms_in", "terms_out"),
     "wall_s on hopf-type1 most"),
    ("freealg.nc_mul", ("calls", "self_s"), "wall_s on hopf-type1 most"),
    ("freealg.check_confluence", ("total_s",), "set-up inside each job " + _HOPF),
    ("freealg.exp_matrix2", ("total_s",), "set-up inside each job " + _HOPF),
    ("tensor.tensor_mul", ("calls", "self_s", "terms_out"),
     "the verify share of wall_s " + _HOPF),
    ("tensor.outer", ("calls", "self_s"), "the verify share of wall_s " + _HOPF),
    ("quantization.family_rewrite", ("total_s", "self_s"), _QUANT_MOVES),
    ("quantization.build_coproduct", ("total_s", "self_s"), _QUANT_MOVES),
    ("quantization.solve_antipode", ("total_s", "self_s"),
     "wall_s on hopf-type2 by up to its 40-60% share, less on hopf-type1"),
    ("quantization.verify_homomorphism", ("total_s", "self_s"), _QUANT_MOVES),
    ("quantization.verify_coassoc", ("total_s", "self_s"), _QUANT_MOVES),
    ("quantization.verify_counit", ("total_s", "self_s"), _QUANT_MOVES),
    ("quantization.verify_antipode", ("total_s", "self_s"), _QUANT_MOVES),
    ("quantization.first_order_residuals", ("total_s", "self_s"), _QUANT_MOVES),
    ("quantization.central_element", ("total_s", "self_s"), "wall_s on hopf-type1"),
    ("quantization.check_realization", ("total_s", "self_s"), "wall_s on hopf-type1"),
    ("quantization.to_json", ("total_s",), _QUANT_MOVES),
    ("bialgebra.classify", ("calls", "total_s", "self_s"), _BIALG_MOVES),
    ("bialgebra.cojacobi_residuals", ("calls", "total_s", "self_s"), _BIALG_MOVES),
    ("bialgebra.apply_automorphism", ("calls", "total_s", "self_s"), _BIALG_MOVES),
    ("bialgebra.find_rmatrix", ("calls", "total_s", "self_s"), _BIALG_MOVES),
    ("bialgebra.schouten", ("calls", "total_s", "self_s"), _BIALG_MOVES),
    ("bialgebra.mcybe_check", ("calls", "total_s", "self_s"), _BIALG_MOVES),
    ("poisson.jacobi_check", ("total_s",), "job_p99_s on classify-stream"),
    ("poisson.poisson_homomorphism_check", ("total_s",),
     "job_p99_s on classify-stream"),
    ("cli.main", ("self_s",),
     "parsing and rendering: under 1% of both hopf workloads, recorded to show that"),
    ("trace", ("overhead_ratio",), "nothing: traced wall_s / untraced wall_s"),
)

_UNIT = {"calls": "count", "pairs": "count", "terms_max": "count",
         "terms_in": "count", "terms_out": "count", "keep_ratio": "ratio",
         "overhead_ratio": "ratio", "self_s": "s", "total_s": "s"}


def per_layer():
    """(name, unit, better) of every per-layer metric."""
    return tuple((f"{span}.{field}", _UNIT[field],
                  "higher" if field == "keep_ratio" else "lower")
                 for span, fields, _ in LAYER_GROUPS for field in fields)


#: Median time of worker.reference_kernel on the development machine (2 vCPUs,
#: x86-64, CPython 3.11.7), so calibrated seconds read about as raw seconds
#: there.
REF_S = 0.015


#: Reference samples on each side of a job that calibrate it.
REF_WINDOW = 2


def calibrated(seconds, ref_samples):
    """Seconds scaled to the machine speed at which the reference kernel takes
    REF_S, using the median of the reference samples taken alongside."""
    return seconds * REF_S / statistics.median(ref_samples)


def calibrated_jobs(timing):
    """A pass's job times, each calibrated by the reference samples nearest it."""
    refs = timing["ref_s"]
    return [calibrated(t, refs[max(0, k - REF_WINDOW):k + REF_WINDOW + 1])
            for t, k in zip(timing["job_s"], timing["ref_of"])]


def end_to_end_values(probes, passes, ok_ratio, peak_rss_mb):
    """End-to-end values from untraced passes, from calibrated job times.

    A shared machine changes speed by tens of percent, within a pass and over
    stretches longer than a run.  The reference kernel timed between jobs
    changes speed with it, so each job time is calibrated by the reference
    samples taken nearest to it.  A job's time is its median over the passes;
    wall_s is the sum over jobs and the percentiles are taken over jobs.
    """
    table = [calibrated_jobs(timing) for timing in passes]
    per_job = [statistics.median(col) for col in zip(*table)]
    return {
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "job_p99_s": statistics.quantiles(per_job, n=100, method="inclusive")[98],
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": ok_ratio,
        "setup_s": statistics.median(calibrated(i, [r]) for i, r in probes),
    }


def per_layer_values(traced, untraced_wall_s):
    """Per-layer values from the traced pass's span summary and counters."""
    summary, counters = traced["summary"], traced["counters"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    pairs = counters.get("params.mul.pairs", 0)
    out = {}
    for span, fields, _ in LAYER_GROUPS:
        rec = summary.get(span, zero)
        for field in fields:
            name = f"{span}.{field}"
            if field in rec:
                value = rec[field]
            elif field == "keep_ratio":
                value = counters.get("params.mul.kept", 0) / pairs if pairs else 0.0
            elif field == "overhead_ratio":
                value = traced["wall_s"] / untraced_wall_s
            else:
                value = counters.get(name, 0)
            out[name] = value
    return out
