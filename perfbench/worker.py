"""Benchmark worker: a fresh interpreter that imports hweyl and runs a job list.

    python3 perfbench/worker.py            # spec on stdin, report on stdout
    python3 perfbench/worker.py --import-only

The spec is {"jobs": [...], "seconds": s, "trace": 0|1, "spans": path}.  With
trace 0 the worker runs whole passes over the job list until another pass
would overrun ``seconds``.  With trace 1 it runs one untraced pass and then
one traced pass, and reports per-span totals.  Each job's output is recorded
in the first pass; later passes only count jobs whose output changed.

Between jobs of an untraced pass the worker times a fixed reference kernel
that does not use hweyl.  Its median tells how fast the machine ran during
that pass, which calibrates the job times (see metrics.py).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from fractions import Fraction

#: A reference sample is taken before a job once this long has passed
#: since the previous one, so the samples cost about 5% of a pass.
REF_EVERY_S = 0.25


def reference_kernel():
    """Fixed pure-Python work like the engine's inner loops: sparse products
    of Fraction-valued dicts with tuple keys, truncated by total degree."""
    a = {(i, j, 0): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    b = {(0, j, i): Fraction(j - 3, i + 1) for i in range(6) for j in range(6)}
    out = {}
    for _ in range(2):
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                if sum(k1) + sum(k2) > 12:
                    continue
                key = tuple(x + y for x, y in zip(k1, k2))
                out[key] = out.get(key, 0) + c1 * c2
    return out


def time_reference():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def _import_hweyl():
    """Seconds to import hweyl and its CLI, as every command-line call does."""
    t0 = time.perf_counter()
    import hweyl.cli  # noqa: F401
    return time.perf_counter() - t0


def import_probe():
    """(import seconds, median reference seconds right after the import)."""
    import_s = _import_hweyl()
    return import_s, sorted(time_reference() for _ in range(5))[2]


def _run_cli(argv):
    from hweyl import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return json.dumps({"rc": rc, "out": out.getvalue(), "err": err.getvalue()})


def _run_classify(text, poisson):
    """from_json -> classify; schouten and mCYBE on a recovered r-matrix;
    the Poisson checks when the job asks for them."""
    from hweyl import bialgebra as bi, poisson as po
    delta = bi.Cocommutator.from_json(json.loads(text))
    result = bi.classify(delta)
    doc = {"class": result.tag}
    if result.tag == bi.INVALID:
        doc["failures"] = {
            "cocycle": [list(pair) for pair in result.failures.get("cocycle", ())],
            "cojacobi": [str(v) for v in result.failures.get("cojacobi", ())]}
    else:
        doc["normalized"] = result.normalized.to_json()
        doc["automorphism"] = [[str(v) for v in row] for row in result.automorphism]
        doc["coboundary"] = result.coboundary
        if result.coboundary:
            doc["rmatrix"] = result.rmatrix.to_json()
            doc["mcybe"] = bi.mcybe_check(bi.schouten(result.rmatrix))
    if poisson:
        ps = po.PoissonStructure.from_cocommutator(delta)
        doc["jacobi"] = str(po.jacobi_check(ps))
        doc["homomorphism"] = {k: str(v) for k, v in
                               sorted(po.poisson_homomorphism_check(ps).items())}
    return json.dumps(doc, sort_keys=True)


def run_job(run):
    """The job's output as text; an exception is recorded, not raised."""
    try:
        if "cli" in run:
            return _run_cli(run["cli"])
        return _run_classify(run["delta"], run["poisson"])
    except Exception as exc:  # a failing job must not stop the run
        return json.dumps({"raised": f"{type(exc).__name__}: {exc}"})


def run_pass(runs, tracer=None, calibrate=True):
    """One pass over ``runs``: {"job_s", "ref_s", "ref_of"} and the outputs.

    ``ref_of[i]`` is the index in ``ref_s`` of the last reference sample
    taken before job i.
    """
    gc.collect()
    times, outputs, refs, ref_of = [], [], [], []
    clock = time.perf_counter
    last_ref = float("-inf")
    for i, run in enumerate(runs):
        if calibrate and clock() - last_ref >= REF_EVERY_S:
            refs.append(time_reference())
            last_ref = clock()
        ref_of.append(len(refs) - 1)
        if tracer is not None:
            tracer.current_job = i
        t0 = clock()
        outputs.append(run_job(run))
        times.append(clock() - t0)
    return {"job_s": times, "ref_s": refs, "ref_of": ref_of}, outputs


def work(spec):
    runs, seconds = spec["jobs"], spec["seconds"]
    report = {"import_s": _import_hweyl(), "passes": []}
    first = None
    mismatches = [0] * len(runs)

    def record(outputs):
        nonlocal first
        if first is None:
            first = outputs
            return
        for i, (a, b) in enumerate(zip(first, outputs)):
            if a != b:
                mismatches[i] += 1

    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        timing, outputs = run_pass(runs)
        report["passes"].append(timing)
        record(outputs)
        now = time.perf_counter()
        if spec["trace"] or (now - started) + (now - t0) > seconds:
            break

    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        with tracer:
            t0 = tracer.clock()
            timing, outputs = run_pass(runs, tracer, calibrate=False)
            clean_wall = tracer.clock() - t0
        record(outputs)
        report["traced"] = {"wall_s": sum(timing["job_s"]), "clean_wall_s": clean_wall,
                            "spans": len(tracer.name),
                            "summary": tracer.summary(),
                            "counters": tracer.counters}
        tracer.dump(spec["spans"])

    report["outputs"] = first
    report["mismatches"] = mismatches
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return report


def main():
    if sys.argv[1:] == ["--import-only"]:
        print(json.dumps(import_probe()))
        return 0
    spec = json.load(sys.stdin)
    json.dump(work(spec), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
