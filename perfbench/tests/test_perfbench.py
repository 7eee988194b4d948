"""Tests of the benchmark harness: generators, transport, oracles and tracer."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
from run import digest  # noqa: E402
from spans import METHODS, Tracer  # noqa: E402

from hweyl import bialgebra as bi  # noqa: E402
from hweyl import quantization as qu  # noqa: E402


def test_same_seed_same_job_list():
    for workload in jobs.WORKLOADS:
        first = jobs.make_jobs(workload, 7)
        assert first == jobs.make_jobs(workload, 7)
        assert first != jobs.make_jobs(workload, 8)


def test_transport_agrees_with_apply_automorphism():
    rng = random.Random(1)
    for _ in range(200):
        delta = jobs.delta_of(**{n: jobs.draw(rng) for n in jobs.COEFFS})
        b = jobs.random_automorphism(rng)
        assert jobs.is_automorphism(b)
        engine = bi.apply_automorphism(bi.Cocommutator(**delta), b)
        assert jobs.transport(delta, b) == engine.coefficients()


def test_transport_of_the_swap_maps_type_i_plus_to_type_i_minus():
    rep = jobs.delta_of(a1=2, a3=Fraction(-1, 3))
    swapped = jobs.transport(rep, bi.SWAP_AUTOMORPHISM)
    assert swapped == jobs.delta_of(b1=-2, b2=Fraction(1, 3))


def test_stream_oracle_accepts_engine_and_rejects_tampering():
    stream = jobs.make_jobs("classify-stream", 3)
    picked = {}
    for job in stream:
        key = (tuple(job["expect"]["orbit"]), job["expect"]["coboundary"],
               job["expect"]["invalid"], job["expect"]["poisson"])
        picked.setdefault(key, job)
    assert len(picked) >= 6
    for job in picked.values():
        output = worker.run_job(job["run"])
        assert oracle.check(job["expect"], output) is None, job
        doc = json.loads(output)
        doc["class"] = jobs.TYPE_II if doc["class"] != jobs.TYPE_II else jobs.TRIVIAL
        assert oracle.check(job["expect"], json.dumps(doc)) is not None


def test_hopf_oracle_checks_closed_forms():
    for family, tag in (("type1plus", jobs.TYPE_I_PLUS),
                        ("type1minus", jobs.TYPE_I_MINUS), ("type2", jobs.TYPE_II)):
        job = jobs._cli_json(family, 3, tag)
        output = worker.run_job(job["run"])
        assert oracle.check(job["expect"], output) is None
        doc = json.loads(output)
        hopf = json.loads(doc["out"])
        gen = {"TYPE_I_PLUS": "M", "TYPE_I_MINUS": "M", "TYPE_II": "A-"}[tag]
        hopf["coproduct"][gen] = hopf["coproduct"][gen].replace("1 (x)", "2*1 (x)", 1)
        doc["out"] = json.dumps(hopf)
        assert "coproduct" in oracle.check(job["expect"], json.dumps(doc))


def _profile_counts(fn):
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            counts[(frame.f_globals.get("__name__"), code.co_qualname)] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def test_traced_counts_match_an_independent_profiler():
    run = lambda: qu.quantize(bi.TYPE_I_PLUS, order=3)
    profiled = _profile_counts(run)
    with Tracer() as tracer:
        run()
    summary = tracer.summary()
    methods = {span: f"{cls}.{attr}" for _, cls, attr, span in METHODS}
    seen = 0
    for span, rec in summary.items():
        layer, name = span.split(".", 1)
        key = (f"hweyl.{layer}", methods.get(span, name))
        assert rec["calls"] == profiled[key], span
        seen += rec["calls"] > 0
    assert seen >= 15 and summary["params.mul"]["calls"] > 1000
    assert summary["freealg.normal_form"]["calls"] > 0


def test_traced_and_untraced_outputs_have_one_digest():
    runs = [job["run"] for job in jobs.make_jobs("classify-stream", 5)[:40]]
    runs += [{"cli": ["quantize", "--family", "type2", "--order", "3",
                      "--format", "json"]},
             {"cli": ["quantize", '{"a1": "1", "a3": "2"}', "--order", "3"]},
             {"cli": ["realize", "--degree", "3", "--order", "3", "--format", "json"]}]
    _, plain = worker.run_pass(runs, calibrate=False)
    with Tracer() as tracer:
        _, traced = worker.run_pass(runs, tracer, calibrate=False)
    assert digest(plain) == digest(traced)
    assert tracer.summary()["cli.main"]["calls"] == 3
    assert set(tracer.job) == set(range(len(runs)))


def test_calibration_scales_by_the_nearest_reference_samples():
    timing = {"job_s": [1.0, 2.0, 3.0], "ref_s": [metrics.REF_S] * 3
              + [metrics.REF_S / 2] * 5, "ref_of": [0, 1, 7]}
    assert metrics.calibrated_jobs(timing)[:2] == [1.0, 2.0]
    assert metrics.calibrated_jobs(timing)[2] == 6.0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(metrics.per_layer())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hopf-type2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
