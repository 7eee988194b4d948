"""Benchmark of the hweyl engine: time to a verified result at a stated order K.

    python3 perfbench/run.py --workload hopf-type2 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it needs ``src/hweyl``).  The job
list is made from the seed (see jobs.py) and run in a fresh worker
interpreter, one client, closed loop.  Every output is checked by an exact
oracle (oracle.py) that does not come from the code under test.

With ``--trace 0`` the last line of stdout is the end-to-end metrics; with
``--trace 1`` it is the per-layer metrics of a traced pass (spans.py).  Each
run also writes a result file with an environment block and the sha256
digest of all job outputs under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS, make_jobs  # noqa: E402
from metrics import (END_TO_END, end_to_end_values, per_layer,  # noqa: E402
                     per_layer_values)
from oracle import check  # noqa: E402

#: Fresh interpreters timed for setup_s, after one that fills the bytecode cache.
SETUP_PROBES = 7
#: Every run must end within 180 s.
WORKER_TIMEOUT_S = 160


def _git_sha(root):
    """HEAD of the checkout when it is a git repository, read from .git only."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(root):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "cpu": platform.processor() or platform.machine(),
            "platform": platform.platform(),
            "git_sha": _git_sha(root)}


def _python(args, env, timeout, stdin=None):
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          input=stdin, env=env, capture_output=True, text=True,
                          timeout=timeout, check=True).stdout


def setup_probes(env):
    """(import seconds, reference seconds) from fresh interpreters."""
    _python(["--import-only"], env, 60)
    return [json.loads(_python(["--import-only"], env, 60))
            for _ in range(SETUP_PROBES)]


def digest(outputs):
    sha = hashlib.sha256()
    for text in outputs:
        sha.update(text.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "hweyl" / "__init__.py").is_file():
        sys.stderr.write(f"no hweyl sources under {src}; run from a source checkout\n")
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    jobs = make_jobs(args.workload, args.seed)
    spec = {"jobs": [job["run"] for job in jobs], "seconds": args.seconds,
            "trace": args.trace, "spans": str(out_dir / f"spans-{args.workload}.bin")}
    try:
        probes = [] if args.trace else setup_probes(env)
        report = json.loads(_python([], env, WORKER_TIMEOUT_S, json.dumps(spec)))
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"worker did not finish within {WORKER_TIMEOUT_S} s\n")
        return 1
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(f"worker failed:\n{exc.stderr}\n")
        return 1

    # Every execution of a job fails when its recorded output fails the
    # oracle; otherwise only the executions whose output changed fail.
    runs_per_job = len(report["passes"]) + (1 if args.trace else 0)
    reasons = {}
    failed = 0
    for i, (job, output) in enumerate(zip(jobs, report["outputs"])):
        reason = check(job["expect"], output)
        if reason:
            reasons[i] = reason
            failed += runs_per_job
        else:
            failed += report["mismatches"][i]
        if report["mismatches"][i]:
            reasons.setdefault(i, "output changed between passes")
    attempted = len(jobs) * runs_per_job
    if args.trace:
        values = per_layer_values(report["traced"], sum(report["passes"][0]["job_s"]))
        units = {name: unit for name, unit, _ in per_layer()}
    else:
        values = end_to_end_values(probes, report["passes"],
                                   1 - failed / attempted, report["peak_rss_mb"])
        units = {name: unit for name, unit, _, _ in END_TO_END}

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(root),
        "jobs": len(jobs), "passes": len(report["passes"]),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": {str(i): r for i, r in sorted(reasons.items())[:50]},
        "output_sha256": digest(report["outputs"]),
        "import_s_worker": report["import_s"], "setup_probes_s": probes,
        "passes_raw_s": report["passes"],
        "metrics": values,
    }
    if args.trace:
        result["traced"] = report["traced"]
    result_path = out_dir / f"{stem}.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs x "
          f"{runs_per_job} runs, {failed} failed, outputs sha256 "
          f"{result['output_sha256']}")
    for i, reason in sorted(reasons.items())[:5]:
        print(f"  job {i} failed: {reason}")
    print(f"result file: {result_path}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
