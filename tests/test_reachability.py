"""Every function and method defined in ``src/hweyl`` is entered by the traffic
of its commands and benchmark workloads, or is on ``ALLOWED``, by kind, with a
reason.

The traffic (``traffic``) is:

- every golden command line (``test_golden.CASES``);
- every malformed command line of ``test_cli.MALFORMED_COMMAND_LINES``, through
  the console entry point, as the installed ``hweyl`` runs it;
- every job of the hopf-type2 and hopf-type1 workloads and the first 300 jobs
  of classify-stream at seed 1, as the benchmark worker runs them.

It runs in a fresh interpreter under ``sys.setprofile``, set before ``hweyl``
is imported, so code that runs at import and the parts built once per process
(the argument parser, the group-law plans) are entered as in any ``hweyl``
run, whatever ran before in the test process.

The functions are read off the AST, nested functions and dunders included,
and keyed by file and first line, which is the line of the first decorator,
as ``co_firstlineno`` reads it.  So two methods of one name are two entries:
a check by name passes a method whose name another function shares.  The key
needs no ``co_qualname``, which Python 3.10 lacks.

Run as a script (``python tests/test_reachability.py``), the module traces the
traffic and prints the entered keys and the traced seconds as JSON.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hweyl"
SOURCES = sorted(PACKAGE.glob("*.py"))

#: The functions that no traffic enters, by kind, each with its reason.
ALLOWED = {
    "copy and pickle": {
        "params.Record.__reduce__": "copy and pickle rebuild a record through its "
                                    "constructor; no command copies one",
        "params.ParamPoly.__reduce__": "copy and pickle of a polynomial",
        "params._restore": "rebuilds a polynomial for copy and pickle",
        "freealg.LinearSum.__reduce__": "copy and pickle of an element",
        "tensor.TensorElement.__reduce__": "copy and pickle of a tensor",
        "poisson.PoissonStructure.__reduce__": "copy and pickle of a structure, which "
                                               "keeps only numerators",
    },
    "immutability refusals": {
        "params.Record.__setattr__": "refuses an assignment to a record",
        "params._refuse": "refuses an assignment to ParamPoly.order or .names",
        "freealg.LinearSum.__setattr__": "refuses an assignment to an element",
    },
    "input guards no command reaches": {
        "params._check_fields": "a product of untruncated polynomials that would carry "
                                "past an exponent field; the bounds of --order and "
                                "--degree refuse every such input first",
    },
    "__repr__ and the __str__ it calls": {
        "params.ParamPoly.__repr__": "debugging display",
        "freealg.FreeElement.__repr__": "debugging display",
        "freealg.LinearSum.__str__": "called by the __repr__ of FreeElement and "
                                     "TensorElement; the commands print through _text",
        "tensor.TensorElement.__repr__": "debugging display",
        "bialgebra.Cocommutator.__repr__": "debugging display",
        "bialgebra.Cocommutator.__str__": "called by Cocommutator.__repr__",
        "bialgebra.BialgebraClass.__repr__": "debugging display",
        "quantization.HopfPresentation.__repr__": "debugging display",
    },
    "planned users": {
        "quantization.swap_transport": "the I+/I- duality of ROADMAP item 4; a CI step "
                                       "runs it at K = 40",
        "quantization.HopfPresentation.from_json": "ROADMAP item 20 reads a "
                                                   "presentation back",
        "bialgebra.cojacobi_residuals": "leaves with its perfbench metric (ROADMAP "
                                        "item 2a)",
        "bialgebra.Cocommutator.coefficients": "perfbench's own test calls it, and that "
                                               "file changes only with the benchmark",
    },
}


def defined(path):
    """{first line: dotted name} of every function defined in the source at
    ``path``, nested ones included; the name starts with the module's."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[line] = prefix + child.name
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem + ".")
    return out


def entered(run):
    """The (resolved file, first line) of every function that ``run()``
    enters, read by a profile hook."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def missed(paths, keys):
    """Dotted names of the functions defined in ``paths`` whose key is not
    among the entered ``keys``."""
    return {name for path in paths for line, name in defined(path).items()
            if (str(path.resolve()), line) not in keys}


def gate(unentered, allowed):
    """(the unentered functions that are not allowed, the allowed names that
    are not among the unentered: entered, or no longer defined)."""
    names = {name for kind in allowed.values() for name in kind}
    return unentered - names, names - unentered


# -- the traffic ------------------------------------------------------------------

def job_lists():
    """The benchmark jobs of the traffic, built before tracing: the
    generators do not import ``hweyl``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import jobs
    return [[job["run"] for job in jobs.make_jobs(workload, 1)[:count]]
            for workload, count in (("hopf-type2", None), ("hopf-type1", None),
                                    ("classify-stream", 300))]


def traffic(runs):
    """The golden and malformed command lines and the benchmark ``runs``;
    ``hweyl`` is imported here, under the trace."""
    import worker
    from test_cli import MALFORMED_COMMAND_LINES
    from test_golden import CASES, run
    from hweyl import cli

    for argv in CASES.values():
        run(argv)
    for argv in MALFORMED_COMMAND_LINES:
        sys.argv = ["hweyl", *argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.console_main()
            except SystemExit:
                pass
    for jobs in runs:
        for job in jobs:
            worker.run_job(job)


def main():
    import pytest  # noqa: F401  imported untraced, for test_cli
    runs = job_lists()
    t0 = time.perf_counter()
    keys = entered(lambda: traffic(runs))
    print(json.dumps({"seconds": time.perf_counter() - t0,
                      "package": str(Path(sys.modules["hweyl"].__file__).resolve().parent),
                      "entered": sorted(keys)}))


# -- the tests ----------------------------------------------------------------------

def test_every_function_is_entered_or_allowed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["package"] == str(PACKAGE.resolve())
    keys = {tuple(key) for key in report["entered"]}
    unallowed, stale = gate(missed(SOURCES, keys), ALLOWED)
    assert unallowed == set(), "entered by no command or workload"
    assert stale == set(), "allowed, but entered or not defined"


def test_every_allowed_entry_has_a_reason():
    for kind, names in ALLOWED.items():
        for name, reason in names.items():
            assert reason.strip(), (kind, name)


PLANTED = '''
def scale(x):
    return 2 * x


class Box:
    def scale(self, x):
        return 3 * x

    def __len__(self):
        return 0

    @property
    def size(self):
        def inner():
            return 1
        return inner()
'''


def planted_run(tmp_path, run):
    """Dotted names of the functions of the planted module that ``run``,
    given the module, does not enter."""
    path = tmp_path / "planted.py"
    path.write_text(PLANTED, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("planted", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return missed([path], entered(lambda: run(module)))


def test_a_method_sharing_the_name_of_an_entered_function_is_reported(tmp_path):
    unentered = planted_run(tmp_path, lambda m: m.scale(1))
    assert "planted.scale" not in unentered
    assert "planted.Box.scale" in unentered


def test_an_unentered_dunder_is_reported(tmp_path):
    unentered = planted_run(tmp_path, lambda m: m.Box().scale(1))
    assert "planted.Box.__len__" in unentered
    assert "planted.Box.scale" not in unentered


def test_decorated_and_nested_functions_are_keyed_by_their_first_line(tmp_path):
    assert planted_run(tmp_path, lambda m: m.Box().size) == {
        "planted.scale", "planted.Box.scale", "planted.Box.__len__"}
    assert planted_run(tmp_path, lambda m: None) >= {
        "planted.Box.size", "planted.Box.size.inner"}


def test_an_allowed_function_that_is_entered_is_stale(tmp_path):
    unentered = planted_run(tmp_path, lambda m: m.scale(1))
    allowed = {"planted users": {"planted.scale": "entered", "planted.Box.scale": "not"},
               "gone": {"planted.Box.renamed": "no longer defined"}}
    unallowed, stale = gate(unentered, allowed)
    assert unallowed == {"planted.Box.__len__", "planted.Box.size",
                         "planted.Box.size.inner"}
    assert stale == {"planted.scale", "planted.Box.renamed"}


if __name__ == "__main__":
    main()
