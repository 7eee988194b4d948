"""Command-line surface: classify, quantize, verify, coboundary, poisson, realize.

Exit codes: 0 all checks pass (or ``--help``); 1 a malformed command line
(argparse's own exit 2 is mapped to it), malformed or unreadable input, both
``--family`` and an input given to quantize, or a result with an integer past
the interpreter's print limit; 2 invalid bialgebra; 3 verification failure
(an engine regression guard).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from .params import DEFAULT_ORDER, MAX_ORDER, ParamPoly
from . import bialgebra as bi
from . import poisson as po
from . import quantization as qu

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_VERIFY = 3

_FAMILY_BY_NAME = {
    "type1plus": bi.TYPE_I_PLUS,
    "type1minus": bi.TYPE_I_MINUS,
    "type2": bi.TYPE_II,
    "trivial": bi.TRIVIAL,
}
_FAMILY_CHOICES = tuple(_FAMILY_BY_NAME) + ("all",)
#: The families that ``--family all`` covers: those with parameters.
_DEFORMED = [tag for tag, (params, _, _) in bi.FAMILIES.items() if params]


def _out(line=""):
    sys.stdout.write(line + "\n")


def _err(message):
    sys.stderr.write(message + "\n")


def _emit_json(doc):
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _load_json_arg(arg):
    """The JSON in the file at path ``arg``, or ``arg`` itself as inline JSON.

    An argument that names no existing path and does not parse is reported
    as a missing file, unless it opens like a JSON object or array; a path
    that cannot be read (a directory, say) raises ``OSError`` naming it.
    """
    from_file = os.path.exists(arg)
    text = arg
    if from_file:
        try:
            text = Path(arg).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"input file {arg!r} is not UTF-8 text") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if not from_file and not arg.lstrip().startswith(("{", "[")):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), arg) from None
        raise
    except ValueError:
        # a number literal past the interpreter's integer string limit,
        # reworded so that main does not take it for the output limit
        raise ValueError(f"a JSON number has more than {sys.get_int_max_str_digits()} "
                         "digits") from None


def _load_delta(arg):
    """The cocommutator given on the command line; no input is the zero map."""
    return bi.Cocommutator.from_json({} if arg is None else _load_json_arg(arg))


def _render_automorphism(matrix):
    pieces = []
    for j, name in enumerate(bi.BASIS):
        terms = []
        for i, base in enumerate(bi.BASIS):
            c = matrix[i][j]
            if not c:
                continue
            if c == 1:
                body = base
            elif c == -1:
                body = f"-{base}"
            elif c.denominator == 1:
                body = f"{c}*{base}"
            else:
                body = f"({c})*{base}"
            terms.append(body if not terms or body.startswith("-")
                         else f"+{body}")
        pieces.append(f"{name} -> {' '.join(terms) if terms else '0'}")
    return ", ".join(pieces)


def _render_wedge3(t):
    """Alternating rank-3 tensors as a multiple of (M ^ A+ ^ A-)."""
    if not t:
        return "0"
    coeff = t.terms.get((("M",), ("A+",), ("A-",)))
    if coeff is None or not t.is_alternating():
        return str(t)
    s = str(coeff)
    if s == "1":
        return "(M ^ A+ ^ A-)"
    if s == "-1":
        return "-(M ^ A+ ^ A-)"
    if len(coeff.terms) == 1:
        return f"{s}*(M ^ A+ ^ A-)"
    return f"({s})*(M ^ A+ ^ A-)"


def _classification_doc(result):
    doc = {"class": result.tag}
    if result.tag == bi.INVALID:
        failures = {}
        if "cocycle" in result.failures:
            failures["cocycle_pairs"] = [
                f"[{x},{y}]" for x, y in result.failures["cocycle"]]
        if "cojacobi" in result.failures:
            failures["cojacobi"] = [str(v) for v in result.failures["cojacobi"]]
        doc["failures"] = failures
        return doc
    doc["normalized"] = result.normalized.to_json()
    doc["automorphism"] = [[str(v) for v in row] for row in result.automorphism]
    doc["coboundary"] = result.coboundary
    doc["rmatrix"] = result.rmatrix.to_json() if result.rmatrix else None
    return doc


def run_classify(args):
    delta = _load_delta(args.input)
    result = bi.classify(delta)
    if args.format == "json":
        _emit_json(_classification_doc(result))
    else:
        _out(f"class: {result.tag}")
        if result.tag == bi.INVALID:
            if "cocycle" in result.failures:
                pairs = ", ".join(f"[{x},{y}]" for x, y in result.failures["cocycle"])
                _out(f"cocycle residual nonzero on: {pairs}")
            if "cojacobi" in result.failures:
                vals = ", ".join(str(v) for v in result.failures["cojacobi"])
                _out(f"cojacobi residuals: ({vals})")
        else:
            _out(f"normalized: {result.normalized}")
            _out(f"automorphism: {_render_automorphism(result.automorphism)}")
            _out(f"coboundary: {'yes' if result.coboundary else 'no'}")
            if result.coboundary:
                free = ", ".join(bi.rmatrix_gauge())
                _out(f"r-matrix: xi = {result.rmatrix.xi} ({free} free)")
    return EXIT_OK if result.tag != bi.INVALID else EXIT_INVALID


def run_quantize(args):
    if args.family and args.input is not None:
        _err("give either --family or an input, not both")
        return EXIT_PARSE
    classification = None
    if args.family:
        family = _FAMILY_BY_NAME[args.family]
    else:
        delta = _load_delta(args.input)
        classification = bi.classify(delta)
        if classification.tag == bi.INVALID:
            _err("input is not a Lie bialgebra; run classify for the residuals")
            return EXIT_INVALID
        family = classification

    hp = qu.quantize(family, order=args.order)
    doc = hp.to_json()

    if args.format == "json":
        if classification is not None:
            doc["classification"] = _classification_doc(classification)
        _emit_json(doc)
        return EXIT_OK

    _out(f"family: {hp.family}")
    _out(f"order: {hp.order}")
    disp = doc["parameters"]
    if disp:
        _out("parameters: " + ", ".join(f"{k} = {v}" for k, v in sorted(disp.items())))
    if classification is not None:
        _out(f"automorphism: {_render_automorphism(classification.automorphism)}")
    forms = qu.closed_forms(hp)
    _out("closed form:")
    for section in ("coproduct", "relations", "antipode", "central_element"):
        for line in forms.get(section, ()):
            _out(f"  {line}")
    for section, lhs in (("relations", "{}"), ("coproduct", "Delta({})"),
                         ("counit", "eps({})"), ("antipode", "gamma({})")):
        _out(f"{section}:")
        for key, val in doc[section].items():
            _out(f"  {lhs.format(key)} = {val}")
    if "central_element" in doc:
        _out(f"central element: C = {doc['central_element']}")
    return EXIT_OK


def _verify_one(tag, order):
    hp = qu.quantize(tag, order=order, verify=False)
    return qu.verify_all(hp)


def run_verify(args):
    tags = [_FAMILY_BY_NAME[args.family]] if args.family != "all" else _DEFORMED
    results = {}
    for tag in tags:
        results[tag] = _verify_one(tag, args.order)
    ok = all(all(r.values()) for r in results.values())
    if args.format == "json":
        _emit_json({"order": args.order, "results": results, "pass": ok})
    else:
        for tag, report in results.items():
            _out(f"family {tag} at order {args.order}:")
            for axiom, good in report.items():
                _out(f"  {axiom}: {'PASS' if good else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def run_coboundary(args):
    if args.input is None:
        r = bi.RMatrix.symbolic(args.order)
    else:
        r = bi.RMatrix.from_json(_load_json_arg(args.input))
    sch = bi.schouten(r)
    mcybe = bi.mcybe_check(sch)
    # the classical YBE: [[r, r]] = 0, so r is triangular (only for xi = 0)
    cybe = not sch
    induced = bi.coboundary_delta(r)
    recovered = bi.find_rmatrix(induced)
    free = ", ".join(bi.rmatrix_gauge())
    if args.format == "json":
        _emit_json({
            "rmatrix": {k: str(v) for k, v in
                        (("xi", r.xi), ("beta_plus", r.beta_plus),
                         ("beta_minus", r.beta_minus))},
            "schouten": _render_wedge3(sch),
            "mcybe": mcybe,
            "cybe": cybe,
            "cocommutator": {k: str(v) for k, v in induced.coefficients().items()},
            "recovered_xi": str(recovered.xi) if recovered else None,
            "gauge": list(bi.rmatrix_gauge()),
        })
    else:
        _out(f"r-matrix: {r}")
        _out(f"schouten: {_render_wedge3(sch)}")
        _out(f"mcybe: {'PASS' if mcybe else 'FAIL'}")
        _out(f"cybe ([[r, r]] = 0, r triangular): {'yes' if cybe else 'no'}")
        _out(f"cocommutator: {induced}")
        if recovered is not None:
            _out(f"recovered r-matrix: xi = {recovered.xi} ({free} free)")
    return EXIT_OK if mcybe else EXIT_VERIFY


def _poisson_family_checks(tag, check):
    ps = po.PoissonStructure.symbolic(tag)
    out = {}
    if check in ("jacobi", "all"):
        out["jacobi"] = not po.jacobi_check(ps)
    if check in ("homomorphism", "all"):
        report = po.poisson_homomorphism_check(ps)
        out["homomorphism"] = all(not v for v in report.values())
    if check in ("linear", "all"):
        delta = bi.BialgebraClass.symbolic(tag).normalized
        out["linear-part"] = (po.linear_bracket_table(ps)
                              == bi.dual_bracket_table(delta))
    return out


def _poisson_grouplaw_checks():
    names = tuple(f"{n}{i}" for i in (1, 2, 3) for n in po.COORDS)
    g1 = po.GroupCoords.generic(1, names)
    g2 = po.GroupCoords.generic(2, names)
    g3 = po.GroupCoords.generic(3, names)
    assoc = (po.group_compose(po.group_compose(g1, g2), g3)
             == po.group_compose(g1, po.group_compose(g2, g3)))
    ident = po.GroupCoords.identity(names)
    unit = (po.group_compose(ident, g1) == g1
            and po.group_compose(g1, ident) == g1)

    rng = random.Random(987654321)
    def rand_point():
        pick = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return po.GroupCoords.point(pick(), pick(), pick())

    def mat_mul(a, b):
        return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(3)),
                               ParamPoly.zero(math.inf, po.COORDS))
                           for j in range(3)) for i in range(3))

    matrix_ok = True
    for _ in range(100):
        p1, p2 = rand_point(), rand_point()
        composed = po.group_compose(p1, p2)
        if composed.matrix() != mat_mul(p2.matrix(), p1.matrix()):
            matrix_ok = False
            break
    return {"associativity": assoc, "identity": unit, "matrix": matrix_ok}


def run_poisson(args):
    results = {}
    if args.check in ("jacobi", "homomorphism", "linear", "all"):
        tags = [_FAMILY_BY_NAME[args.family]] if args.family != "all" else _DEFORMED
        for tag in tags:
            results[tag] = _poisson_family_checks(tag, args.check)
    if args.check in ("grouplaw", "all"):
        results["group law"] = _poisson_grouplaw_checks()
    ok = all(all(r.values()) for r in results.values())
    if args.format == "json":
        _emit_json({"results": results, "pass": ok})
    else:
        for section, report in results.items():
            _out(f"{section}:")
            for label, good in report.items():
                _out(f"  {label}: {'PASS' if good else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def run_realize(args):
    # the check raises x^degree by up to 2K - 1, and an exponent of x must
    # fit a packed-key field
    top = MAX_ORDER + 1 - 2 * args.order
    if args.degree > top:
        _err(f"--degree must be at most {top} at --order {args.order}" if top >= 0
             else f"realize needs --order at most {(MAX_ORDER + 1) // 2}")
        return EXIT_PARSE
    report = qu.check_realization(bi.TYPE_I_PLUS, max_degree=args.degree,
                                  order=args.order)
    ok = all(report.values())
    if args.format == "json":
        _emit_json({"order": args.order, "max_degree": args.degree,
                    "results": report, "pass": ok})
    else:
        _out(f"differential realization (monomials up to degree {args.degree}, "
             f"order {args.order}):")
        for label, good in report.items():
            _out(f"  {label}: {'PASS' if good else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hweyl",
        description="Lie bialgebra structures on the Heisenberg-Weyl algebra: "
                    "classification, coboundary analysis, quantization and "
                    "exact verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=False, with_family=None):
        p.add_argument("--order", type=int, default=DEFAULT_ORDER,
                       help=f"series truncation order K, 1 to {MAX_ORDER} "
                            "(default %(default)s); the cost grows steeply "
                            "with K: from K = 16 up, quantize --family type2 "
                            "takes about 1.4 times longer per +2 in K")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if with_input:
            p.add_argument("input", nargs="?", default=None,
                           help="inline JSON or a path to a JSON file")
            p.add_argument("--input", dest="input_opt", default=None,
                           help="alternative to the positional input")
        if with_family:
            p.add_argument("--family", choices=with_family,
                           default=with_family[-1])

    p = sub.add_parser("classify", help="classify a cocommutator JSON")
    common(p, with_input=True)
    p.set_defaults(handler=run_classify)

    p = sub.add_parser("quantize",
                       help="quantize a family (symbolic with --family, or a "
                            "cocommutator JSON)")
    common(p, with_input=True, with_family=tuple(_FAMILY_BY_NAME))
    p.set_defaults(handler=run_quantize, family=None)

    p = sub.add_parser("verify", help="verify the Hopf axioms symbolically")
    common(p, with_family=_FAMILY_CHOICES)
    p.set_defaults(handler=run_verify)

    p = sub.add_parser("coboundary",
                       help="Schouten bracket, mCYBE, CYBE and induced "
                            "cocommutator of an r-matrix (symbolic without input)")
    common(p, with_input=True)
    p.set_defaults(handler=run_coboundary)

    p = sub.add_parser("poisson", help="group law and Poisson-Lie checks")
    common(p, with_family=_FAMILY_CHOICES)
    p.add_argument("--check",
                   choices=("jacobi", "homomorphism", "linear", "grouplaw", "all"),
                   default="all")
    p.set_defaults(handler=run_poisson)

    p = sub.add_parser("realize", help="differential realization of the I+ family")
    common(p)
    p.add_argument("--degree", type=int, default=6,
                   help=f"maximal monomial degree checked, at most {MAX_ORDER + 1} "
                        "- 2*K at --order K (default %(default)s)")
    p.set_defaults(handler=run_realize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exn:
        # argparse exits 2 on a malformed command line; here 2 means an
        # invalid bialgebra, so that exit becomes the parse error's 1
        raise SystemExit(EXIT_PARSE if exn.code == 2 else exn.code) from None
    if getattr(args, "input_opt", None) is not None:
        if args.input is not None:
            _err("give the input either positionally or with --input, not both")
            return EXIT_PARSE
        args.input = args.input_opt
    if not 1 <= args.order <= MAX_ORDER:
        _err(f"--order must be between 1 and {MAX_ORDER}")
        return EXIT_PARSE
    # a handler's stdout is written only when it returns, so a failure
    # leaves no partial result behind
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.handler(args)
    except json.JSONDecodeError as exn:
        _err(f"malformed JSON: {exn}")
        return EXIT_PARSE
    except OSError as exn:
        _err(f"cannot read input file {exn.filename!r}: {exn.strerror}")
        return EXIT_PARSE
    except (ValueError, TypeError) as exn:
        # the interpreter refusing to print an integer past its digit limit
        # (sys.get_int_max_str_digits); on input that error is reworded
        if "integer string conversion" in str(exn):
            _err(f"output limit: the result has an integer of more than "
                 f"{sys.get_int_max_str_digits()} digits, which the interpreter "
                 "will not print")
        else:
            _err(f"invalid input: {exn}")
        return EXIT_PARSE
    except qu.VerificationError as exn:
        _err(f"verification failed: {exn}")
        return EXIT_VERIFY
    sys.stdout.write(out.getvalue())
    return code


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
