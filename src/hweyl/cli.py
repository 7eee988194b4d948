"""Command-line surface: classify, quantize, verify, coboundary, poisson, realize.

Each command builds its result once, as the document of JSON values that
``--format json`` prints; ``--format text`` renders that same document.  The
closed-form lines of quantize are the one part of the text that the document
leaves out.

The argument parser is built on the first ``main`` call and shared by every
later call in the process (tests, library callers, benchmark workers).  It
holds only the command-line grammar: each handler reads all its state from
the fresh namespace that ``parse_args`` returns.  Nothing is built at import,
so a one-shot ``hweyl`` run builds the parser exactly once and pays nothing
for the sharing.

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
import functools
import io
import json
import os
import sys
from pathlib import Path

from .params import DEFAULT_ORDER, MAX_ORDER, ring
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


def _err(message):
    sys.stderr.write(message + "\n")


def _emit(args, doc, render):
    """Print ``doc``, the command's one result: as JSON, or as the text lines
    that ``render`` makes of it."""
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write("".join(line + "\n" for line in render(doc)))


def _emit_checks(args, doc, sections):
    """Add the "pass" verdict to ``doc``, print it and return the exit code.
    ``sections(doc)`` maps a header to a report of named booleans; the text
    is a ``header:`` line per section and a ``  check: PASS|FAIL`` line per
    check."""
    def lines(doc):
        for header, report in sections(doc).items():
            yield f"{header}:"
            for check, good in report.items():
                yield f"  {check}: {'PASS' if good else 'FAIL'}"
    doc["pass"] = all(all(report.values()) for report in sections(doc).values())
    _emit(args, doc, lines)
    return EXIT_OK if doc["pass"] else EXIT_VERIFY


def _assignments(values):
    return ", ".join(f"{k}={v}" for k, v in values.items())


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
    """The images of the basis under the document's matrix of rational strings."""
    pieces = []
    for j, name in enumerate(bi.BASIS):
        terms = []
        for i, base in enumerate(bi.BASIS):
            c = matrix[i][j]
            if c == "0":
                continue
            body = ({"1": base, "-1": f"-{base}"}.get(c)
                    or (f"({c})*{base}" if "/" in c else f"{c}*{base}"))
            terms.append(body if not terms or body.startswith("-") else f"+{body}")
        pieces.append(f"{name} -> {' '.join(terms) if terms else '0'}")
    return ", ".join(pieces)


def _render_wedge3(c):
    """The bracket c (A- ^ A+ ^ M) (``schouten``) as -c (M ^ A+ ^ A-); c is a
    square, xi^2, so -c is never 1 and never a sum of terms."""
    if not c:
        return "0"
    s = str(-c)
    return "-(M ^ A+ ^ A-)" if s == "-1" else f"{s}*(M ^ A+ ^ A-)"


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


def _classification_lines(doc):
    yield f"class: {doc['class']}"
    if doc["class"] == bi.INVALID:
        failures = doc["failures"]
        if "cocycle_pairs" in failures:
            yield f"cocycle residual nonzero on: {', '.join(failures['cocycle_pairs'])}"
        if "cojacobi" in failures:
            yield f"cojacobi residuals: ({', '.join(failures['cojacobi'])})"
        return
    yield f"normalized: {_assignments(doc['normalized'])}"
    yield f"automorphism: {_render_automorphism(doc['automorphism'])}"
    yield f"coboundary: {'yes' if doc['coboundary'] else 'no'}"
    if doc["coboundary"]:
        free = ", ".join(bi.rmatrix_gauge())
        yield f"r-matrix: xi = {doc['rmatrix']['xi']} ({free} free)"


def run_classify(args):
    doc = _classification_doc(bi.classify(_load_delta(args.input)))
    _emit(args, doc, _classification_lines)
    return EXIT_INVALID if doc["class"] == bi.INVALID else EXIT_OK


def _quantize_lines(doc, forms):
    """The Hopf document as text, with ``forms``: the closed-form lines it lacks."""
    yield f"family: {doc['family']}"
    yield f"order: {doc['order']}"
    if doc["parameters"]:
        yield "parameters: " + ", ".join(f"{k} = {v}"
                                         for k, v in sorted(doc["parameters"].items()))
    if "classification" in doc:
        yield f"automorphism: {_render_automorphism(doc['classification']['automorphism'])}"
    yield "closed form:"
    for section in ("coproduct", "relations", "antipode", "central_element"):
        for line in forms.get(section, ()):
            yield f"  {line}"
    for section, lhs in (("relations", "{}"), ("coproduct", "Delta({})"),
                         ("counit", "eps({})"), ("antipode", "gamma({})")):
        yield f"{section}:"
        for key, val in doc[section].items():
            yield f"  {lhs.format(key)} = {val}"
    if "central_element" in doc:
        yield f"central element: C = {doc['central_element']}"


def run_quantize(args):
    if args.family and args.input is not None:
        _err("give either --family or an input, not both")
        return EXIT_PARSE
    classification = None
    if args.family:
        family = _FAMILY_BY_NAME[args.family]
    else:
        classification = bi.classify(_load_delta(args.input))
        if classification.tag == bi.INVALID:
            _err("input is not a Lie bialgebra; run classify for the residuals")
            return EXIT_INVALID
        family = classification
    hp = qu.quantize(family, order=args.order)
    doc = hp.to_json()
    if classification is not None:
        doc["classification"] = _classification_doc(classification)
    _emit(args, doc, lambda doc: _quantize_lines(doc, qu.closed_forms(hp)))
    return EXIT_OK


def _verify_one(tag, order):
    hp = qu.quantize(tag, order=order, verify=False)
    return qu.verify_all(hp)


def run_verify(args):
    tags = [_FAMILY_BY_NAME[args.family]] if args.family != "all" else _DEFORMED
    results = {tag: _verify_one(tag, args.order) for tag in tags}
    return _emit_checks(args, {"order": args.order, "results": results}, lambda doc: {
        f"family {tag} at order {doc['order']}": report
        for tag, report in doc["results"].items()})


def _coboundary_lines(doc):
    yield f"r-matrix: {_assignments(doc['rmatrix'])}"
    yield f"schouten: {doc['schouten']}"
    yield f"mcybe: {'PASS' if doc['mcybe'] else 'FAIL'}"
    yield f"cybe ([[r, r]] = 0, r triangular): {'yes' if doc['cybe'] else 'no'}"
    yield f"cocommutator: {_assignments(doc['cocommutator'])}"
    if doc["recovered_xi"] is not None:
        yield (f"recovered r-matrix: xi = {doc['recovered_xi']} "
               f"({', '.join(doc['gauge'])} free)")


def run_coboundary(args):
    r = (bi.RMatrix.symbolic() if args.input is None
         else bi.RMatrix.from_json(_load_json_arg(args.input)))
    sch = bi.schouten(r)
    induced = bi.coboundary_delta(r)
    recovered = bi.find_rmatrix(induced)
    doc = {
        "rmatrix": r.to_json(),
        "schouten": _render_wedge3(sch),
        "mcybe": bi.mcybe_check(sch),
        # the classical YBE: [[r, r]] = 0, so r is triangular (only for xi = 0)
        "cybe": not sch,
        "cocommutator": induced.to_json(),
        "recovered_xi": str(recovered.xi) if recovered else None,
        "gauge": list(bi.rmatrix_gauge()),
    }
    _emit(args, doc, _coboundary_lines)
    return EXIT_OK if doc["mcybe"] else EXIT_VERIFY


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
    """The group-law checks on generic elements g1, g2, g3, whose nine
    coordinates are independent variables: each check compares two
    polynomials, so it is exact, for every group element at once.  ``matrix``
    asks that the composite's matrix be the product D(g2) * D(g1)."""
    names = ring(f"{n}{i}" for i in (1, 2, 3) for n in po.COORDS)
    g1, g2, g3 = (po.GroupCoords.generic(i, names) for i in (1, 2, 3))
    compose = po.group_compose
    ident = po.GroupCoords.identity(names)
    d1, d2 = g1.matrix(), g2.matrix()
    product = tuple(tuple(d2[i][0] * d1[0][j] + d2[i][1] * d1[1][j]
                          + d2[i][2] * d1[2][j] for j in range(3)) for i in range(3))
    return {"associativity": (compose(compose(g1, g2), g3)
                              == compose(g1, compose(g2, g3))),
            "identity": compose(ident, g1) == g1 and compose(g1, ident) == g1,
            "matrix": compose(g1, g2).matrix() == product}


def run_poisson(args):
    results = {}
    if args.check != "grouplaw":
        tags = [_FAMILY_BY_NAME[args.family]] if args.family != "all" else _DEFORMED
        results = {tag: _poisson_family_checks(tag, args.check) for tag in tags}
    if args.check in ("grouplaw", "all"):
        results["group law"] = _poisson_grouplaw_checks()
    return _emit_checks(args, {"results": results}, lambda doc: doc["results"])


def run_realize(args):
    if args.order > (MAX_ORDER + 1) // 2:
        _err(f"realize needs --order at most {(MAX_ORDER + 1) // 2}")
        return EXIT_PARSE
    report = qu.check_realization(bi.TYPE_I_PLUS, max_degree=args.degree,
                                  order=args.order)
    doc = {"order": args.order, "max_degree": args.degree, "results": report}
    return _emit_checks(args, doc, lambda doc: {
        f"differential realization (monomials up to degree {doc['max_degree']}, "
        f"order {doc['order']})": doc["results"]})


@functools.cache
def build_parser():
    """The ``hweyl`` argument parser, built on the first call and returned as
    the same object by every later one.  It holds the command-line grammar
    and nothing else: ``parse_args`` makes a new namespace on each call, with
    the defaults and the handler of the command it names, so no call sees
    state from an earlier one.  A one-shot ``hweyl`` run builds it exactly
    once, on its one ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="hweyl",
        description="Lie bialgebra structures on the Heisenberg-Weyl algebra: "
                    "classification, coboundary analysis, quantization and "
                    "exact verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    series_order = (f"series truncation order K, 1 to {MAX_ORDER} "
                    "(default %(default)s): series to parameter degree "
                    "K, or, with every parameter rational, every term "
                    "of at most K letters; the cost grows steeply "
                    "with K: from K = 16 up, quantize --family type2 "
                    "takes about 1.4 times longer per +2 in K")

    def common(p, with_input=False, with_family=None, order_help=series_order):
        p.add_argument("--order", type=int, default=DEFAULT_ORDER, help=order_help)
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

    p = sub.add_parser("verify", help="verify the Hopf axioms symbolically",
                       description="Verify the Hopf axioms of each family's "
                                   "quantization, exactly, on its series "
                                   "truncated at parameter degree K: a PASS "
                                   "holds modulo parameter degree K+1, not in "
                                   "the Hopf algebra itself.")
    common(p, with_family=_FAMILY_CHOICES)
    p.set_defaults(handler=run_verify)

    p = sub.add_parser("coboundary",
                       help="Schouten bracket, mCYBE, CYBE and induced "
                            "cocommutator of an r-matrix (symbolic without input)")
    common(p, with_input=True,
           order_help=f"accepted, 1 to {MAX_ORDER}, and not used: every map of "
                      "the coboundary command is a polynomial of degree at most "
                      "2 in the r-matrix coefficients, so the symbols are not "
                      "truncated at K")
    p.set_defaults(handler=run_coboundary)

    p = sub.add_parser("poisson", help="group law and Poisson-Lie checks")
    # at K = 1 the quadratic Jacobi terms would be cut, so K is never read
    common(p, with_family=_FAMILY_CHOICES,
           order_help=f"accepted, 1 to {MAX_ORDER}, and not used: the poisson "
                      "checks are exact polynomial identities, in the "
                      "coordinates and in the symbolic coefficients, so they "
                      "do not use the truncation order K")
    p.add_argument("--check",
                   choices=("jacobi", "homomorphism", "linear", "grouplaw", "all"),
                   default="all")
    p.set_defaults(handler=run_poisson)

    p = sub.add_parser("realize", help="differential realization of the I+ family")
    common(p, order_help=f"series truncation order K, 1 to {(MAX_ORDER + 1) // 2} "
                         "(default %(default)s): the composed operators reach "
                         "x^(2K-1), within the packed-key field limit")
    p.add_argument("--degree", type=int, default=6,
                   help="maximal monomial degree D checked, any D >= 0 at the "
                        "same cost: a residual acts as 0 on x^0..x^D exactly "
                        "when its operator has no term (d/dx)^k with k <= D "
                        "(default %(default)s)")
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
