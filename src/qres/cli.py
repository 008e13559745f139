"""Command-line front end.

Four subcommands: `germ` prints the invariant report of one germ on a
cyclic quotient point, `curve` the genus report of a curve in a weighted
projective plane, `resolve` exports a resolution tree as DOT or JSON, and
`check` runs the consistency suites.  All numbers are exact rationals
("num/den"); given identical flags the output is byte-identical across
runs.  Exit codes: 0 ok, 1 failed checks, 2 bad input, 3 extension or
depth budget exhausted, 4 io error, 5 internal inconsistency (a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import shlex
import sys

from .checks import SUITE_NAMES, run_suite
from .errors import (BadType, ExtensionOverflow, InternalInconsistency,
                     QresError, ResolutionDepthExceeded)
from .exactnum import ExtField, Rat, ext_bound
from .invariants import full_report, report_to_dict
from .poly import parse_poly
from .quotsing import parse_type
from .resolve import EngineConfig, resolve_germ, tree_to_dict, tree_to_dot
from .wproj import ProjPoint, genus, parse_weights

GERM_VARS = ("x", "y")
CURVE_VARS = ("x0", "x1", "x2")


def _parse_overrides(text: str) -> tuple:
    if not text or not text.strip():
        return ()
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip().strip("()")
        if not chunk:
            continue
        parts = chunk.split(",")
        try:
            p, q = (int(s.strip()) for s in parts)
        except ValueError:
            raise BadType("weight override %r is not an integer pair (p, q)"
                          % (chunk,))
        out.append((p, q))
    return tuple(out)


# ---------------------------------------------------------------------------
# germ


def run_germ(args) -> int:
    f = parse_poly(args.poly, GERM_VARS)
    t = parse_type(args.type)
    cfg = EngineConfig(mode=args.mode,
                       weight_overrides=_parse_overrides(args.weights))
    rep = full_report(f, t, config=cfg)
    doc = report_to_dict(rep)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print("germ: %s" % doc["germ"])
    print("ambient: %s" % doc["ambient"])
    print("mode: %s%s" % (doc["mode"], " (variables transposed)"
                          if doc["transposed"] else ""))
    for k, v in doc["invariants"].items():
        print("  %-9s = %s" % (k, v))
    print("blow-ups:")
    for b in doc["trace"]["blowups"]:
        cluster = "  x%d conjugate points" % b["cluster"] if b["cluster"] > 1 else ""
        print("  node %-3d %-12s weights (%d,%d)  e=%-3d nu=%-4d -> %s%s"
              % (b["node"], b["ambient"], b["weights"][0], b["weights"][1],
                 b["e"], b["nu"], b["contribution"], cluster))
    if doc["trace"]["corrections"]:
        print("Q-smooth ends (plain mode stops here):")
        for c in doc["trace"]["corrections"]:
            cluster = "  x%d conjugate points" % c["cluster"] if c["cluster"] > 1 else ""
            print("  node %-3d %-12s %d branch(es) of %s -> %s%s"
                  % (c["node"], c["ambient"], c["branches"], c["label"],
                     c["contribution"], cluster))
    for msg in doc["warnings"]:
        print("warning: %s" % msg)
    return 0


# ---------------------------------------------------------------------------
# curve


def _parse_points(text: str):
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip().strip("[]()")
        if not chunk:
            continue
        try:
            coords = tuple(Rat(s.strip()) for s in chunk.replace(":", ",").split(","))
        except (ValueError, ZeroDivisionError):
            raise BadType("cannot read %r as rational coordinates" % (chunk,))
        if len(coords) != 3:
            raise BadType("point %r needs three coordinates" % (chunk,))
        if not any(coords):
            raise BadType("(0, 0, 0) is not a projective point")
        chart = min(i for i, c in enumerate(coords) if c != 0)
        pts.append(ProjPoint(ExtField(()), coords, chart))
    if not pts:
        raise BadType("--points got no usable point")
    return pts


def run_curve(args) -> int:
    F = parse_poly(args.poly, CURVE_VARS)
    w = parse_weights(args.w)
    points = _parse_points(args.points) if args.points else None
    rep = genus(F, w, points=points)
    if args.json:
        doc = {"schema_version": 1, "command": "curve", "input": args.poly,
               "degree": rep.degree,
               "weights": [rep.weights.w0, rep.weights.w1, rep.weights.w2],
               "virtual_genus": str(rep.virtual), "genus": str(rep.genus),
               "points": [{"point": str(sp.point), "kind": sp.kind,
                           "ambient": str(sp.ambient), "germ": str(sp.germ),
                           "cluster": sp.multiplicity,
                           "delta_w": str(contrib)}
                          for sp, contrib in rep.points],
               "warnings": list(rep.warnings)}
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print("curve of degree %d, weights %s" % (rep.degree, rep.weights))
    print("virtual genus: %s" % (rep.virtual,))
    if rep.points:
        if any(sp.kind == "manual" for sp, _ in rep.points):
            print("points (user supplied):")
        else:
            print("singular points (vertices on the curve included):")
        for sp, contrib in rep.points:
            cluster = ("  cluster of %d" % sp.multiplicity
                       if sp.multiplicity > 1 else "")
            print("  %-13s %-7s %-10s delta_w %s%s"
                  % (sp.point, sp.kind, sp.ambient, contrib, cluster))
            print("      germ %s" % (sp.germ,))
    else:
        print("singular points: none")
    print("genus: %s" % (rep.genus,))
    for msg in rep.warnings:
        print("warning: %s" % msg)
    return 0


# ---------------------------------------------------------------------------
# resolve / check


def _write_text(path: str, payload: str):
    if path == "-":
        sys.stdout.write(payload)
        return
    with open(path, "w") as fh:
        fh.write(payload)


def run_resolve(args) -> int:
    if args.dot is None and args.json is None:
        raise BadType("pass --dot PATH and/or --json PATH ('-' for stdout)")
    f = parse_poly(args.poly, GERM_VARS)
    if len(f.terms) == 1:
        raise BadType("monomial input is degenerate (a power of the axes is "
                      "either non-reduced or already resolved)")
    t = parse_type(args.type)
    cfg = EngineConfig(mode=args.mode,
                       weight_overrides=_parse_overrides(args.weights))
    tree = resolve_germ(f, t, config=cfg)
    if args.json is not None:
        _write_text(args.json,
                    json.dumps(tree_to_dict(tree), indent=2, sort_keys=True)
                    + "\n")
        if args.json != "-":
            print("wrote %s" % args.json)
    if args.dot is not None:
        _write_text(args.dot, tree_to_dot(tree))
        if args.dot != "-":
            print("wrote %s" % args.dot)
    return 0


def run_check(args) -> int:
    results = run_suite(args.suite)
    failed = 0
    for res in results:
        print(res.summary())
        if not res.ok:
            failed += 1
    if failed:
        print("%d suite(s) failed" % failed)
        return 1
    return 0


# ---------------------------------------------------------------------------
# wiring


class _Parser(argparse.ArgumentParser):
    """Reads "-x^2+y^3" or "-1,0,1" as a value, not an option: qres has no
    short option but -h.  Subparsers are made of this class too."""

    def _parse_optional(self, arg):
        if arg.startswith("-") and not arg.startswith("--") and arg != "-h":
            return None
        return super()._parse_optional(arg)


@functools.cache        # built on the first main() call, then reused
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="qres",
        description="Exact invariants of curve germs on cyclic quotient "
                    "surface points, and genus of curves in weighted "
                    "projective planes.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("germ", help="invariants of one germ on X(d;a,b)")
    g.add_argument("poly", help='local equation in x, y, e.g. "x^2 - y^4"')
    g.add_argument("--type", default="X(1;0,0)",
                   help='ambient type "X(d;a,b)" (default: smooth)')
    g.add_argument("--mode", choices=("plain", "strong"), default="plain",
                   help="stop at Q-smooth transversal ends (plain) or "
                        "resolve the surface too (strong)")
    g.add_argument("--weights", default="", metavar="LIST",
                   help='blow-up weight overrides "(p,q);(p,q);...", '
                        "consumed depth-first")
    g.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    g.set_defaults(func=run_germ)

    c = sub.add_parser("curve",
                       help="genus of a curve in a weighted projective plane")
    c.add_argument("poly", help='equation in x0, x1, x2, e.g. "x0*x1 - x2^2"')
    c.add_argument("--w", required=True, metavar="W0,W1,W2",
                   help='weights of the ambient plane, e.g. "2,3,5"')
    c.add_argument("--points", default="", metavar="LIST",
                   help='skip the singular-point search and use these '
                        'rational points: "1,1,1;0,1,0" (scale the first '
                        "nonzero coordinate to 1)")
    c.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    c.set_defaults(func=run_curve)

    r = sub.add_parser("resolve",
                       help="export an embedded resolution tree")
    r.add_argument("poly", help="local equation in x, y")
    r.add_argument("--type", default="X(1;0,0)",
                   help='ambient type "X(d;a,b)" (default: smooth)')
    r.add_argument("--mode", choices=("plain", "strong"), default="plain")
    r.add_argument("--weights", default="", metavar="LIST",
                   help="blow-up weight overrides, consumed depth-first")
    r.add_argument("--dot", metavar="PATH", help="write Graphviz DOT here")
    r.add_argument("--json", metavar="PATH", help="write JSON here")
    r.set_defaults(func=run_resolve)

    k = sub.add_parser("check", help="run the consistency suites")
    k.add_argument("suite", choices=SUITE_NAMES + ("all",))
    k.set_defaults(func=run_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ext_bound()     # a malformed QRES_EXT_BOUND exits 2 before any work
        return args.func(args)
    except (ExtensionOverflow, ResolutionDepthExceeded) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 4
    except InternalInconsistency as exc:
        print("internal error: %s; reproduce with: qres %s"
              % (exc, shlex.join(sys.argv[1:] if argv is None else argv)),
              file=sys.stderr)
        return 5
    except QresError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
