"""Acceptance gate: ten fixed criteria, one printed pass/fail line each.

Runs under pytest (each criterion is its own test) and as a script:

    python3 tests/test_acceptance.py
"""
import random
import sys
from dataclasses import replace

if __package__ is None and "tests" not in sys.path[0]:
    sys.path.insert(0, "tests")

from conftest import curve, germ
from qres.checks import (SEED, check_deltaw, check_lattice, check_noether,
                         normalized_types, random_semi_invariant)
from qres.exactnum import Rat
from qres.invariants import (delta_breakdown, delta_classical, full_report)
from qres.quotsing import QuotType
from qres.resolve import EngineConfig, resolve_germ
from qres.wproj import genus, parse_weights, virtual_genus


def _criterion(n, desc, ok):
    print("criterion %2d: %s  %s" % (n, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %d failed: %s" % (n, desc)


def criterion_1():
    rep = full_report(germ("x^2 - y^4"), QuotType(2, 1, 1))
    ok = (rep.delta_w == 1 and rep.delta_classical == 2
          and rep.r_classical == 2 and rep.r_w == 1)
    d = rep.ambient.d
    ok = ok and rep.delta_w == (Rat(rep.delta_classical, d)
                                + Rat(rep.r_w - Rat(rep.r_classical, d), 2))
    _criterion(1, "delta_w(x^2 - y^4 on X(2;1,1)) = 1 with delta=2, r=2, "
                  "r_w=1 and the delta identity", ok)


def criterion_2():
    f = germ("x*y + (x^2 - y^3)^2")
    t = QuotType(7, 2, 3)
    cfg = EngineConfig(weight_overrides=((1, 5),))
    plain = full_report(f, t, config=cfg)
    strong = full_report(f, t, config=replace(cfg, mode="strong"))
    want = [Rat(3, 5), Rat(2, 5)]
    ok = (plain.delta_w == 1
          and [c for _, c in plain.per_node_contributions] == want
          and [c for _, c in strong.per_node_contributions] == want)
    _criterion(2, "delta_w(xy + (x^2 - y^3)^2 on X(7;2,3)) = 1, "
                  "contributions 3/5 then 2/5 under override (1,5)", ok)


def criterion_3():
    flat = [("x0*x1 - x2", "2,3,5"), ("x0*x1 - x2", "3,4,7"),
            ("x0*x1 - x2^2", "1,3,2"), ("x0*x1 - x2^2", "3,5,4"),
            ("x0*x1 - x2^2", "5,7,6")]
    ok = all(genus(curve(t), parse_weights(w)).genus == 0 for t, w in flat)
    rep = genus(curve("x0*x1*x2 + (x0^3 - x1^2)^2"), parse_weights("2,3,7"))
    ok = ok and rep.genus == 0 and rep.virtual == 1
    ok = ok and len(rep.points) == 1 and rep.points[0][1] == 1
    ok = ok and str(rep.points[0][0].ambient) == "X(7;2,3)"
    _criterion(3, "genus 0 for the bilinear family, the conic family and "
                  "the degree-12 curve on (2,3,7), with g=1 and "
                  "delta_w=1 intermediates", ok)


def criterion_4():
    w235 = parse_weights("2,3,5")
    ok = virtual_genus(5, w235) == Rat(7, 12)
    ok = ok and virtual_genus(40, w235) == 21
    ok = ok and all(virtual_genus(d, parse_weights("1,1,1"))
                    == Rat((d - 1) * (d - 2), 2) for d in range(1, 11))
    _criterion(4, "virtual genus: 7/12 at (5,(2,3,5)), 21 at (40,(2,3,5)), "
                  "(d-1)(d-2)/2 on the plane", ok)


def criterion_5():
    ok = (delta_classical(germ("x^2 - y^3")) == 1
          and delta_classical(germ("x^2 - y^4")) == 2
          and delta_classical(germ("x*y")) == 1)
    rep = genus(curve("x1^2*x2 - x0^3"), parse_weights("1,1,1"))
    ok = ok and rep.virtual == 1 and rep.genus == 0
    _criterion(5, "classical deltas (cusp 1, tacnode 2, node 1) and the "
                  "cuspidal cubic has genus 1 - 1 = 0", ok)


def criterion_6():
    res = check_deltaw(count=110)
    _criterion(6, "delta_w = delta/d + (r_w - r/d)/2 on %d generated germs "
                  "(%d failed)" % (res.passed + res.failed, res.failed),
               res.failed == 0 and res.passed >= 100)


def criterion_7():
    res = check_noether(count=110, pairs=0)
    _criterion(7, "resolution intersection number equals resultant order on "
                  "%d smooth-point pairs (%d failed)"
                  % (res.passed + res.failed, res.failed),
               res.failed == 0 and res.passed >= 100)


def criterion_8():
    res = check_lattice()
    _criterion(8, "monomial colength matches brute-force lattice counts and "
                  "one-step dimensions are integral (%d checks, %d failed)"
                  % (res.passed + res.failed, res.failed),
               res.failed == 0)


def criterion_9():
    res = check_noether(count=0, pairs=60)
    _criterion(9, "delta_w(C*D) = delta_w(C) + delta_w(D) + (C.D) on %d "
                  "pairs (%d failed)" % (res.passed + res.failed, res.failed),
               res.failed == 0 and res.passed >= 50)


def criterion_10():
    rng = random.Random(SEED + 10)
    types = normalized_types(6)
    checked = failures = 0
    while checked < 100:
        t = types[rng.randrange(len(types))]
        f = random_semi_invariant(rng, t)
        cfg = EngineConfig(check_reduced=False)
        plain = delta_breakdown(resolve_germ(f, t, config=cfg))
        strong_tree = resolve_germ(f, t, config=replace(cfg, mode="strong"))
        strong = delta_breakdown(strong_tree).total
        correction_sum = Rat(0)
        for n in resolve_germ(f, t, config=cfg).iter_nodes():
            for rec in n.leaf_records:
                if rec.ambient.d > 1:
                    correction_sum += (n.conjugacy_multiplicity * rec.branches
                                       * Rat(rec.ambient.d - 1,
                                             2 * rec.ambient.d))
        if not (strong == plain.node_sum + correction_sum == plain.total):
            failures += 1
        checked += 1
    _criterion(10, "strong-mode delta_w equals plain-mode node sum plus "
                   "sum of (d_i - 1)/(2 d_i) terms on %d germs (%d failed)"
                   % (checked, failures), failures == 0)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10)


def test_criterion_01(): criterion_1()
def test_criterion_02(): criterion_2()
def test_criterion_03(): criterion_3()
def test_criterion_04(): criterion_4()
def test_criterion_05(): criterion_5()
def test_criterion_06(): criterion_6()
def test_criterion_07(): criterion_7()
def test_criterion_08(): criterion_8()
def test_criterion_09(): criterion_9()
def test_criterion_10(): criterion_10()


if __name__ == "__main__":
    bad = 0
    for crit in CRITERIA:
        try:
            crit()
        except AssertionError:
            bad += 1
    sys.exit(1 if bad else 0)
