import collections
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import curve, spy
from test_golden import CASES, run_cli
from qres import exactnum, poly, resolve, wproj
from qres.cli import main
from qres.errors import (BadType, InternalInconsistency, NonDivisibleExponent,
                         NotQuasiHomogeneous, NotReduced, PointNotOnCurve,
                         QresError)
from qres.exactnum import ExtField, Rat, SplitEvent
from qres.poly import SparsePoly
from qres.quotsing import SMOOTH
from qres.wproj import (GenusReport, ProjPoint, Weights, bezout, genus,
                        localize, normalize_weights, parse_weights,
                        singular_locus, smoothness_certificate, virtual_genus,
                        wdegree)

QQ = ExtField(())


def w(text):
    return parse_weights(text)


def kinds(rep: GenusReport):
    return sorted((sp.kind, sp.multiplicity, str(dv)) for sp, dv in rep.points)


def test_weights_validation():
    assert w("2,3,5").wbar == 30 and w("2,3,5").total == 10
    with pytest.raises(BadType):
        Weights(0, 1, 1)
    with pytest.raises(BadType):
        Weights(2, 4, 6)
    with pytest.raises(BadType):
        parse_weights("2,3")
    with pytest.raises(BadType):
        parse_weights("a,b,c")


def test_virtual_genus_values():
    assert virtual_genus(5, w("2,3,5")) == Rat(7, 12)
    assert virtual_genus(40, w("2,3,5")) == 21
    for d in range(1, 11):
        assert virtual_genus(d, w("1,1,1")) == Rat((d - 1) * (d - 2), 2)


def test_bezout_and_certificate():
    assert bezout(2, 3, w("1,1,1")) == 6
    assert bezout(5, 12, w("2,3,5")) == 2
    assert smoothness_certificate(30, w("2,3,5"))
    assert not smoothness_certificate(7, w("2,3,5"))


def test_wdegree():
    assert wdegree(curve("x0*x1 + x2"), w("2,3,5")) == 5
    with pytest.raises(NotQuasiHomogeneous):
        wdegree(curve("x0 + x1^2"), w("1,1,1"))
    with pytest.raises(BadType):
        wdegree(curve("5"), w("2,3,5"))


def test_normalize_weights():
    wn, F = normalize_weights(w("1,2,2"), curve("x0^2*x1 - x2^2"))
    assert (wn.w0, wn.w1, wn.w2) == (1, 1, 1)
    assert F == curve("x0*x1 - x2^2")
    with pytest.raises(NonDivisibleExponent) as ei:
        normalize_weights(w("1,2,2"), curve("x0^3*x1 + x0*x2^2"))
    assert "factor the axis power" in str(ei.value)


def test_localize():
    P = ProjPoint(QQ, (Rat(1), Rat(1), Rat(1)), 0)
    germ, ambient = localize(curve("x0 + x1 - 2*x2"), w("1,1,1"), P)
    assert ambient == SMOOTH
    assert germ.constant_term() == germ.field.zero()
    with pytest.raises(PointNotOnCurve):
        localize(curve("x0 + x1 - 2*x2"), w("1,1,1"),
                 ProjPoint(QQ, (Rat(1), Rat(0), Rat(0)), 0))


def test_quintic_through_two_vertices():
    rep = genus(curve("x0*x1 + x2"), w("2,3,5"))
    assert rep.virtual == Rat(7, 12)
    assert rep.genus == 0 and not rep.warnings
    assert kinds(rep) == [("vertex", 1, "1/3"), ("vertex", 1, "1/4")]
    ambients = {str(sp.ambient) for sp, _ in rep.points}
    assert ambients == {"X(2;1,1)", "X(3;2,2)"}


def test_conic_family():
    # x2^2 = (x0 x1)^k in the plane with weights (1,1,k)
    expected = {1: (0, 0, 0), 2: (1, 1, -1), 3: (2, 1, 0)}
    for k, (virt, dv, g) in expected.items():
        F = curve("x2^2 - x0^%d*x1^%d" % (k, k)) if k > 1 \
            else curve("x2^2 - x0*x1")
        rep = genus(F, Weights(1, 1, k))
        assert rep.virtual == virt and rep.genus == g
        assert [str(v) for _, v in rep.points] == [str(dv), str(dv)]
    assert genus(curve("x2^2 - x0^2*x1^2"), Weights(1, 1, 2)).warnings


def test_rational_cubics():
    cusp = genus(curve("x1^2*x2 - x0^3"), w("1,1,1"))
    assert cusp.virtual == 1 and cusp.genus == 0
    node = genus(curve("x1^2*x2 - x0^3 - x0^2*x2"), w("1,1,1"))
    assert node.virtual == 1 and node.genus == 0


def test_three_cusp_quartic():
    F = curve("x0^2*x1^2 + x1^2*x2^2 + x2^2*x0^2"
              " - 2*x0*x1*x2*(x0 + x1 + x2)")
    rep = genus(F, w("1,1,1"))
    assert rep.virtual == 3 and rep.genus == 0
    assert kinds(rep) == [("vertex", 1, "1")] * 3


def test_orbifold_node_on_2_3_7():
    rep = genus(curve("x0^6 - x1^4 + x0*x1*x2"), w("2,3,7"))
    assert rep.degree == 12
    assert rep.virtual == 1 and rep.genus == 0
    (sp, dv), = rep.points
    assert sp.kind == "vertex" and str(sp.ambient) == "X(7;2,3)" and dv == 1


def test_fermat_curves_are_smooth():
    rep = genus(curve("x0^30 + x1^10 + x2^6"), w("1,3,5"))
    assert rep.genus == rep.virtual == 22 and not rep.points
    rep = genus(curve("x0^15 + x1^10 + x2^6"), w("2,3,5"))
    assert rep.genus == rep.virtual == 11 and not rep.points


def test_reducible_curves_warn():
    two_lines = genus(curve("x0*x1"), w("1,1,1"))
    assert two_lines.genus == -1
    assert len(two_lines.warnings) == 2      # contains axes + non-integer
    conic_line = genus(curve("(x0 + x1)*(x0^2 + x1^2 - x2^2)"), w("1,1,1"))
    assert conic_line.genus == -1 and len(conic_line.warnings) == 1
    assert ("affine", 2, "2") in kinds(conic_line)


def test_a_coordinate_axis_alone_is_not_called_reducible():
    for F, weights in (("x0", "1,1,1"), ("x1", "2,3,5"), ("3*x2", "1,2,3")):
        rep = genus(curve(F), w(weights))
        assert rep.genus == 0 and not rep.warnings, F


def test_conjugate_tangency_cluster():
    # the conics meet only at [1 : +-i : 0], a conjugate pair of tacnodes
    rep = genus(curve("(x0^2 + x1^2 - x2^2)*(x0^2 + x1^2 - 2*x2^2)"),
                w("1,1,1"))
    assert rep.virtual == 3 and rep.genus == -1
    (sp, dv), = rep.points
    assert sp.multiplicity == 2 and dv == 4
    assert dv == bezout(2, 2, w("1,1,1"))    # all of Bezout sits in one orbit


def test_axis_through_cusp():
    rep = genus(curve("x0*(x1^2*x2 - x0^3)"), w("1,1,1"))
    assert rep.genus == -1 and len(rep.warnings) == 2
    assert sorted(str(v) for _, v in rep.points) == ["1", "3"]


def test_genus_invariant_under_coordinate_permutation():
    a = genus(curve("x0*x1 + x2"), w("2,3,5"))
    b = genus(curve("x2*x1 + x0"), w("5,3,2"))
    assert a.genus == b.genus == 0 and a.virtual == b.virtual


def test_normalization_happens_inside_genus():
    rep = genus(curve("x0^2*x1 - x2^2"), w("1,2,2"))
    assert (rep.weights.w0, rep.weights.w1, rep.weights.w2) == (1, 1, 1)
    assert rep.degree == 2 and rep.genus == 0


def test_non_reduced_input_is_rejected():
    with pytest.raises(NotReduced):
        genus(curve("x0^2*(x1 - x2)"), w("1,1,1"))
    with pytest.raises(NotReduced):
        genus(curve("(x0 + x1)^2*x2"), w("1,1,1"))


def test_genus_checks_reducedness_once(monkeypatch):
    calls = []
    orig = wproj._check_reduced

    def counting(F):
        calls.append(F)
        return orig(F)

    monkeypatch.setattr(wproj, "_check_reduced", counting)
    assert genus(curve("x1^2*x2 - x0^3"), w("1,1,1")).genus == 0
    assert len(calls) == 1
    pts = [ProjPoint(QQ, (Rat(0), Rat(0), Rat(1)), 2)]
    assert genus(curve("x1^2*x2 - x0^3"), w("1,1,1"), points=pts).genus == 0
    assert len(calls) == 2


def test_manual_points():
    F = curve("x0*x1 + x2")
    vertices = [ProjPoint(QQ, (Rat(1), Rat(0), Rat(0)), 0),
                ProjPoint(QQ, (Rat(0), Rat(1), Rat(0)), 1)]
    rep = genus(F, w("2,3,5"), points=vertices)
    assert rep.genus == 0
    assert kinds(rep) == [("manual", 1, "1/3"), ("manual", 1, "1/4")]
    with pytest.raises(BadType):
        genus(F, w("2,3,5"), points=vertices + vertices[:1])
    with pytest.raises(NotReduced):
        genus(curve("x0^2*(x1^2 - x0*x2)"), w("1,1,1"),
              points=[ProjPoint(QQ, (Rat(1), Rat(1), Rat(1)), 0)])


def test_a_manual_point_over_a_tower_is_refused():
    """Manual points are read over Q: [1 : s : 0] over Q(s), s^2 = 2, lies
    on the curve x1^2 = 2 x0^2 and still raises BadType."""
    field, s = exactnum.adjoin_root(QQ, (Rat(-2), Rat(0)), "s")
    P = ProjPoint(field, (field.one(), s, field.zero()), 0)
    assert localize(curve("x1^2 - 2*x0^2"), w("1,1,1"), P)[0].field == field
    with pytest.raises(BadType, match="rational coordinates"):
        genus(curve("x1^2 - 2*x0^2"), w("1,1,1"), points=[P])


def _arrangement(rng):
    """(k, F): k = 3 or 4 distinct lines and smooth conics on P(1,1,1)."""
    k = rng.choice([3, 4])
    lines, conics = [], []
    while len(lines) + len(conics) < k:
        if rng.random() < 0.75:
            c = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
            if all(c[1] * d[2] - c[2] * d[1] or c[0] * d[2] - c[2] * d[0]
                   or c[0] * d[1] - c[1] * d[0] for d in lines):
                lines.append(c)
        else:
            # a x0^2 + b x1^2 - c x2^2 + s x0 x1 is smooth: 4ab != 1, c != 0
            c = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3),
                 rng.choice([-1, 1]))
            if c not in conics:
                conics.append(c)
    parts = ["(%d*x0 %+d*x1 %+d*x2)" % c for c in lines]
    parts += ["(%d*x0^2 + %d*x1^2 - %d*x2^2 %+d*x0*x1)" % c for c in conics]
    return k, curve("*".join(parts))


def test_arrangements_of_rational_curves_split_the_search(monkeypatch):
    """A reduced curve with k smooth rational components has genus
    sum(g_i) - (k - 1) = 1 - k, however its components meet.  Crossings of
    lines are rational, so the search adjoins roots of minimal polynomials
    that are reducible over Q and has to split its clusters."""
    splits, in_search = [0], [0]
    init = SplitEvent.__init__

    def counting_init(self, *args, **kwargs):
        splits[0] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(SplitEvent, "__init__", counting_init)
    locus = wproj.singular_locus

    def counting_locus(*args, **kwargs):
        before = splits[0]
        try:
            return locus(*args, **kwargs)
        finally:
            in_search[0] += splits[0] - before
    monkeypatch.setattr(wproj, "singular_locus", counting_locus)
    for seed in range(7):
        k, F = _arrangement(random.Random(seed))
        assert genus(F, w("1,1,1")).genus == 1 - k
    assert in_search[0] >= 1


def test_the_cluster_field_strips_x_takes_the_radical_and_collapses():
    """_cluster_field drops x^k, keeps one copy of each factor and reads
    x^w as t; a constant radical is no cluster, and a list whose root set
    is not stable under the w-th roots of unity cannot be collapsed."""
    v = exactnum._zmul(exactnum._zmul([0, 0, 1], [4, 0, 0, -4, 0, 0, 1]),
                       [1, 0, 0, 1])       # x^2 (x^3 - 2)^2 (x^3 + 1)
    s, field, _ = wproj._cluster_field(v, 3, "ta", "ua")
    assert s in ([-2, -1, 1], [2, 1, -1])
    assert field.describe() == "Q(ta:deg 2, ua:deg 3*)"
    s, field, _ = wproj._cluster_field(v, 1, "ta", "ua")
    assert s in ([-2, 0, 0, -1, 0, 0, 1], [2, 0, 0, 1, 0, 0, -1])
    assert wproj._cluster_field([0, 0, 0, 0, 5], 3, "ta", "ua") is None
    with pytest.raises(InternalInconsistency):
        wproj._cluster_field([-1, -1, 0, 1], 3, "ta", "ua")


def test_singular_locus_lists_vertices_on_the_curve():
    pts = singular_locus(curve("x1^2*x2 - x0^3"), w("1,1,1"))
    assert sorted(p.kind for p in pts) == ["vertex", "vertex"]
    pts = singular_locus(curve("x0^30 + x1^10 + x2^6"), w("1,3,5"))
    assert pts == []


def test_genus_eliminates_once(monkeypatch):
    """The reducedness certificate hands its discriminant resultant on to
    the singular-locus search: a generic plane quartic costs that one plus
    the resultant with the x-derivative."""
    calls = []
    orig = poly.resultant

    def counting(f, g, var):
        calls.append(var)
        return orig(f, g, var)

    monkeypatch.setattr(poly, "resultant", counting)
    monkeypatch.setattr(wproj, "resultant", counting)
    F = curve("x0^4 + 2*x1^4 - 3*x2^4 + x0*x1^2*x2 - 5*x0^2*x1*x2"
              " + 7*x1^3*x2 + x0*x2^3")
    rep = genus(F, w("1,1,1"))
    assert rep.genus == 3 and not rep.points
    assert len(calls) == 2


def test_generic_degree_40_curve_on_2_3_5():
    """Genus = exponents strictly inside the Newton polygon (Baker) for a
    curve that is generic for its polygon.  In the exponents (a, b) of x0
    and x1 the polygon of degree 40 on P(2,3,5) is the hull of (0,0),
    (20,0), (2,12) and (0,10); the curve also passes through the vertex
    [0:1:0] (3 does not divide 40), where delta_w = 1."""
    rng = random.Random(40)
    terms = {}
    for a in range(21):
        for b in range(14):
            c, r = divmod(40 - 2 * a - 3 * b, 5)
            if c >= 0 and r == 0:
                terms[(a, b, c)] = Rat(rng.choice([-3, -2, -1, 1, 2, 3]))
    F = SparsePoly(QQ, ("x0", "x1", "x2"), terms)
    hull = [(0, 0), (20, 0), (2, 12), (0, 10)]
    edges = list(zip(hull, hull[1:] + hull[:1]))
    interior = sum(
        1 for a, b, _ in terms
        if all((q[0] - p[0]) * (b - p[1]) - (q[1] - p[1]) * (a - p[0]) > 0
               for p, q in edges))
    assert interior == 20
    rep = genus(F, w("2,3,5"))
    assert rep.virtual == 21
    assert kinds(rep) == [("vertex", 1, "1")]
    assert rep.genus == interior


CONIC_TIMES_CUBIC = ("(x0^2 + 2*x1^2 - 3*x2^2 + x0*x1)"
                     "*(x0^3 + x1^3 + 2*x2^3 - x0*x1*x2)")


def test_the_search_runs_no_gcd_over_a_tower(monkeypatch):
    """The six crossings of a conic and a cubic form one cluster whose
    minimal polynomial is irreducible: the first subresultant gives its
    y-coordinate, and no gcd runs over the tower, neither wproj's poly_gcd
    nor the tower gcd (exactnum._pgcd) of any caller."""
    over_tower, inside = [], [False]
    gcd, euclid = wproj.poly_gcd, exactnum._pgcd

    def counting_gcd(f, g):
        if inside[0] and f.field.depth:
            over_tower.append("poly_gcd")
        return gcd(f, g)

    def counting_euclid(levels, k, f, g):
        if inside[0] and k:
            over_tower.append("_pgcd")
        return euclid(levels, k, f, g)
    stratum = wproj._affine_stratum

    def marked(*args):
        inside[0] = True
        try:
            return stratum(*args)
        finally:
            inside[0] = False
    monkeypatch.setattr(wproj, "poly_gcd", counting_gcd)
    monkeypatch.setattr(exactnum, "_pgcd", counting_euclid)
    monkeypatch.setattr(wproj, "_affine_stratum", marked)
    roots = spy(monkeypatch, wproj, "_subresultant_root")
    rep = genus(curve(CONIC_TIMES_CUBIC), w("1,1,1"))
    assert rep.genus == 0
    assert kinds(rep) == [("affine", 6, "6")]
    assert len(roots) == 1 and over_tower == []


def test_the_first_subresultant_needs_no_split_handler(monkeypatch):
    """Over every argv of the golden corpus, _affine_stratum runs S_1,
    outside any split handler, only over a field flagged at every Level,
    where no SplitEvent can arise, and none does; the search's one split
    handler is that of _gcd_points, and the three lines of
    curve-lines-split enter it over an unflagged tower."""
    s1_fields, s1_splits, reruns, stack, case = [], [], [], [], [None]
    subresultant_root, gcd_points = wproj._subresultant_root, wproj._gcd_points

    def s1(F0, slices, at_u, field, u0):
        s1_fields.append(field)
        try:
            return subresultant_root(F0, slices, at_u, field, u0)
        except SplitEvent:
            s1_splits.append(case[0])
            raise

    def gcd(field, u0, slices, tag):
        if stack:       # a rerun from the split handler of the call below
            reruns.append((case[0], stack[-1]))
        stack.append(field)
        try:
            return gcd_points(field, u0, slices, tag)
        finally:
            stack.pop()
    monkeypatch.setattr(wproj, "_subresultant_root", s1)
    monkeypatch.setattr(wproj, "_gcd_points", gcd)
    for name, argv in CASES:
        case[0] = name
        run_cli(argv)
    assert s1_fields and all(f.is_field for f in s1_fields)
    assert s1_splits == []
    assert reruns and all(f.depth and not f.is_field for _, f in reruns)
    assert {name for name, _ in reruns} >= {"curve-lines-split",
                                            "curve-lines-split-json"}


def generic_curve(w, d, coeffs):
    """Every monomial of weighted degree d on P(w), with the given
    coefficients in turn."""
    terms = {}
    for a in range(d // w[0] + 1):
        for b in range((d - a * w[0]) // w[1] + 1):
            c, r = divmod(d - a * w[0] - b * w[1], w[2])
            if r == 0:
                terms[(a, b, c)] = Rat(next(coeffs))
    return SparsePoly(QQ, ("x0", "x1", "x2"), terms)


NODAL_PRODUCTS = [((1, 1, 1), 1, 3), ((1, 1, 1), 2, 2), ((1, 1, 1), 2, 3),
                  ((1, 2, 3), 3, 4), ((1, 2, 3), 2, 6), ((1, 2, 3), 4, 4),
                  ((2, 3, 5), 5, 10), ((2, 3, 5), 6, 10), ((2, 3, 5), 10, 10)]


def located(F, weights):
    try:
        return singular_locus(F, weights)
    except QresError as exc:
        return type(exc), str(exc)


@settings(max_examples=20)
@given(st.sampled_from(NODAL_PRODUCTS),
       st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=60,
                max_size=60))
def test_the_subresultant_root_agrees_with_the_tower_gcd(case, coeffs):
    """Products of two generic curves: the points found through the first
    subresultant equal, field by field and germ by germ, those of the
    tower gcd that the search falls back on."""
    ws, d1, d2 = case
    it = iter(coeffs * 2)
    F = generic_curve(ws, d1, it) * generic_curve(ws, d2, it)
    fast = located(F, Weights(*ws))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wproj, "certified_irreducible", lambda S: False)
        assert located(F, Weights(*ws)) == fast


def test_a_certified_cluster_field_makes_no_unit_certificate(monkeypatch):
    """The one affine cluster of golden gallery-11 is certified, so its
    field is flagged: genus proves no coefficient a unit by a gcd with a
    minimal polynomial (_zgcd over Q, _pgcd above) over a tower whose
    every Level is flagged.  With the certificate refused, nothing is
    flagged, the certificate gcds come back, and the search finds the same
    points."""
    F = curve("(x0^2 + x1^2 - x2^2)*(x0^2 + x1^2 - 2*x2^2)")
    inside, seen, gcds = [], [], []
    validated = exactnum.is_zero_validated

    def validating(field, rep):
        seen.append(field)
        inside.append(field.is_field)
        try:
            return validated(field, rep)
        finally:
            inside.pop()

    def counted(name):
        fn = getattr(exactnum, name)

        def gcd(*args):
            if inside:
                gcds.append(inside[-1])
            return fn(*args)
        monkeypatch.setattr(exactnum, name, gcd)
    monkeypatch.setattr(resolve, "is_zero_validated", validating)
    monkeypatch.setattr(wproj, "is_zero_validated", validating)
    counted("_zgcd")
    counted("_pgcd")
    flagged = located(F, Weights(1, 1, 1))
    assert genus(F, Weights(1, 1, 1)).genus == -1
    assert any(f.depth and f.is_field for f in seen)
    assert True not in gcds
    seen.clear()
    gcds.clear()
    monkeypatch.setattr(wproj, "certified_irreducible", lambda S: False)
    assert located(F, Weights(1, 1, 1)) == flagged
    assert genus(F, Weights(1, 1, 1)).genus == -1
    assert seen and not any(lv.is_field for f in seen for lv in f.levels)
    assert gcds


def test_a_vanishing_leading_coefficient_skips_the_first_subresultant(
        monkeypatch):
    """On P(2,3,5) the degree-6 curve x0^3 + x1^2 has the chart slice
    1 + x^2, free of y, so lc_y F0 of its product F with a generic degree-10
    curve vanishes at their two crossings x = +-i.  The minimal polynomial
    x^2 + 1 of that cluster is certified irreducible, but S_1 cannot give v
    there: lc_y F0(u) is read off the slice before S_1 is computed, so
    first_subresultant does not run, and the points are those of the
    forced tower gcd."""
    F = curve("(x0^3 + x1^2)*(-3*x2^2 - x0*x1*x2 + 2*x0^2*x1^2 + x0^5)")
    verdicts = []
    certify = wproj.certified_irreducible
    monkeypatch.setattr(wproj, "certified_irreducible",
                        lambda S: verdicts.append(certify(S)) or verdicts[-1])
    s1 = spy(monkeypatch, wproj, "first_subresultant")
    fast = located(F, Weights(2, 3, 5))
    assert verdicts == [True] and s1 == []
    assert sorted((p.kind, p.multiplicity) for p in fast) == [
        ("affine", 2), ("vertex", 1), ("vertex", 1)]
    monkeypatch.setattr(wproj, "certified_irreducible", lambda S: False)
    assert located(F, Weights(2, 3, 5)) == fast


def test_the_first_subresultant_drops_a_tangency_off_the_singular_locus(
        capsys, monkeypatch):
    """F0(1, y) = y^2 (y - 1) has a vertical tangent at (1, 0) and a
    horizontal one at (1, 1), so x = 1 is a candidate of degree 1, which
    the certificate accepts.  S_1 gives v = 0, where F0_x(1, 0) = -1: the
    cluster is dropped, and the cubic is smooth away from [0 : 1 : 0]."""
    drops = []
    root = wproj._subresultant_root

    def recording(*args):
        points = root(*args)
        if points == []:
            drops.append(args[3].describe())
        return points
    monkeypatch.setattr(wproj, "_subresultant_root", recording)
    rc = main(["curve", "x2^3 - x2^2*x0 + (x1 - x0)*(x2 - x0)*x0"
               " + (x1 - x0)^2*x0", "--w", "1,1,1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["genus"] == "1"
    assert [p["point"] for p in doc["points"]] == ["[0 : 1 : 0]"]
    assert drops == ["Q"]


# the curve half of the metamorphic oracle: an automorphism of P(w) changes
# neither the genus nor the values at the singular points

PLANE_CURVES = [
    "x1^2*x2 - x0^3",                                   # cuspidal cubic
    "x1^2*x2 - x0^2*(x0 + x2)",                         # nodal cubic
    "x0^2*x1^2 + x1^2*x2^2 + x2^2*x0^2 - 2*x0*x1*x2*(x0 + x1 + x2)",
    "(x0^2 + x1^2 - x2^2)*(x0^2 + 2*x1^2 - x2^2)",      # tangent conics
    "x0*x1*x2*(x0 + x1 + x2)",
    "(x0^2 - x1*x2)*(x0 + x1 - 2*x2)*(x1 - x2)",
]
# curves on P(2,3,5) and P(2,3,7), each with the image of x2 under the
# automorphism x2 -> x2 + c x0 x1, resp. x2 + c x0^2 x1
WEIGHTED_CURVES = [
    ((2, 3, 5), "(x0^3 - x1^2)*(x2^2 - x0^5 + x0^2*x1^2)", "x2 + (%d)*x0*x1"),
    ((2, 3, 5), "x1*(x2^2 - x0^5 + x0^2*x1^2)", "x2 + (%d)*x0*x1"),
    ((2, 3, 5), "(x0^3 - x1^2)*(x0^3 - 2*x1^2)*(x2^2 - x0^5)", "x2 + (%d)*x0*x1"),
    ((2, 3, 7), "x0*x1*x2 + (x0^3 - x1^2)^2", "x2 + (%d)*x0^2*x1"),
    ((2, 3, 7), "x2^2 - x0*(x0^3 - x1^2)^2", "x2 + (%d)*x0^2*x1"),
]


def in_other_coordinates(text, images):
    """The curve text with each x_i replaced by (images[i])."""
    return re.sub(r"x([012])", lambda m: "(%s)" % images[int(m.group(1))], text)


def point_values(text, weights):
    """The genus, and the multiset of (delta_w / cluster, ambient) over the
    points with nonzero delta_w, each cluster expanded into its points."""
    rep = genus(curve(text), Weights(*weights))
    values = collections.Counter()
    for sp, dw in rep.points:
        if dw:
            values[dw / sp.multiplicity, str(sp.ambient)] += sp.multiplicity
    return rep.genus, values


def invertible_matrix(rng):
    while True:
        m = [[rng.choice([-1, 0, 1, 2]) for _ in range(3)] for _ in range(3)]
        if (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])):
            return m


def coordinate_changes(seed):
    """(weights, curve, images of x0, x1, x2): each curve of PLANE_CURVES
    under two random invertible integer matrices, and each of
    WEIGHTED_CURVES under its automorphism with a random c."""
    rng = random.Random(seed)
    for text in PLANE_CURVES:
        for _ in range(2):
            yield (1, 1, 1), text, [" + ".join("(%d)*x%d" % (c, j) for j, c in enumerate(row))
                                    for row in invertible_matrix(rng)]
    for weights, text, image in WEIGHTED_CURVES:
        yield weights, text, ["x0", "x1", image % rng.choice([-2, -1, 1, 2])]


# In these coordinates the triple point [1:3:0] and the node [1:3:2] share
# x1/x0 = 3, and the search lists them as one cluster of 2 with delta_w 4
# over Q(v), v^2 = 2v, which is not a field: per point that reads 2 and 2,
# where the original coordinates give 3 and 1.
PACKED_TRIPLE_POINT = (2, 11)


@pytest.mark.parametrize("seed, case", [
    pytest.param(seed, case, marks=[pytest.mark.xfail(
        strict=True, reason="a reducible cluster's points are listed as one "
        "packet, whose delta_w per point is an average")]
        if (seed, case) == PACKED_TRIPLE_POINT else [])
    for seed in (1, 2) for case in range(len(PLANE_CURVES) * 2 + len(WEIGHTED_CURVES))])
def test_the_genus_and_point_values_do_not_depend_on_the_coordinates(seed, case):
    """A curve in other coordinates (coordinate_changes) has the genus and
    the point values (point_values) it had.  Points move between the
    vertices, the axes and the affine chart, and between rational points
    and conjugate clusters, so the strata are checked against each other."""
    weights, text, images = list(coordinate_changes(seed))[case]
    moved = in_other_coordinates(text, images)
    assert point_values(moved, weights) == point_values(text, weights), moved
