"""Curves in weighted projective planes: weight normalization, degrees,
virtual genus, singular locus, and the genus computation.

Points are handled as Galois clusters.  The reducedness check and the
singular-locus search share one elimination: the squarefreeness
certificate of the chart slice (poly.squarefree_discriminant) already holds
the discriminant resultant, so the search adds only the resultant with the
x-derivative.  The cyclic symmetry of the chart collapses the candidate
roots to one polynomial per orbit, and candidate clusters only become tower
extensions after that cross-resultant filter (so smooth high-degree curves
never build a tower at all); one gcd of the eliminations, one radical and
one collapse make each cluster, in _cluster_field.  Each surviving cluster
carries its conjugacy multiplicity, and the local delta of the whole
cluster comes out of one resolution over the cluster's field.  Split
handling and the adjunction of chart radicals are exactnum's
(SplitEvent.targets, adjoin_radical), shared with the resolution engine.

The search runs over Q on primitive integer lists and slices the chart
system at an affine cluster's x = u once.  Its y-coordinate comes from the
first subresultant, with no tower gcd, where the cluster's minimal
polynomial is certified irreducible; elsewhere a tower gcd of the slices
finds it, in _gcd_points, which is the search's one split handler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (BadType, InternalInconsistency, NonDivisibleExponent,
                     NonExactDivision, NotQuasiHomogeneous, NotReduced,
                     PointNotOnCurve, ZeroPolynomial)
from .exactnum import (ExtField, Rat, SplitEvent, _add, _inv, _is_zero, _mul,
                       _neg, _pdivmod, _qpair, _sub, _zrem, adjoin_radical,
                       adjoin_root, format_rep, is_zero_validated, lift)
from .poly import (SparsePoly, _zcolumns, first_subresultant, poly_gcd,
                   resultant, squarefree_discriminant, squarefree_part)
from .quotsing import QuotType, SMOOTH, normalize_with_multipliers
from .resolve import EngineConfig, resolve_germ
from .invariants import delta_breakdown
from .zpoly import (_qmonic, _zden, _zderiv, _zgcd, _zgcd_all, _zmul,
                    certified_irreducible)

__all__ = [
    "Weights", "ProjPoint", "SingularPoint", "GenusReport", "parse_weights",
    "normalize_weights", "wdegree", "virtual_genus", "bezout",
    "smoothness_certificate", "localize", "singular_locus", "genus",
]

_QQ = ExtField(())
# the curve's reducedness check covers every germ cut from it
_NO_RECHECK = EngineConfig(check_reduced=False)


@dataclass(frozen=True)
class Weights:
    w0: int
    w1: int
    w2: int

    def __post_init__(self):
        if min(self.w0, self.w1, self.w2) < 1:
            raise BadType("weights must be positive, got %s" % (self,))
        if math.gcd(math.gcd(self.w0, self.w1), self.w2) != 1:
            raise BadType("weights %s have a common factor" % (self,))

    @property
    def wbar(self) -> int:
        return self.w0 * self.w1 * self.w2

    @property
    def total(self) -> int:
        return self.w0 + self.w1 + self.w2

    def __getitem__(self, i):
        return (self.w0, self.w1, self.w2)[i]

    def __str__(self):
        return "(%d,%d,%d)" % (self.w0, self.w1, self.w2)


def parse_weights(text: str) -> Weights:
    parts = text.replace("(", "").replace(")", "").split(",")
    if len(parts) != 3:
        raise BadType("expected three weights, got %r" % (text,))
    try:
        vals = [int(p.strip()) for p in parts]
    except ValueError:
        raise BadType("weights must be integers, got %r" % (text,))
    return Weights(*vals)


@dataclass(frozen=True)
class ProjPoint:
    field: ExtField
    coords: tuple          # three reps over field
    chart: int             # index of a coordinate equal to 1

    def __str__(self):
        return "[%s]" % (" : ".join(
            format_rep(self.field, c) for c in self.coords))


@dataclass(frozen=True)
class SingularPoint:
    point: ProjPoint
    germ: SparsePoly       # local equation, vars (x, y), over point.field
    ambient: QuotType
    multiplicity: int      # conjugate points in this cluster
    kind: str              # "vertex" | "affine" | "axis" | "manual"


@dataclass(frozen=True)
class GenusReport:
    genus: Rat
    virtual: Rat
    degree: int
    weights: Weights
    points: tuple          # (SingularPoint, delta of the whole cluster)
    warnings: tuple


# ---------------------------------------------------------------------------
# weights and degrees


def normalize_weights(w: Weights, F: SparsePoly):
    """Pass to pairwise coprime weights, rewriting the equation.

    Exponents of X_i are divided by d_i = gcd of the other two weights; the
    division must be exact (strip axis factors first otherwise)."""
    w, F, _ = _normalize(w, F)
    return w, F


def _normalize(w: Weights, F: SparsePoly):
    """normalize_weights, plus the accumulated exponent divisors (D_0, D_1,
    D_2): the point [x_0 : x_1 : x_2] of P(w) is [x_0^D_0 : x_1^D_1 : x_2^D_2]
    in the coordinates of the normalized weights."""
    if len(F.vars) != 3:
        raise BadType("weighted plane curves live in three variables")
    divisors = [1, 1, 1]
    while True:
        ws = (w.w0, w.w1, w.w2)
        ds = [math.gcd(ws[(i + 1) % 3], ws[(i + 2) % 3]) for i in range(3)]
        if ds == [1, 1, 1]:
            return w, F, tuple(divisors)
        for i in range(3):
            divisors[i] *= ds[i]
            if ds[i] > 1:
                try:
                    F = F.divide_var_exponents(F.vars[i], ds[i])
                except NonExactDivision:
                    raise NonDivisibleExponent(
                        "exponents of %s are not all divisible by %d; "
                        "factor the axis power out of the equation first"
                        % (F.vars[i], ds[i]))
        w = Weights(ws[0] // (ds[1] * ds[2]),
                    ws[1] // (ds[0] * ds[2]),
                    ws[2] // (ds[0] * ds[1]))


def wdegree(F: SparsePoly, w: Weights) -> int:
    if F.is_zero():
        raise ZeroPolynomial("the zero polynomial has no degree")
    if len(F.vars) != 3:
        raise BadType("weighted plane curves live in three variables")
    if F.is_constant():
        raise BadType("a nonzero constant equation defines no curve")
    degs = {}
    for e in sorted(F.terms):
        degs.setdefault(w.w0 * e[0] + w.w1 * e[1] + w.w2 * e[2], []).append(e)
    if len(degs) > 1:
        raise NotQuasiHomogeneous(
            "monomials fall in distinct weighted degrees: %s" % (
                "; ".join("degree %d: %s" % (d, degs[d][:4])
                          for d in sorted(degs))))
    return next(iter(degs))


def virtual_genus(d: int, w: Weights) -> Rat:
    """The paper's virtual genus g_{d,w} = d(d - |w|)/(2 wbar) + 1, with
    |w| = w0 + w1 + w2 and wbar = w0 w1 w2; in general a rational number.
    It equals the genus only of a quasi-smooth degree-d curve that misses
    the vertices; otherwise genus() subtracts delta_w at every singular
    point, vertices included."""
    return Rat(d * (d - w.total), 2 * w.wbar) + 1


def bezout(d1, d2, w: Weights) -> Rat:
    """Global intersection number of curves of degrees d1 and d2."""
    return Rat(d1 * d2, w.wbar)


def smoothness_certificate(d: int, w: Weights) -> bool:
    """True iff smooth curves of degree d transversal to the axes exist."""
    return d % w.wbar == 0


# ---------------------------------------------------------------------------
# chart slices


def _dehomogenize(F: SparsePoly, i: int) -> SparsePoly:
    """Set variable i to 1; remaining variables renamed (x, y), lower index
    first."""
    j, k = [t for t in range(3) if t != i]
    fld = F.field
    terms = {}
    for e, c in F.terms.items():
        key = (e[j], e[k])
        if key in terms:
            terms[key] = _add(fld.levels, fld.depth, terms[key], c)
        else:
            terms[key] = c
    return SparsePoly(fld, ("x", "y"), terms)


# ---------------------------------------------------------------------------
# localize


def localize(F: SparsePoly, w: Weights, P: ProjPoint):
    """Local equation and ambient type of the curve at P; the germ sits at
    the origin of the returned chart.  The singular-locus search and
    genus(points=...) both cut their germs here.  P's chart coordinate
    must be 1.  A coordinate that is zero is not translated by, so a point
    on a chart axis costs no tower arithmetic for it."""
    i = P.chart
    j, k = [t for t in range(3) if t != i]
    fld = P.field
    if not _is_zero(fld.levels, fld.depth,
                    _sub(fld.levels, fld.depth, P.coords[i], fld.one())):
        raise BadType("chart coordinate of %s is not 1" % (P,))
    slice_ = _dehomogenize(F, i)
    a, b = P.coords[j], P.coords[k]
    if (_is_zero(fld.levels, fld.depth, a)
            and _is_zero(fld.levels, fld.depth, b)):
        ambient, mx, my = normalize_with_multipliers(w[i], w[j], w[k])
        try:
            germ = slice_.divide_var_exponents("x", mx)
            germ = germ.divide_var_exponents("y", my)
        except NonExactDivision:
            raise NonDivisibleExponent(
                "the germ at %s does not descend along the normalization "
                "of X(%d;%d,%d); normalize the weights first"
                % (P, w[i], w[j], w[k]))
    else:
        germ, ambient = slice_.lift_shift(fld, (a, b)), SMOOTH
    # at an origin point the germ stays over F's field, not P's
    if germ.is_constant() or not _is_zero(
            germ.field.levels, germ.field.depth, germ.constant_term()):
        raise PointNotOnCurve("%s does not lie on the curve" % (P,))
    return germ, ambient


# ---------------------------------------------------------------------------
# singular locus: cluster search with split handling


def _gcd_points(field, u0, slices, tag: str):
    """The points of the cluster at x = u0 over field, as a list: [] where
    the gcd of the nonzero slices of (F0, F0_x, F0_y) in y is constant,
    else one point at a root of its squarefree part.  A SplitEvent of
    field's tower reruns it in every tower of its targets(), with u0 and
    the slices projected there, and concatenates their lists, so [] comes
    only once the data is uniform across the cluster."""
    try:
        g = None
        for sl in slices:
            sl = SparsePoly.from_univariate(field, "y", sl)
            if sl.is_zero():
                continue
            g = sl if g is None else poly_gcd(g, sl)
            if g.degree_in("y") == 0:
                return []
        if g is None:
            raise InternalInconsistency(
                "every defining equation vanished along a chart line of a "
                "reduced curve")
        rad, _ = squarefree_part(g)
        # Yun's radical is monic
        f2, v0 = adjoin_root(field, rad.coeff_list("y")[:-1], "v" + tag)
        return [(f2, lift(f2.levels, field.depth, f2.depth, u0), v0)]
    except SplitEvent as ev:
        if ev.levels != field.levels:
            raise
        return [point for f2, project in ev.targets()
                for point in _gcd_points(
                    f2, project(u0, field.depth),
                    [[project(c, field.depth) for c in sl] for sl in slices], tag)]


def _cluster_field(v, w: int, t_name: str, u_name: str):
    """The cluster of the candidate integer list v in x: (s, field, u), or
    None when s is constant.  s is the radical of v with its factor x^k
    stripped (the cofactor of gcd(v, v'), primitive) in x^w -> t, and
    field is Q(t, u) = Q[x]/S, S = s(x^w), with s(t) = 0 and u^w = t.
    Only t counts points.  Where certified_irreducible proves S irreducible
    (once per cluster), both Levels are flagged as fields: then s is
    irreducible and u^w - t is irreducible over Q(t).

    The root set of v is stable under scaling by w-th roots of unity, which
    is exactly what makes the collapse exact.  Neither adjunction can split.
    S is squarefree and s(0) != 0, as x^k is stripped, so s is squarefree,
    as adjoin_root requires, and t is a unit of Q(t): u^w - t is squarefree
    over every factor of Q(t), as adjoin_radical requires."""
    v = v[next(i for i, c in enumerate(v) if c):]
    if len(v) == 1:
        return None
    _, S, _ = _zgcd(v, _zderiv(v))
    if any(c for i, c in enumerate(S) if i % w):
        raise InternalInconsistency(
            "orbit collapse failed: the exponents of %s are not all "
            "multiples of %d" % (S, w))
    s, is_field = S[::w], certified_irreducible(S)
    field, t = adjoin_root(_QQ, _qmonic(s)[:-1], t_name, is_field=is_field)
    return (s,) + adjoin_radical(field, t, w, u_name, is_field=is_field)


def _x_column(r: SparsePoly):
    """A resultant of the search, free of y, as a primitive integer list
    in x."""
    if r.is_zero():
        raise InternalInconsistency(
            "a resultant of the singular-locus search vanished "
            "identically on a reduced curve")
    return _zcolumns(r, 1)[0][0]


def _affine_stratum(F0: SparsePoly, elimination, w0: int, tag: str):
    """Singular clusters of the chart slice F0 with x != 0 (any y).

    `elimination` is the squarefreeness certificate (q, body, disc) of F0
    that _check_reduced returns: F0 = q(y) * body, where the horizontal
    components q(y) = 0 are smooth and pairwise disjoint away from the
    axes, so only their crossings with the body enter; disc, an integer
    list in x, has the radical of Res_y(body, body_y).  Candidate
    x-coordinates of the body are the common roots of disc and
    Res_y(body, body_x), which is not computed where disc has one term.
    The one gcd of the two, times the crossing Res_y(body, q), goes to
    _cluster_field; a constant radical certifies the stratum empty.  Every
    polynomial over Q on the way is a primitive integer list.

    The squarefree candidate polynomial s(t) in t = x^w0 gives the field
    Q(t, u) = Q[x]/S, S = s(x^w0), u^w0 = t, which cannot split
    (_cluster_field).  The system (F0, F0_x, F0_y), read off F0's integer
    columns in y, is sliced at x = u once, by reduction mod s.  Where
    deg_y F0 >= 2 and _cluster_field has flagged Q(t, u) as a field (S is
    certified irreducible), _subresultant_root gives v outside any split
    handler: over a field _certify proves every nonzero element a unit, so
    S_1 cannot split.  Otherwise, or where S_1 cannot give v, the gcd of
    the slices does, in _gcd_points, its own split handler: a reducible
    level of Q(t, u) reruns it in the factor towers that
    SplitEvent.targets() names, and the cluster is listed as those packets.
    Hence the guard: over a reducible tower S_1 can give one v, and one
    cluster where the gcd lists several.  Returns a list of (field, u, v)."""
    if F0.degree_in("x") == 0 or F0.degree_in("y") == 0:
        return []
    q, body, disc = elimination
    v = [1]
    if body.degree_in("y") > 0 and any(disc[:-1]):
        v = _zgcd(disc, _x_column(
            resultant(body, body.derivative("x"), "y")))[0]
    if q.degree_in("y") > 0 and not body.is_constant():
        v = _zmul(v, _x_column(resultant(body, q, "y")))
    cluster = _cluster_field(v, w0, "t" + tag, "u" + tag)
    if cluster is None:
        return []
    s, field, u0 = cluster

    def at_u(c):
        # c(x) over Q at x = u: c mod s, or for w0 > 1 the tuple of the
        # c_r mod s, c = sum_r x^r c_r(x^w0), which for a linear s are
        # rationals, the coordinates of one element over Q
        if w0 == 1:
            return _zrem(c, s)
        parts = [_zrem(c[r::w0], s) for r in range(w0)]
        return tuple(parts) if len(s) > 2 else _qpair(*_zden(parts))

    # (F0, F0_x, F0_y) by columns in y, each an integer list in x
    cols, _ = _zcolumns(F0, 1)
    system = (cols, [_zderiv(c) for c in cols],
              [[j * c for c in col] for j, col in enumerate(cols)][1:])
    slices = [[at_u(c) for c in sy] for sy in system]
    if F0.degree_in("y") >= 2 and field.is_field:
        points = _subresultant_root(F0, slices, at_u, field, u0)
        if points is not None:
            return points
    return _gcd_points(field, u0, slices, tag)


def _subresultant_root(F0, slices, at_u, field, u0):
    """The point (field, u0, v) of the cluster at x = u0 over the field
    Q[x]/S of _affine_stratum, as a list: [] where the cluster is spurious,
    None where S_1 cannot give v.

    slices are those of (F0, F0_x, F0_y) at x = u, and at_u slices an
    integer column in x the same way, here those of S_1 in y.  The
    candidates make F0(u, y) and F0_y(u, y) share a root, so where
    lc_y F0(u) and A(u) are nonzero their gcd is S_1(u) = A(u) y + B(u)
    and v = -B(u)/A(u); lc_y F0(u) is read off the slice first, so S_1 is
    only computed where it can serve.  F0_x(u, v) = 0 keeps the point."""
    lv, k = field.levels, field.depth
    if _is_zero(lv, k, slices[0][-1]):
        return None
    s1 = _zcolumns(first_subresultant(F0, F0.derivative("y"), "y"), 1)[0] + [[], []]
    a = at_u(s1[1])
    if _is_zero(lv, k, a):
        return None
    minus_v = _mul(lv, k, at_u(s1[0]), _inv(lv, k, a))
    # F0_x(u, v) is the remainder of F0_x(u, y) mod y - v
    if not is_zero_validated(field, _pdivmod(lv, k, slices[1], (minus_v,))[1][0]):
        return []
    return [(field, u0, _neg(lv, k, minus_v))]


def _axis_stratum(F0: SparsePoly, axis_divides: bool, w_chart: int, tag: str):
    """Singular clusters on the chart line x = 0 away from the chart origin.

    When the line is a component of the curve, every crossing with the rest
    of it counts; otherwise the sliced derivative system decides.  The one
    gcd runs over Q on integer lists, and _cluster_field makes its cluster:
    the candidate field Q(t, v), v^w_chart = t, which cannot split, so this
    stratum needs no split handling.  Returns a list of (field, v) with at
    most one entry."""
    # F0(0, y), F0_x(0, y), F0_y(0, y): F0's columns 0 and 1 in x and the
    # derivative of column 0; where x divides F0, only (F0 / x)(0, y) is left
    cols = _zcolumns(F0, 0)[0] + [[], []]
    g = _zgcd_all((cols[0], cols[1], _zderiv(cols[0])))
    if not g:
        raise InternalInconsistency(
            "a repeated axis factor survived the reducedness check"
            if axis_divides else
            "the sliced system of a reduced curve vanished identically")
    cluster = _cluster_field(g, w_chart, "t" + tag, "v" + tag)
    return [cluster[1:]] if cluster else []


def _check_reduced(F: SparsePoly):
    """Raise NotReduced unless the curve is reduced; else return the chart
    slice F0 = F(1, x, y) and its certificate from squarefree_discriminant.

    The only curve inside the line x0 = 0 is that line, so F is reduced
    iff no coordinate axis divides it twice and F0 is squarefree."""
    if max(F.min_exp(v) for v in F.vars) > 1:
        raise NotReduced("a coordinate axis divides the equation twice")
    F0 = _dehomogenize(F, 0)
    elimination = squarefree_discriminant(F0)
    if elimination is None:
        raise NotReduced("the equation has a repeated factor")
    return F0, elimination


def singular_locus(F: SparsePoly, w: Weights):
    """Points where the curve is singular, plus every vertex on the curve
    (vertices carry orbifold structure even when the germ looks smooth).

    A cluster of conjugate points comes back as one SingularPoint with a
    multiplicity, and every point gets its germ from localize.  Complete as
    long as every cluster's coordinate degree fits in the tower bound that
    exactnum.adjoin_root enforces (QRES_EXT_BOUND); overflow raises
    ExtensionOverflow rather than dropping points."""
    w, F = normalize_weights(w, F)
    wdegree(F, w)
    F0, elimination = _check_reduced(F)
    points = []

    def add(P, kind):
        germ, ambient = localize(F, w, P)
        points.append(SingularPoint(point=P, germ=germ, ambient=ambient,
                                    multiplicity=P.field.cluster_size,
                                    kind=kind))

    for i in range(3):
        coords = [Rat(0)] * 3
        coords[i] = Rat(1)
        try:
            add(ProjPoint(_QQ, tuple(coords), i), "vertex")
        except PointNotOnCurve:
            pass

    # chart 0 with x1 != 0 (the line x1 = 0 is handled separately below)
    for field, u0, v0 in _affine_stratum(F0, elimination, w.w0, "a"):
        add(ProjPoint(field, (field.one(), u0, v0), 0), "affine")

    # the line x1 = 0 inside chart 0 (so x2 != 0)
    for field, v0 in _axis_stratum(F0, F.min_exp(F.vars[1]) > 0, w.w0, "b"):
        add(ProjPoint(field, (field.one(), field.zero(), v0), 0), "axis")

    # the line x0 = 0 via chart 1 (so x2 != 0)
    F1 = _dehomogenize(F, 1)
    for field, v0 in _axis_stratum(F1, F.min_exp(F.vars[0]) > 0, w.w1, "d"):
        add(ProjPoint(field, (field.zero(), field.one(), v0), 1), "axis")

    return points


def _orbit_key(P: ProjPoint, w: Weights):
    """The coordinates of the rational point P, up to mu_{w_i} on its chart
    i.  On pairwise coprime weights the only element keeping a rational
    point rational is -1 (w_i even), which sends x_j to (-1)^{w_j} x_j."""
    if w[P.chart] % 2:
        return P.coords
    return min(P.coords, tuple(-c if w[t] % 2 else c
                               for t, c in enumerate(P.coords)))


def _power_point(P: ProjPoint, divisors) -> ProjPoint:
    """[x_0^D_0 : x_1^D_1 : x_2^D_2] of the rational point P; the chart
    coordinate stays 1."""
    return ProjPoint(P.field, tuple(c ** e for c, e in zip(P.coords, divisors)),
                     P.chart)


def _int_root(m: int, n: int):
    """The integer r >= 0 with r^n = m, for m >= 1, or None."""
    r = 1 << -(-m.bit_length() // n)          # r^n > m
    while True:
        s = ((n - 1) * r + m // r ** (n - 1)) // n
        if s >= r:
            return r if r ** n == m else None
        r = s


def _to_chart_one(P: ProjPoint, w: Weights) -> ProjPoint:
    """The rational point P with its chart coordinate x_i made 1 by
    x_j -> lam^{w_j} x_j, lam^{w_i} = 1/x_i; BadType when no rational lam
    exists."""
    c = P.coords[P.chart]
    if c in (0, 1):
        return P
    q, wi = 1 / Rat(c), w[P.chart]
    num = _int_root(abs(q.numerator), wi)
    den = _int_root(q.denominator, wi)
    if num is None or den is None or (q < 0 and wi % 2 == 0):
        raise BadType(
            "the chart coordinate of %s is %s; making it 1 needs a rational "
            "lam with lam^%d = %s, and there is none" % (P, c, wi, q))
    lam = Rat(num if q > 0 else -num, den)
    return ProjPoint(P.field, tuple(x * lam ** w[j]
                                    for j, x in enumerate(P.coords)), P.chart)


def genus(F: SparsePoly, w: Weights, points=None) -> GenusReport:
    """Genus of the reduced curve F = 0: virtual genus of its degree minus
    the local delta at every singular point (vertices included).  The
    search and the resolutions share one tower bound, QRES_EXT_BOUND, which
    exactnum.adjoin_root reads each time it adjoins a root.

    With `points` (ProjPoints over Q; one over a tower raises BadType) the
    search is skipped and the curve is localized at exactly those points,
    reported with kind "manual"; the value is only the genus if they
    include every singular point and vertex on the curve.  The points are
    read in the coordinates of the weights w as given.  A point whose
    chart coordinate x_i is not 1 is first rescaled to
    [lam^w_0 x_0 : lam^w_1 x_1 : lam^w_2 x_2] with lam^{w_i} = 1/x_i, and
    raises BadType when no rational lam exists.
    When w is not normalized, each [x_0 : x_1 : x_2] then becomes
    [x_0^D_0 : x_1^D_1 : x_2^D_2] (D_i the exponent divisor of x_i in the
    normalization), and the report, like the rest of it, holds them in the
    normalized coordinates.  A point listed twice raises BadType: the same
    coordinates, or two rational points of one chart that its cyclic group
    mu_{w_i} maps onto each other (such as [1:1:1] and [1:-1:-1] on
    P(2,3,5)), compared after that change of coordinates."""
    given = w
    w, F, divisors = _normalize(w, F)
    d = wdegree(F, w)
    virt = virtual_genus(d, w)
    warnings = []
    if points is None:
        located = singular_locus(F, w)
        if (any(F.min_exp(v) > 0 for v in F.vars)
                and sum(map(sum, F.terms)) > 1):   # F is not c*x_i itself
            warnings.append(
                "the curve contains a coordinate axis, so it is reducible "
                "and the genus value is virtual")
    else:
        _check_reduced(F)
        if any(P.field.depth for P in points):
            raise BadType("a point given to genus must have rational coordinates")
        moved = [_power_point(_to_chart_one(P, given), divisors)
                 for P in points]
        if len({_orbit_key(P, w) for P in moved}) != len(moved):
            raise BadType("a point is listed twice")
        located = []
        for P, Q in zip(points, moved):
            try:
                germ, ambient = localize(F, w, Q)
            except PointNotOnCurve:
                raise PointNotOnCurve("%s does not lie on the curve" % (P,))
            located.append(SingularPoint(point=Q, germ=germ, ambient=ambient,
                                         multiplicity=1, kind="manual"))
    total = Rat(0)
    enriched = []
    for sp in located:
        tree = resolve_germ(sp.germ, sp.ambient, config=_NO_RECHECK)
        dsum = delta_breakdown(tree).total
        total += dsum
        enriched.append((sp, dsum))
    g = virt - total
    if g.denominator != 1 or g < 0:
        if points is None:
            warnings.append(
                "the genus is not a non-negative integer, so the curve is "
                "reducible and the value is virtual")
        else:
            warnings.append(
                "the genus came out as %s, not a non-negative integer; the "
                "curve is reducible (or points are missing) and the value "
                "is virtual" % (g,))
    return GenusReport(genus=g, virtual=virt, degree=d, weights=w,
                       points=tuple(enriched), warnings=tuple(warnings))
