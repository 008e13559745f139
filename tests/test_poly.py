import gc
import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import QQ, germ, qgcd, spy
from qres.errors import (DegeneratePolygon, InternalInconsistency,
                         NonExactDivision, PolySyntaxError, UnknownVariable)
from qres import exactnum, poly
from qres.exactnum import Rat, adjoin_root
from qres.poly import (SparsePoly, blowup_transform, choose_face, content_in,
                       is_squarefree_two_vars, newton_polygon, parse_poly,
                       poly_gcd, resultant,
                       squarefree_discriminant, squarefree_part,
                       weighted_order)


def test_parse_basic():
    f = germ("x^2 - y^4")
    assert f.terms == {(2, 0): Rat(1), (0, 4): Rat(-1)}
    g = germ("2*x*y^3 + 1/2")
    assert g.terms == {(1, 3): Rat(2), (0, 0): Rat(1, 2)}
    assert germ("-(x - y)^2").terms == germ("-x^2 + 2*x*y - y^2").terms
    assert germ("x^\u0662 - \u0663*y^3") == germ("x^2 - 3*y^3")  # decimal digits


def test_a_parse_leaves_no_garbage_for_the_collector():
    """The grammar's functions reach one another through their closures;
    a parse that succeeds, or one refused on a syntax error, breaks that
    cycle, so with the collector off it finds nothing afterwards."""
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            parse_poly("(x + 2*y)^3 - 3/4*x*y^2 + 5", ("x", "y"))
            with pytest.raises(PolySyntaxError):
                parse_poly("(x + y", ("x", "y"))
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("bad,exc", [
    ("z + 1", UnknownVariable),
    ("x +", PolySyntaxError),
    ("x^", PolySyntaxError),
    ("(x", PolySyntaxError),
    ("x ** 2", PolySyntaxError),
    ("", PolySyntaxError),
    ("x^2 - y^\u00b3", PolySyntaxError),          # superscript digits are
    ("x^2 - \u00b2*y", PolySyntaxError),          # no numbers
    ("x\u00b2 - y^3", UnknownVariable),
])
def test_parse_errors(bad, exc):
    with pytest.raises(exc):
        parse_poly(bad, ("x", "y"))


def test_parentheses_nest_to_a_bound():
    """MAX_NESTING levels parse; one more is refused at its '('."""
    depth = poly.MAX_NESTING
    assert germ("(" * depth + "x" + ")" * depth + " - y^2") == germ("x - y^2")
    with pytest.raises(PolySyntaxError, match="deeper than %d at position %d"
                       % (depth, depth)):
        germ("(" * (depth + 1) + "x" + ")" * (depth + 1) + " - y^2")


def test_str_parse_round_trip():
    for text in ("x^2 - y^4", "x*y + x^4 - 2*y^3*x^2 + y^6",
                 "1/2*x + 3", "-x", "x^3*y^2 - 7*y"):
        f = germ(text)
        assert germ(str(f)) == f


# leaves (numerator, denominator, text or ""), nodes ("^", tree, e) and
# (op, tree, tree); a coefficient of 4300 digits reaches 10^4300 in a sum
expr_trees = st.recursive(
    st.tuples(st.integers(0, 10 ** 999) | st.integers(0, 9),
              st.integers(1, 10 ** 40) | st.just(1),
              st.sampled_from(["", "", "x", "y", "5*10^4299",
                               "-7*10^4299*y"])),
    lambda inner: (st.tuples(st.just("^"), inner, st.integers(0, 12))
                   | st.tuples(st.sampled_from("*+-"), inner, inner)),
    max_leaves=6)


def _evaluate(tree, at=0):
    """(text, value, position of the first operator after which a
    coefficient has 10^4300 or more, or None) of a tree whose text starts
    at position at; operators are taken in the parser's order."""
    op, a, b = tree
    if not isinstance(op, str):
        text = b or "%d/%d" % (op, a)
        return text, germ(text), None
    ta, f, first = _evaluate(a, at + 1)
    if op == "^":
        text, f = "(%s)^%d" % (ta, b), f ** b
    else:
        tb, g, first_b = _evaluate(b, at + len(ta) + 4)
        text, first = "(%s)%s(%s)" % (ta, op, tb), first or first_b
        f = f * g if op == "*" else f + g if op == "+" else f - g
    if first is None and any(max(abs(c.numerator), c.denominator) >= 10 ** 4300
                             for c in f.terms.values()):
        first = at + len(ta) + 2
    return text, f, first


@given(expr_trees)
def test_parser_refuses_exactly_the_unprintable_coefficients(tree):
    """The parser's size bounds skip the scan only where it cannot fail."""
    text, value, first = _evaluate(tree)
    if first is not None:
        with pytest.raises(PolySyntaxError,
                           match="more than 4300 digits after '.' at "
                                 "position %d$" % first):
            parse_poly(text, ("x", "y"))
    else:
        assert parse_poly(text, ("x", "y")) == value


def test_parser_refuses_a_huge_power_before_expanding_it(monkeypatch):
    """(x+1)^20000 has coefficients of about 6000 digits, though its leading
    one is 1: the values of x + 1 at x = 1 and -1 refuse it unexpanded."""
    power = poly._dpow

    def no_huge_power(b, e, one, *ring):
        assert e != 20000, "the power was expanded"
        return power(b, e, one, *ring)
    monkeypatch.setattr(poly, "_dpow", no_huge_power)
    with pytest.raises(PolySyntaxError, match="after '\\^' at position 5$"):
        parse_poly("(x+1)^20000 - y", ("x", "y"))


small_polys = st.builds(
    lambda terms: SparsePoly(QQ, ("x", "y"),
                             {e: Rat(c) for e, c in terms.items()}),
    st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                    st.integers(-5, 5).filter(bool), max_size=4))


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == SparsePoly(QQ, ("x", "y"), {})


@given(small_polys, st.integers(1, 6), st.integers(1, 6))
def test_weighted_order_is_support_minimum(f, p, q):
    if f.is_zero():
        return
    assert weighted_order(f, p, q) == min(p * i + q * j for i, j in f.terms)


@given(small_polys, st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4))
def test_translate_round_trip(f, a):
    moved = f.lift_shift(QQ, (a,))
    assert moved.lift_shift(QQ, (-a,)) == f


@given(st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                       st.fractions(min_value=-9, max_value=9,
                                    max_denominator=6).filter(bool),
                       max_size=6),
       st.fractions(min_value=-5, max_value=5, max_denominator=12),
       st.fractions(min_value=-5, max_value=5, max_denominator=12))
def test_the_integer_taylor_shift_matches_fractions(terms, a, b):
    """Over Q, f(x + a, y + b) by the integer Taylor shift of each column
    equals sum c (x + a)^i (y + b)^j expanded in Fractions."""
    want = {}
    for (i, j), c in terms.items():
        for s in range(i + 1):
            for r in range(j + 1):
                want[s, r] = want.get((s, r), 0) + (
                    c * math.comb(i, s) * a ** (i - s)
                    * math.comb(j, r) * b ** (j - r))
    f = SparsePoly(QQ, ("x", "y"), terms)
    assert f.lift_shift(QQ, (a, b)) == SparsePoly(QQ, ("x", "y"), want)
    assert f.lift_shift(QQ, (a,)).lift_shift(QQ, (0, b)) == f.lift_shift(QQ, (a, b))


def test_newton_polygon_faces_cover_support():
    f = germ("x^4 + x*y + y^3")
    np_ = newton_polygon(f)
    for face in np_.faces:
        nu = weighted_order(f, face.p, face.q)
        on_face = [(i, j) for i, j in f.terms
                   if face.p * i + face.q * j == nu]
        assert len(on_face) >= 2


@given(small_polys)
def test_chosen_weights_minimize_over_the_face(f):
    if f.is_zero() or len(f.terms) < 2:
        return
    if any(i == 0 and j == 0 for i, j in f.terms):
        return
    if f.min_exp("x") > 0 or f.min_exp("y") > 0:
        return                       # polygon code expects axis-free input
    try:
        face = choose_face(newton_polygon(f))
    except DegeneratePolygon:
        return
    p, q = face.p, face.q
    nu = weighted_order(f, p, q)
    assert sum(1 for i, j in f.terms if p * i + q * j == nu) >= 2


def test_blowup_transform_charts():
    f = germ("x^2 - y^3")
    nu, strict1, strict2 = blowup_transform(f, 3, 2, 1, 1)
    assert nu == 6
    assert strict1 == germ("1 - y^3") and strict2 == germ("x^2 - 1")
    # x^4 has exceptional exponent 12 - 6 = 6 in both charts, which the
    # chart divisors divide
    g = germ("x^2 - y^3 + x^4")
    nu, strict1, strict2 = blowup_transform(g, 3, 2, 2, 3)
    assert nu == 6
    assert strict1 == germ("1 - y^3 + x^3")
    assert strict2 == germ("x^2 - 1 + x^4*y^2")
    with pytest.raises(InternalInconsistency):
        blowup_transform(g, 3, 2, 4, 1)


def test_squarefree_part_reconstructs_multiplicities():
    for text, mults, rad in [
            ("(y - 1)^2 * (y + 2)", [1, 2], "(y - 1) * (y + 2)"),
            ("3*y^3 * (y + 1)^2 * (2*y - 1)", [1, 2, 3],
             "y * (y + 1) * (y - 1/2)"),
            ("y^2 - 2", [1], "y^2 - 2"),
            ("(y^2 - 2)^3", [3], "y^2 - 2")]:
        f = parse_poly(text, ("y",))
        radical, factors = squarefree_part(f)
        assert [m for _, m in factors] == mults
        prod = product = SparsePoly(QQ, ("y",), {(0,): Rat(1)})
        for fac, m in factors:
            prod = prod * fac ** m
            product = product * fac
        assert prod * f.coeff_list()[-1] == f
        assert radical == product
        assert radical == parse_poly(rad, ("y",))


def test_squarefree_part_over_a_tower():
    field, s = adjoin_root(QQ, (Rat(-2), Rat(0)), "s")
    lin = SparsePoly.from_univariate(field, "y", [s, field.one()])
    f = lin ** 2 * parse_poly("y - 1", ("y",)).lift_shift(field)
    radical, factors = squarefree_part(f)
    assert [m for _, m in factors] == [1, 2]
    assert factors[1][0] == lin
    assert radical == factors[0][0] * factors[1][0]


def test_resultant_known_values():
    f = germ("y - x")
    g = germ("y - 2*x")
    assert resultant(f, g, "y") == germ("-x")
    assert resultant(germ("y^2 - x"), germ("y"), "y") == germ("-x")
    h = resultant(germ("y^2 - x^3"), germ("y^2 - 2*x^3"), "y")
    assert h == germ("x^6")


def test_resultant_symmetry_and_multiplicativity():
    f = germ("y^2 - x^3")
    g = germ("y - x")
    h = germ("y + 2*x^2")
    m, n = 2, 1
    assert resultant(f, g, "y") == germ("-1") ** (m * n) * resultant(g, f, "y")
    assert resultant(f, g * h, "y") == resultant(f, g, "y") * resultant(f, h, "y")


def test_resultant_vanishes_iff_common_factor():
    f = germ("(y - x) * (y + x^2)")
    g = germ("(y - x) * (y - 7)")
    assert resultant(f, g, "y").is_zero()
    assert not resultant(germ("y - x"), germ("y + x"), "y").is_zero()


def test_poly_gcd_univariate_monic():
    t2 = parse_poly("(y - 1) * (y + 1)", ("y",))
    t3 = parse_poly("(y - 1) * (y + 2)", ("y",))
    assert poly_gcd(t2, t3) == parse_poly("y - 1", ("y",))
    zero = SparsePoly(QQ, ("y",), {})
    assert poly_gcd(t2, zero) == parse_poly("(y-1)*(y+1)", ("y",))


def test_content_in():
    f = germ("(y^2 + 1)*x^2 + (y^2 + 1)*y")
    D, p = content_in(f, "x")
    assert D in ([1, 0, 1], [-1, 0, -1])
    assert SparsePoly(QQ, f.vars, {(0, i): Rat(c) for i, c in enumerate(D)}) * p == f


@pytest.mark.parametrize("text,expect", [
    ("(x + y)^2", False),
    ("(x + y)*(x - y)", True),
    ("x^2*(x + y)", False),
    ("x*y", True),
    ("x", True),
    ("y^2 - x^3", True),
    ("(y^2 - x^3)^2", False),
    ("x^2*y - y^2*x", True),       # x y (x - y)
])
def test_is_squarefree_two_vars(text, expect):
    assert is_squarefree_two_vars(germ(text)) is expect


# pairwise distinct irreducibles over Q
IRREDUCIBLES = ("x", "y", "x - 1", "y + 2", "y^2 - x^3", "y^2 - 2*x^2",
                "x*y - 1", "x^2 + y^2 + 1")


@given(st.lists(st.tuples(st.sampled_from(IRREDUCIBLES), st.integers(1, 2)),
                min_size=1, max_size=4, unique_by=lambda t: t[0]),
       st.sampled_from([1, -3, Rat(2, 5)]))
def test_is_squarefree_two_vars_on_products(factors, unit):
    f = germ("1").scale(Rat(unit))
    for text, m in factors:
        f = f * germ(text) ** m
    assert is_squarefree_two_vars(f) is all(m == 1 for _, m in factors)


def radical_in_x(r):
    assert r.degree_in("y") <= 0
    return squarefree_part(
        SparsePoly(QQ, ("x",), {(e[0],): c for e, c in r.terms.items()}))[0]


@pytest.mark.parametrize("text", [
    "x^2*y + y^3 + x - 1",
    "(x - 1)*(y^2 - x^3)",
    "(y + 2)*(x^2 - 3)*(y^2 - 2*x^2 + x)",
    "(x - 1)*(x + 2)",
    "y*(y - 1)",
])
def test_squarefree_discriminant_splits_the_contents(text):
    f = germ(text)
    q, body, disc = squarefree_discriminant(f)
    assert q.degree_in("x") <= 0 and q * body == f
    assert len(content_in(body, "x")[0]) == 1
    if body.degree_in("y") > 0:
        # same candidates as the discriminant resultant of the whole body
        full = resultant(body, body.derivative("y"), "y")
        disc = SparsePoly.from_univariate(QQ, "x", [Rat(c) for c in disc])
        assert squarefree_part(disc)[0] == radical_in_x(full)


def test_divide_var_exponents():
    f = germ("x^2*y^4 + y^2")
    assert f.divide_var_exponents("y", 2) == germ("x^2*y^2 + y")
    with pytest.raises(NonExactDivision):
        f.divide_var_exponents("x", 2).divide_var_exponents("y", 4)


def test_permute_and_with_vars():
    f = germ("x^2 - y^3")
    # permuting reorders the variable list, keeping each name's exponents;
    # renaming positionally afterwards is what swaps the two roles
    same = f.permute_vars((1, 0))
    assert same.vars == ("y", "x") and same.terms == {(0, 2): Rat(1),
                                                      (3, 0): Rat(-1)}
    assert same.with_vars(("x", "y")) == germ("y^2 - x^3")
    g = f.with_vars(("u", "v"))
    assert g.vars == ("u", "v") and g.terms == f.terms


# ---------------------------------------------------------------------------
# the elimination kernels over Q against oracles of their own

P61 = 2 ** 61 - 1

rationals = st.builds(Rat, st.integers(-6, 6), st.integers(1, 4))
scales = st.sampled_from([Rat(1), Rat(P61), Rat(1, P61), Rat(-3, 7)])


def bivariate(dx, dy):
    return st.builds(
        lambda terms: SparsePoly(QQ, ("x", "y"), terms),
        st.dictionaries(st.tuples(st.integers(0, dx), st.integers(0, dy)),
                        rationals.filter(bool), max_size=6))


def fraction_det(rows):
    """Determinant by Gaussian elimination over Q."""
    m = [list(r) for r in rows]
    det = Rat(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return Rat(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            c = m[i][k] / m[k][k]
            for j in range(k, len(m)):
                m[i][j] -= c * m[k][j]
    return det


def y_coeffs_at(f, x0):
    """f(x0, y) as a coefficient list in y, highest first."""
    out = [Rat(0)] * (f.degree_in("y") + 1)
    for (i, j), c in f.terms.items():
        out[-1 - j] += c * Rat(x0) ** i
    return out


def sylvester_det(fc, gc):
    a, b = len(fc) - 1, len(gc) - 1
    rows = [[Rat(0)] * i + fc + [Rat(0)] * (b - 1 - i) for i in range(b)]
    rows += [[Rat(0)] * i + gc + [Rat(0)] * (a - 1 - i) for i in range(a)]
    return fraction_det(rows)


def value_at(r, x0):
    return sum((c * Rat(x0) ** e[0] for e, c in r.terms.items()), Rat(0))


def assert_specializes(f, g):
    """Res_y(f, g) at x = x0 is the Sylvester determinant of f(x0, y) and
    g(x0, y), for x0 where neither leading coefficient in y vanishes."""
    if f.is_zero() or g.is_zero():
        assert resultant(f, g, "y").is_zero()
        return
    # the two leading coefficients have at most 6 roots between them
    x0 = next(x0 for x0 in range(2, 9) if y_coeffs_at(f, x0)[0]
              and y_coeffs_at(g, x0)[0])
    res = resultant(f, g, "y")
    assert res.degree_in("y") <= 0
    assert value_at(res, x0) == sylvester_det(y_coeffs_at(f, x0),
                                              y_coeffs_at(g, x0))


@given(bivariate(3, 3), bivariate(3, 3), scales, scales)
def test_resultant_specializes_to_the_sylvester_determinant(f, g, sf, sg):
    assert_specializes(f.scale(sf), g.scale(sg))


@pytest.mark.parametrize("f,g", [
    ("y^2 + 1", "y^3 + x*y"),
    ("1/2*y^3 + x", "y^2 + y"),
    ("y^3 + x", "3*y^2 - x*y"),
    ("y^3 + y + x", "y^3 + x"),
    # c * y^k, with f(x, 0) nonzero and zero
    ("y^2 + x", "3*y"),
    ("y^3 - x", "(x + 1)*y^2"),
    ("y^2 + 2*y + x", "1/2*x*y^3"),
    ("y^2 + x*y", "2*y"),
    ("y^3 + x*y", "(x - 1)*y^2"),
    ("y^2 - y", "x*y^3"),
    ("x*y^2", "y^2 + x"),
    # constant in y on either side and on both
    ("x^2 + 1", "y^2 + x"),
    ("y^3 + x", "x - 2"),
    ("3", "y - x"),
    ("x + 1", "2*x^2 - 1/3"),
])
def test_resultant_through_a_row_swap(f, g):
    """Sparse rows whose elimination meets a zero pivot, and the inputs
    c * y^k or constant in y."""
    assert_specializes(germ(f), germ(g))


def test_resultant_rejects_tower_coefficients():
    field, _ = adjoin_root(QQ, (Rat(-2), Rat(0)), "s")
    f, g = germ("y^2 - x").lift_shift(field), germ("y - x^2").lift_shift(field)
    with pytest.raises(ValueError):
        resultant(f, g, "y")


def test_contents_and_squarefreeness_reject_tower_coefficients(monkeypatch):
    """Elimination is over Q only: content_in and squarefree_discriminant,
    and so is_squarefree_two_vars, refuse a tower before any tower Euclid
    runs."""
    field, _ = adjoin_root(QQ, (Rat(-2), Rat(0)), "s")
    f = germ("(x - 1)*(y^2 - x)").lift_shift(field)
    euclid = spy(monkeypatch, exactnum, "_pgcd")
    for check in (lambda: content_in(f, "x"),
                  lambda: squarefree_discriminant(f),
                  lambda: is_squarefree_two_vars(f)):
        with pytest.raises(ValueError):
            check()
    assert euclid == []


def trimmed(w):
    w = list(w)
    while w and not w[-1]:
        w.pop()
    return w


def euclid_gcd(u, v):
    """Monic gcd over Q by plain Euclid, on coefficient lists low to high."""
    u, v = trimmed(u), trimmed(v)
    while v:
        r = u
        while len(r) >= len(v):
            c = r[-1] / v[-1]
            off = len(r) - len(v)
            r = trimmed([x - c * v[i - off] if i >= off else x
                         for i, x in enumerate(r)])
        u, v = v, r
    return [x / u[-1] for x in u] if u else []


univariate = st.lists(rationals, min_size=1, max_size=7)


@st.composite
def scaled_univariate(draw):
    """A univariate list whose coefficients may all be multiples of P61, or
    only its leading one."""
    u = [c * draw(scales) for c in draw(univariate)]
    if draw(st.booleans()):
        u[-1] = Rat(P61) * draw(st.integers(1, 3))
    return u


@given(scaled_univariate(), scaled_univariate())
def test_coprimality_certificate_is_sound(u, v):
    u, v = trimmed(u), trimmed(v)
    if not u or not v:
        return
    U, V = exactnum._zclear(u)[0], exactnum._zclear(v)[0]
    if U[-1] % P61 and V[-1] % P61 and exactnum._coprime_images(U, V):
        assert euclid_gcd(u, v) == [Rat(1)]
    assert qgcd(u, v) == euclid_gcd(u, v)


@given(scaled_univariate(), scaled_univariate(), scaled_univariate())
def test_gcd_recovers_a_common_factor(u, v, h):
    f, g, h = (SparsePoly.from_univariate(QQ, "y", c) for c in (u, v, h))
    if h.is_zero() or (f.is_zero() and g.is_zero()):
        return
    common = SparsePoly.from_univariate(QQ, "y", euclid_gcd(u, v))
    expect = euclid_gcd((h * common).coeff_list(), [])
    assert poly_gcd(f * h, g * h).coeff_list() == expect


def test_certificate_falls_back_on_multiples_of_the_prime(monkeypatch):
    images = spy(monkeypatch, exactnum, "_gcd_mod")
    primes = exactnum._primes()
    assert next(primes) == P61
    P2, P3 = next(primes), next(primes)

    def primes_used(u, v):
        images.clear()
        out = qgcd(u, v)
        return out, [p for _, _, p in images]
    # (y - 1)(y - 2) and P61*(y - 1)*y: the content P61 is divided out
    # (Gauss's lemma), so the first prime finds y - 1
    u = [Rat(2), Rat(-3), Rat(1)]
    v = [Rat(0), Rat(-P61), Rat(P61)]
    assert primes_used(u, v) == ([Rat(-1), Rat(1)], [P61])
    # a common factor P61*y + 1: P61 divides both leading coefficients and
    # is skipped; the gcd's leading coefficient P61 needs two more primes
    u = [Rat(-2), Rat(1 - 2 * P61), Rat(P61)]
    v = [Rat(-3), Rat(1 - 3 * P61), Rat(P61)]
    assert primes_used(u, v) == ([Rat(1, P61), Rat(1)], [P2, P3])
    # y + P61 and y are coprime over Q but equal mod P61: the candidate y
    # fails the trial division, and the next prime finds them coprime
    u, v = [Rat(P61), Rat(1)], [Rat(0), Rat(1)]
    assert primes_used(u, v) == ([Rat(1)], [P61, P2])


def ref_divide(u, v):
    """u / v over Q by long division; the remainder must be zero."""
    u, q = trimmed(u), [Rat(0)] * max(len(u) - len(v) + 1, 0)
    while len(u) >= len(v):
        c = u[-1] / v[-1]
        q[len(u) - len(v)] = c
        off = len(u) - len(v)
        u = trimmed([x - c * v[i - off] if i >= off else x
                     for i, x in enumerate(u)])
    assert not u
    return trimmed(q)


def ref_yun(u):
    """Yun's algorithm with Fraction Euclid: (radical, [(factor, m)]),
    all monic coefficient lists."""
    f = [c / u[-1] for c in u]

    def deriv(w):
        return [i * c for i, c in enumerate(w)][1:]
    a = euclid_gcd(f, deriv(f))
    w, y = ref_divide(f, a), ref_divide(deriv(f), a)
    radical, factors, m = w, [], 1
    while len(w) > 1:
        z = trimmed([c - d for c, d in zip(y + [Rat(0)] * len(w),
                                           deriv(w) + [Rat(0)] * len(y))])
        a = euclid_gcd(w, z)
        if len(a) > 1:
            factors.append((a, m))
        w, y, m = ref_divide(w, a), ref_divide(z, a), m + 1
    return radical, factors


big = st.integers(-2 ** 70, 2 ** 70).map(Rat)
pieces = st.lists(st.one_of(rationals, big), min_size=2, max_size=4).filter(
    lambda u: u[-1] != 0)


@given(st.lists(st.tuples(pieces, st.integers(1, 3)), min_size=1, max_size=3),
       scales)
def test_yun_over_q_matches_a_fraction_yun(parts, scale):
    f = SparsePoly(QQ, ("y",), {(0,): scale})
    for piece, e in parts:
        f = f * SparsePoly.from_univariate(QQ, "y", piece) ** e
    radical, factors = squarefree_part(f)
    rad, ref = ref_yun(f.coeff_list())
    assert radical.coeff_list() == rad
    assert [(fac.coeff_list(), m) for fac, m in factors] == ref


def test_yun_step_with_a_zero_z(monkeypatch):
    # on (y - 1)^3 the last step has z = y - w' = 0 and gcd(w, 0) = w
    gcds = spy(monkeypatch, exactnum, "_zgcd")
    radical, factors = squarefree_part(parse_poly("(y - 1)^3", ("y",)))
    assert radical == parse_poly("y - 1", ("y",))
    assert factors == [(parse_poly("y - 1", ("y",)), 3)]
    assert gcds[-1] == ([-1, 1], [])


def test_gcd_and_yun_over_q_make_no_fraction_division(monkeypatch):
    divisions = spy(monkeypatch, exactnum, "_pdivmod")
    for text in ("(y - 1)^2 * (y + 2)", "3*y^3 * (y + 1)^2 * (2*y - 1)",
                 "(y^2 - 2)^3", "(y - 1)^3", "1/2*y^4 - 7/3", "5"):
        squarefree_part(parse_poly(text, ("y",)))
    for a, b in (("y^2 - 1", "(y - 1)^2"), ("y", "0"), ("0", "3*y - 1"),
                 ("0", "0"), ("y^3 + 1/2", "2")):
        poly_gcd(parse_poly(a, ("y",)), parse_poly(b, ("y",)))
    # the certificate, through contents in x and in y
    for text in ("(x - 1)*(y^2 - x^3)", "(y + 2)*(x^2 - 3)*(y^2 - 2*x^2 + x)",
                 "(y - 1)^2*(x + 2)*(y - x^2)", "1/2*(x^2 - 1)*(3*y + 1)"):
        squarefree_discriminant(germ(text))
    assert divisions == []


# ---------------------------------------------------------------------------
# the evaluation probe of is_squarefree_two_vars against the exact path


# pure-x and pure-y contents, some vanishing at a probe point
contents = st.sampled_from([germ(t) for t in (
    "x", "x - 1", "x + 1", "x - 2", "3*x^2 - 1/2", "y", "y + 2", "2*y^2 - 1",
    "y - 1")])
factors = bivariate(2, 2).filter(lambda g: not g.is_zero())
exponents = st.integers(1, 2)


@st.composite
def products(draw):
    f = germ("1").scale(draw(rationals.filter(bool)) * draw(scales))
    for _ in range(draw(st.integers(1, 2))):
        f = f * draw(factors).scale(draw(scales)) ** draw(exponents)
    for _ in range(draw(st.integers(0, 2))):
        f = f * draw(contents) ** draw(exponents)
    return f


@given(products())
def test_probe_agrees_with_the_exact_certificate(f):
    assert is_squarefree_two_vars(f) is (squarefree_discriminant(f) is not None)


def test_every_probe_point_unlucky_falls_back(monkeypatch):
    # y^2 - g^2 = (y - g)(y + g) is squarefree, but g vanishes at every
    # probe point, where the image in y is y^2
    g = "*".join("(x - (%d))" % t for t in poly._PROBE_POINTS)
    f = germ("y^2 - (%s)^2" % g)
    exact = spy(monkeypatch, poly, "squarefree_discriminant")
    assert all(img == [0, 0, 1] for img in poly.probe_images(f, 1))
    assert is_squarefree_two_vars(f) is True
    assert exact == [(f,)]


@pytest.mark.parametrize("f,expect", [
    # the leading coefficient in y is a multiple of P61
    (germ("y^2").scale(Rat(P61)) - germ("x"), True),
    ((germ("y").scale(Rat(P61)) + germ("x")) ** 2, False),
    # every image in y is y^2
    (germ("y^2") - germ("x").scale(Rat(P61)), True),
])
def test_probe_falls_back_on_multiples_of_the_prime(monkeypatch, f, expect):
    exact = spy(monkeypatch, poly, "squarefree_discriminant")
    assert is_squarefree_two_vars(f) is expect
    assert exact == [(f,)]


def test_probe_decides_squarefree_inputs_alone(monkeypatch):
    exact = spy(monkeypatch, poly, "squarefree_discriminant")
    for text in ("y^2 - x^3", "x*y*(x - y)", "1/3*y^3 - 5/2*x^7", "x",
                 "(x + y)^40 - y^41", "(x - 1)*(y^2 + 1)", "7"):
        assert is_squarefree_two_vars(germ(text)) is True
    assert exact == []


@pytest.mark.parametrize("seed", range(6))
def test_probe_images_are_the_columns_summed_at_each_point_mod_p(seed):
    """Horner's rule mod P gives the naive sum of c t0^j mod P, on random
    columns of up to 800 entries, some zero and some beyond P."""
    rng = random.Random(seed)
    cols = [[rng.choice((0, rng.randint(-2 ** 200, 2 ** 200), P61 * rng.randint(1, 9)))
             for _ in range(rng.randint(0, 800))] for _ in range(rng.randint(1, 3))]
    cols[-1].append(rng.randint(1, 2 ** 70))
    f = SparsePoly(QQ, ("x", "y"), {(o, k): Rat(c) for k, col in enumerate(cols)
                                     for o, c in enumerate(col) if c})
    zcols = poly._zcolumns(f, 1)[0]
    for t0, image in zip(poly._PROBE_POINTS, poly.probe_images(f, 1)):
        naive = [sum(c * t0 ** j for j, c in enumerate(col)) % P61 for col in zcols]
        assert image == (naive if naive[-1] else [])


def subresultant_1_at(fc, gc):
    """(A, B) of S_1 = A y + B by definition: determinants of the first
    m + n - 3 columns of the subresultant matrix of fc and gc (coefficient
    lists, highest first, of degrees m > n) with its y^1 or y^0 column."""
    m, n = len(fc) - 1, len(gc) - 1
    width = m + n - 1
    rows = [[Rat(0)] * i + fc + [Rat(0)] * (width - m - 1 - i)
            for i in range(n - 1)]
    rows += [[Rat(0)] * i + gc + [Rat(0)] * (width - n - 1 - i)
             for i in range(m - 1)]
    return tuple(fraction_det([r[:width - 2] + [r[col]] for r in rows])
                 for col in (width - 2, width - 1))


def assert_first_subresultant(f, g):
    """first_subresultant agrees with subresultant_1_at at more points x0
    than its degree in x."""
    s1 = poly.first_subresultant(f, g, "y")
    assert s1.degree_in("y") <= 1
    for x0 in range(f.degree_in("x") * g.degree_in("y")
                    + g.degree_in("x") * f.degree_in("y") + 1):
        assert coefficients_at(s1, x0) == subresultant_1_at(
            y_coeffs_at(f, x0), y_coeffs_at(g, x0))


def coefficients_at(s1, x0):
    """(A(x0), B(x0)) for S_1 = A y + B."""
    return tuple(sum((c * Rat(x0) ** e[0] for e, c in s1.terms.items()
                      if e[1] == j), Rat(0)) for j in (1, 0))


def in_y(dy):
    """Polynomials of degree exactly dy in y, at most 2 in x."""
    coeff = st.lists(rationals, min_size=1, max_size=3)
    return st.builds(
        lambda cols, lead: SparsePoly(QQ, ("x", "y"), {
            (i, j): c for j, col in enumerate(cols + [lead])
            for i, c in enumerate(col)}),
        st.lists(coeff, min_size=dy, max_size=dy),
        coeff.filter(any))


@given(st.integers(2, 5).flatmap(lambda m: st.tuples(
    in_y(m), st.integers(1, m - 1).flatmap(in_y))), scales, scales)
def test_first_subresultant_is_the_determinant_by_definition(fg, sf, sg):
    f, g = fg
    assert_first_subresultant(f.scale(sf), g.scale(sg))


@pytest.mark.parametrize("f,g", [
    ("y^3 + x", "y^2 + 1"),               # a leading 2 x 2 minor is 0
    ("y^4 + x*y + 1", "y^2 + x"),
    ("y^5 - x", "y^3 + x*y"),
    ("(y^2 + 1)*(y + x)", "y^2 + 1"),     # gcd of degree 2: S_1 = 0
    ("y^2 + x*y", "x*y + 1/2"),           # S_1 = g
])
def test_first_subresultant_through_vanishing_minors(f, g):
    assert_first_subresultant(germ(f), germ(g))


def test_first_subresultant_is_the_gcd_where_it_is_linear():
    f = germ("(y - x)*(y - 2)*(y + 3*x)")
    s1 = poly.first_subresultant(f, f.derivative("y"), "y")
    # at x = 2 the roots x and 2 meet: the gcd is y - 2, and so is S_1
    a, b = coefficients_at(s1, 2)
    assert a and -b / a == 2
    assert poly.first_subresultant(germ("(y^2 + 1)*(y + x)"), germ("y^2 + 1"),
                                   "y").is_zero()
    with pytest.raises(ValueError):
        poly.first_subresultant(f.derivative("y"), f, "y")


# ---------------------------------------------------------------------------
# resultants on packed integers: graded supports against the determinants
# by definition


def assert_resultant(f, g):
    """resultant agrees with sylvester_det at more points x0 than its
    degree in x."""
    res = resultant(f, g, "y")
    assert res.degree_in("y") <= 0
    for x0 in range(f.degree_in("x") * g.degree_in("y")
                    + g.degree_in("x") * f.degree_in("y") + 1):
        assert value_at(res, x0) == sylvester_det(y_coeffs_at(f, x0),
                                                  y_coeffs_at(g, x0))


def assert_grading(f, g, m):
    """_grading finds a multiple of m, or where every m works (a lattice of
    rank <= 1) one above every exponent of x, and its beta and alphas hold
    on every term."""
    M, beta, alphas = poly._grading(poly._zcolumns(f, 1)[0], poly._zcolumns(g, 1)[0])
    assert M % m == 0 or M > max(f.degree_in("x"), g.degree_in("x"))
    for h, alpha in zip((f, g), alphas):
        assert all((e + beta * k - alpha) % M == 0 for e, k in h.terms)


small = st.integers(-4, 4).filter(bool)


@st.composite
def graded(draw, m, beta, dy):
    """A polynomial of degree dy in y whose terms x^e y^k have
    e = alpha - beta k mod m, with up to two terms per column."""
    alpha = draw(st.integers(0, m - 1))
    return SparsePoly(QQ, ("x", "y"), {
        ((alpha - beta * k) % m + m * i, k): Rat(draw(small))
        for k in range(dy + 1)
        for i in draw(st.sets(st.integers(0, 1), min_size=int(k == dy)))})


@st.composite
def quasi_homogeneous(draw, wx, wy, dy):
    """Terms x^e y^k on one line wx e + wy k = N, with k = dy among them:
    with the same weights for both inputs, a lattice of rank <= 1."""
    N = wy * dy + wx * draw(st.integers(0, 4))
    ks = [k for k in range(dy) if (N - wy * k) % wx == 0]
    ks = draw(st.sets(st.sampled_from(ks))) if ks else set()
    return SparsePoly(QQ, ("x", "y"), {
        ((N - wy * k) // wx, k): Rat(draw(small)) for k in ks | {dy}})


@st.composite
def graded_pairs(draw, degrees):
    """(f, g, m): f and g of y-degrees drawn from degrees, graded with the
    same m and beta, and with probability 1/3 times a common graded factor
    (a zero resultant); or, drawn as m = 0, quasi-homogeneous with the same
    weights, each column a single monomial (then m = 1 is returned)."""
    a, b = draw(degrees)
    m = draw(st.integers(0, 6))
    if m == 0:
        wx, wy = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return (draw(quasi_homogeneous(wx, wy, a)), draw(quasi_homogeneous(wx, wy, b)), 1)
    beta = draw(st.integers(0, m - 1))
    f, g = draw(graded(m, beta, a)), draw(graded(m, beta, b))
    if draw(st.integers(0, 2)) == 0:
        h = draw(graded(m, beta, 1))
        f, g = f * h, g * h
    return f, g, m


@given(graded_pairs(st.tuples(st.integers(1, 3), st.integers(1, 3))))
def test_resultant_on_graded_supports_is_the_determinant_by_definition(fgm):
    f, g, m = fgm
    assert_grading(f, g, m)
    assert_resultant(f, g)


@given(graded_pairs(st.integers(2, 4).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(1, a - 1)))))
def test_first_subresultant_on_graded_supports_is_the_determinant_by_definition(fgm):
    f, g, m = fgm
    assert_grading(f, g, m)
    assert_first_subresultant(f, g)


def test_a_grading_that_one_cross_term_breaks():
    """f = 1 + x y^2 + x^2 and f_y = 2 x y: the lattice of f's exponent
    differences has the basis (2, 0), (1, 2), and 1 + 2 beta is odd, so the
    stride m = 2 of x drops to 1."""
    f = germ("1 + x*y^2 + x^2")
    g = f.derivative("y")
    assert poly._grading(poly._zcolumns(f, 1)[0], poly._zcolumns(g, 1)[0])[0] == 1
    assert_resultant(f, g)
    assert_first_subresultant(f, g)


@pytest.mark.parametrize("w", [1, 2, 7])
def test_pack_and_unpack_round_trip(w):
    top = 2 ** (8 * w - 1) - 1
    for v in ([], [0, 0], [top], [-top], [top, -top, 0, top], [-top, 0, 0],
              [0, 1, -top, top, 0, 0, 0]):
        trimmed = list(v)
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        assert poly._zunpack(poly._zpack(v, w), w) == trimmed


def test_first_subresultant_of_a_linear_g_has_no_row_of_f():
    """With deg g = 1 the matrix of S_1 holds only rows of g, so B, bounded
    by them, need not fit f's coefficients, which no entry holds."""
    assert_first_subresultant(germ("y^3 + 2^80*x*y - 3^50"), germ("y + x"))
