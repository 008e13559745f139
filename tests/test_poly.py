import math

import pytest
from hypothesis import given, strategies as st

from conftest import QQ, germ
from qres.errors import (DegeneratePolygon, InternalInconsistency, NonExactDivision,
                         PolySyntaxError, UnknownVariable)
from qres.exactnum import Rat
from qres.poly import (SparsePoly, blowup_transform, choose_face,
                       choose_weights, content_in, face_poly,
                       is_squarefree_two_vars, newton_polygon, parse_poly,
                       poly_divmod, poly_exact_div, poly_gcd, resultant,
                       squarefree_discriminant, squarefree_part,
                       weighted_order)


def test_parse_basic():
    f = germ("x^2 - y^4")
    assert f.terms == {(2, 0): Rat(1), (0, 4): Rat(-1)}
    g = germ("2*x*y^3 + 1/2")
    assert g.terms == {(1, 3): Rat(2), (0, 0): Rat(1, 2)}
    assert germ("-(x - y)^2").terms == germ("-x^2 + 2*x*y - y^2").terms


@pytest.mark.parametrize("bad,exc", [
    ("z + 1", UnknownVariable),
    ("x +", PolySyntaxError),
    ("x^", PolySyntaxError),
    ("(x", PolySyntaxError),
    ("x ** 2", PolySyntaxError),
    ("", PolySyntaxError),
])
def test_parse_errors(bad, exc):
    with pytest.raises(exc):
        parse_poly(bad, ("x", "y"))


def test_str_parse_round_trip():
    for text in ("x^2 - y^4", "x*y + x^4 - 2*y^3*x^2 + y^6",
                 "1/2*x + 3", "-x", "x^3*y^2 - 7*y"):
        f = germ(text)
        assert germ(str(f)) == f


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
    moved = f.translate("x", QQ.from_rat(a))
    assert moved.translate("x", QQ.from_rat(-a)) == f


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
        p, q = choose_weights(f)
    except DegeneratePolygon:
        return
    nu = weighted_order(f, p, q)
    assert sum(1 for i, j in f.terms if p * i + q * j == nu) >= 2


def test_face_poly_of_cusp_like_germ():
    f = germ("x^3 - 2*x*y + 5*y^2 + y^5")
    np_ = newton_polygon(f)
    face = choose_face(np_)
    t = face_poly(f, face)
    # branch parameter t of y^p = t x^q picks up the face coefficients
    assert t.vars == ("t",)
    assert not t.is_zero()


def test_blowup_transform_charts():
    f = germ("x^2 - y^3")
    nu, strict = blowup_transform(f, 3, 2, 1)
    assert nu == 6 and strict == germ("1 - y^3")
    nu, strict = blowup_transform(f, 3, 2, 2)
    assert nu == 6 and strict == germ("x^2 - 1")


def test_squarefree_part_reconstructs_multiplicities():
    f = parse_poly("(y - 1)^2 * (y + 2)", ("y",))
    radical, factors = squarefree_part(f)
    assert [m for _, m in factors] == [1, 2]
    prod = SparsePoly(QQ, ("y",), {(0,): Rat(1)})
    for fac, m in factors:
        prod = prod * fac ** m
    assert prod == f
    assert radical == factors[0][0] * factors[1][0]
    assert radical == parse_poly("(y - 1) * (y + 2)", ("y",))


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


def test_poly_divmod_and_exact_division():
    f = parse_poly("y^3 - 1", ("y",))
    g = parse_poly("y - 1", ("y",))
    q, r = poly_divmod(f, g)
    assert r.is_zero() and q == parse_poly("y^2 + y + 1", ("y",))
    assert poly_exact_div(f, g) == q
    # exact division is an internal contract: failure is an engine bug,
    # not a user input error
    with pytest.raises(InternalInconsistency):
        poly_exact_div(parse_poly("y^2 + 1", ("y",)), g)


def test_content_in():
    f = germ("(y^2 + 1)*x^2 + (y^2 + 1)*y")
    assert content_in(f, "x") == parse_poly("y^2 + 1", ("y",))


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
    assert content_in(body, "x").is_constant()
    if body.degree_in("y") > 0:
        # same candidates as the discriminant resultant of the whole body
        full = resultant(body, body.derivative("y"), "y")
        assert radical_in_x(disc) == radical_in_x(full)


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
