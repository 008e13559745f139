import itertools
import math
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, strategies as st

from conftest import qgcd, spy
from test_golden import CASES, run_cli
from qres.errors import (BadType, DivisionByZero, ExtensionOverflow,
                         InternalInconsistency, NotInvertible)
from qres import exactnum, poly, resolve, wproj
from qres.poly import SparsePoly
from qres.exactnum import (ExtField, Rat, SplitEvent, _add, _inv, _is_zero,
                           _mul, _neg, _pdeg, _pgcd, _pmul, _psub,
                           _ptrim, _smul, _sub, _zero, adjoin_radical,
                           adjoin_root, format_rep, is_zero_validated, lift,
                           mod_inverse)

QQ = ExtField(())


def test_mod_inverse_exhaustive():
    for d in range(2, 61):
        for a in range(d):
            if math.gcd(a, d) == 1:
                inv = mod_inverse(a, d)
                assert 1 <= inv < d
                assert (a * inv) % d == 1
            else:
                with pytest.raises(NotInvertible):
                    mod_inverse(a, d)


def test_mod_inverse_edge_conventions():
    assert mod_inverse(7, 1) == 0
    assert mod_inverse(0, 1) == 0
    with pytest.raises(ValueError):
        mod_inverse(3, 0)


def sqrt2_field():
    return adjoin_root(QQ, (Rat(-2), Rat(0)), "s")


def test_adjoin_sqrt2():
    F, s = sqrt2_field()
    L, k = F.levels, F.depth
    assert F.depth == 1 and F.degree == 2
    assert _mul(L, k, s, s) == F.from_rat(2)
    one = F.one()
    s_plus_1, s_minus_1 = _add(L, k, one, s), _sub(L, k, s, one)
    assert _mul(L, k, s_plus_1, s_minus_1) == one   # (sqrt2+1)(sqrt2-1) = 1
    assert _inv(L, k, s_plus_1) == s_minus_1


def test_nested_tower():
    F, r2 = sqrt2_field()
    F2, c = adjoin_root(F, (F.from_rat(-5), F.zero(), F.zero()), "c")
    L, k = F2.levels, F2.depth
    assert F2.degree == 6
    assert _mul(L, k, _mul(L, k, c, c), c) == F2.from_rat(5)
    s = lift(L, 1, 2, r2)
    assert _mul(L, k, s, s) == F2.from_rat(2)


rats = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@given(rats, rats, rats, rats, rats, rats)
def test_field_axioms_on_quadratic_tower(a0, a1, b0, b1, c0, c1):
    F, s = sqrt2_field()
    L, k = F.levels, F.depth

    def elem(u, v):
        return _add(L, k, F.from_rat(u), _smul(L, k, Rat(v), s))

    x, y, z = elem(a0, a1), elem(b0, b1), elem(c0, c1)
    assert _mul(L, k, _add(L, k, x, y), z) == \
        _add(L, k, _mul(L, k, x, z), _mul(L, k, y, z))
    assert _mul(L, k, x, _mul(L, k, y, z)) == _mul(L, k, _mul(L, k, x, y), z)
    assert _add(L, k, x, y) == _add(L, k, y, x)
    assert _is_zero(L, k, _sub(L, k, x, x))
    if not _is_zero(L, k, y):
        assert _mul(L, k, _mul(L, k, x, _inv(L, k, y)), y) == x


def test_division_by_zero():
    F, _ = sqrt2_field()
    with pytest.raises(DivisionByZero):
        _inv(F.levels, F.depth, F.zero())


def test_zero_divisor_splits_the_tower():
    # t^2 - 1 is squarefree but reducible; inverting t - 1 must not succeed
    F, root = adjoin_root(QQ, (Rat(-1), Rat(0)), "t")
    with pytest.raises(SplitEvent) as info:
        _inv(F.levels, F.depth, _sub(F.levels, F.depth, root, F.one()))
    out = info.value
    assert out.k == 0 and out.counts_points
    fields = out.targets()
    assert len(fields) == 2
    roots = set()
    for f2, project in fields:
        assert f2.depth == 0            # both factors are linear: collapse
        roots.add(project(root, 1))
    assert roots == {Rat(1), Rat(-1)}


def test_split_event_projects_upper_levels():
    # adjoin t with t^2 = 1, then u with u^2 = t + 3; splitting t rewrites
    # the minimal polynomial of u in each factor
    F, t_rep = adjoin_root(QQ, (Rat(-1), Rat(0)), "t")
    tail = (_neg(F.levels, F.depth, _add(F.levels, F.depth, t_rep,
                                          F.from_rat(3))), F.zero())
    F2, u_rep = adjoin_root(F, tail, "u")
    L, k = F2.levels, F2.depth
    with pytest.raises(SplitEvent) as info:
        _inv(L, k, _sub(L, k, lift(L, 1, 2, t_rep), F2.one()))
    for f2, project in info.value.targets():
        assert f2.depth == 1            # u-level survives over each root
        u2 = project(u_rep, 2)
        sq = _mul(f2.levels, f2.depth, u2, u2)
        assert sq == f2.from_rat(4) or sq == f2.from_rat(2)


@pytest.mark.parametrize("counts_points", [True, False])
def test_split_targets_follow_the_level_kind(counts_points):
    # t^3 = 1 splits as (t - 1)(t^2 + t + 1); inverting either factor
    # finds it first, so the smaller tail comes as g once and as h once
    F, t = (adjoin_root(QQ, (Rat(-1), Rat(0), Rat(0)), "t") if counts_points
            else adjoin_radical(QQ, Rat(1), 3, "t"))
    L, k = F.levels, F.depth
    t_minus_1 = _sub(L, k, t, F.one())
    quadratic = _add(L, k, _mul(L, k, t, t), _add(L, k, t, F.one()))
    for zero_divisor, g_degree in ((t_minus_1, 1), (quadratic, 2)):
        with pytest.raises(SplitEvent) as info:
            _inv(L, k, zero_divisor)
        ev = info.value
        assert len(ev.g_tail) == g_degree
        targets = ev.targets()
        if counts_points:
            # two packets of conjugate points: continue in both
            assert sorted(f2.degree for f2, _ in targets) == [1, 2]
        else:
            # local coordinates only: the smaller factor, where t = 1
            (f2, project), = targets
            assert f2.depth == 0 and project(t, 1) == 1


def test_adjoin_radical():
    F, s = sqrt2_field()
    assert adjoin_radical(F, s, 1, "u") == (F, s)
    F2, u = adjoin_radical(F, s, 2, "u")
    assert F2.degree == 4 and F2.cluster_size == 2
    assert not F2.levels[-1].counts_points
    L, k = F2.levels, F2.depth
    assert _mul(L, k, u, u) == lift(L, 1, 2, s)


def test_cluster_size_skips_uncounted_levels():
    F, _ = adjoin_radical(QQ, Rat(2), 2, "s")
    F2, _ = adjoin_root(F, (F.from_rat(-3), F.zero(), F.zero()), "r")
    assert F.cluster_size == 1
    assert F2.degree == 6 and F2.cluster_size == 3


def test_extension_bound(monkeypatch):
    monkeypatch.setenv("QRES_EXT_BOUND", "2")
    with pytest.raises(ExtensionOverflow):
        adjoin_root(QQ, (Rat(-5), Rat(0), Rat(0)), "c")
    monkeypatch.setenv("QRES_EXT_BOUND", "3")
    adjoin_root(QQ, (Rat(-5), Rat(0), Rat(0)), "c")


def test_the_bound_is_checked_before_the_squarefree_gcd(monkeypatch):
    """A degree above the bound is refused first, before the w-term tail
    of a radical or any storey is built, and with no gcd; here on t^w,
    which no caller adjoins."""
    F, s = sqrt2_field()

    def refused(*args):
        raise AssertionError("the squarefree gcd ran over the bound")
    monkeypatch.setattr(exactnum, "_pgcd", refused)
    w = 10 ** 5
    with pytest.raises(ExtensionOverflow, match="tower degree 200000 "):
        adjoin_radical(F, s, w, "u")
    with pytest.raises(ExtensionOverflow, match="tower degree 100000 "):
        adjoin_root(QQ, (Rat(0),) * w, "t")


def test_ext_bound_parsing(monkeypatch):
    monkeypatch.delenv("QRES_EXT_BOUND", raising=False)
    assert exactnum.ext_bound() == 16
    for raw, want in (("5", 5), ("0", None), ("-3", None)):
        monkeypatch.setenv("QRES_EXT_BOUND", raw)
        assert exactnum.ext_bound() == want
    monkeypatch.setenv("QRES_EXT_BOUND", "abc")
    with pytest.raises(BadType, match="QRES_EXT_BOUND must be an integer"):
        exactnum.ext_bound()


def test_pdiv_exact():
    # (t^2 - 1) / (t - 1) = t + 1; t^2 + 1 is not a multiple of t - 1
    assert exactnum._pdiv_exact((), 0, [Rat(-1), Rat(0), Rat(1)],
                                [Rat(-1), Rat(1)]) == [Rat(1), Rat(1)]
    with pytest.raises(InternalInconsistency):
        exactnum._pdiv_exact((), 0, [Rat(1), Rat(0), Rat(1)],
                             [Rat(-1), Rat(1)])


def test_degree_one_adjunction_is_free():
    F, root = adjoin_root(QQ, (Rat(-7),), "t")
    assert F.depth == 0 and root == Rat(7)


def test_is_zero_validated():
    F, root = sqrt2_field()
    assert is_zero_validated(F, F.zero())
    assert not is_zero_validated(F, root)
    Fr, rr = adjoin_root(QQ, (Rat(-1), Rat(0)), "t")
    with pytest.raises(SplitEvent):
        is_zero_validated(Fr, _sub(Fr.levels, Fr.depth, rr, Fr.one()))


def test_format_rep():
    F, root = sqrt2_field()
    assert format_rep(F, root) == "s"
    assert format_rep(F, _add(F.levels, F.depth,
                              _smul(F.levels, F.depth, Rat(3, 2), root),
                              F.from_rat(Rat(1, 2)))) == "1/2 + 3/2*s"
    assert format_rep(F, F.zero()) == "0"
    assert F.describe() == "Q(s:deg 2)"


# elements (P, d) of s^2 = 2, of t^3 = 2 and of u^2 = 3 over Q(s), and the
# bytes that format_rep printed when their coordinates were Fractions
FORMATTED = [
    ("s", ((1, 3), 2), "1/2 + 3/2*s"),
    ("s", ((-3, 4), 2), "-3/2 + 2*s"),
    ("s", ((0, -1), 1), "-1*s"),
    ("s", ((5, 0), 1), "5"),
    ("s", ((0, 0), 1), "0"),
    ("s", ((-21, -1), 3), "-7 + -1/3*s"),
    ("s", ((0, 1), 1), "s"),
    ("s", ((-2, 0), 3), "-2/3"),
    ("t", ((4, 0, -1), 4), "1 + -1/4*t^2"),
    ("t", ((0, 5, 2), 2), "5/2*t + t^2"),
    ("u", (((1, 0), 2), ((0, -1), 1)), "1/2 + -1*s*u"),
    ("u", (((0, 0), 1), ((3, 1), 3)), "(1 + 1/3*s)*u"),
    ("u", (((-2, 1), 1), ((0, 1), 1)), "(-2 + s) + s*u"),
]


@pytest.mark.parametrize("name, rep, text", FORMATTED)
def test_format_rep_prints_each_coordinate_as_its_fraction(name, rep, text):
    F, _ = sqrt2_field()
    field = {"s": F, "t": adjoin_root(QQ, (Rat(-2), Rat(0), Rat(0)), "t")[0],
             "u": adjoin_root(F, (F.from_rat(-3), F.zero()), "u")[0]}[name]
    assert format_rep(field, rep) == text


# ---------------------------------------------------------------------------
# _inv's lower-storey shortcut and the integer storey over Q
# against a plain Fraction product and extended Euclid
#
# The reference computes on the Fraction representation, where an element
# of every storey, the storey over Q included, is the tuple of its
# coordinates one storey down.  Kernel elements are converted to it and
# back at the boundary (to_ref, from_ref), by code of their own.


def to_ref(L, k, a):
    """The level-k element a as nested tuples over Fraction."""
    if k == 0:
        return a
    if k == 1:
        P, d = a
        return tuple(Rat(c, d) for c in P)
    return tuple(to_ref(L, k - 1, c) for c in a)


def from_ref(L, k, a):
    """The level-k element of the nested Fraction tuples a: at k = 1 its
    coordinates over the lcm of their denominators, which is canonical."""
    if k == 0:
        return a
    if k == 1:
        d = math.lcm(*(Rat(c).denominator for c in a))
        return tuple(Rat(c).numerator * (d // Rat(c).denominator) for c in a), d
    return tuple(from_ref(L, k - 1, c) for c in a)


def ref_levels(L):
    """The levels of L with their tails in the Fraction representation."""
    return tuple(exactnum.Level(lv.name, tuple(to_ref(L, j, c) for c in lv.minpoly),
                                lv.counts_points) for j, lv in enumerate(L))


def r_zero(R, k):
    return Rat(0) if k == 0 else (r_zero(R, k - 1),) * R[k - 1].degree


def r_one(R, k):
    return Rat(1) if k == 0 else (r_one(R, k - 1),) + r_zero(R, k)[1:]


def r_is_zero(k, a):
    return a == 0 if k == 0 else all(r_is_zero(k - 1, c) for c in a)


def r_add(k, a, b, sign=1):
    if k == 0:
        return a + sign * b
    return tuple(r_add(k - 1, x, y, sign) for x, y in zip(a, b))


def r_neg(k, a):
    return -a if k == 0 else tuple(r_neg(k - 1, x) for x in a)


def r_deg(k, v):
    return max((i for i, c in enumerate(v) if not r_is_zero(k, c)), default=-1)


def r_trim(k, v):
    return list(v[:r_deg(k, v) + 1])


def r_psub(R, k, u, v):
    return [r_add(k, a, b, -1) for a, b in
            itertools.zip_longest(u, v, fillvalue=r_zero(R, k))]


def r_mul(R, k, a, b):
    """The product of level-k elements by Fraction arithmetic alone:
    convolve, then reduce by the monic minimal polynomial from the top."""
    if k == 0:
        return a * b
    n, tail = R[k - 1].degree, R[k - 1].minpoly
    conv = [r_zero(R, k - 1)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] = r_add(k - 1, conv[i + j], r_mul(R, k - 1, x, y))
    for m in range(2 * n - 2, n - 1, -1):
        for t in range(n):
            conv[m - n + t] = r_add(k - 1, conv[m - n + t],
                                    r_mul(R, k - 1, conv[m], tail[t]), -1)
    return tuple(conv[:n])


def r_pmul(R, k, u, v):
    """The product of polynomials over level k, by r_mul."""
    du, dv = r_deg(k, u), r_deg(k, v)
    out = [r_zero(R, k)] * (du + dv + 1 if du >= 0 and dv >= 0 else 0)
    for i in range(du + 1):
        for j in range(dv + 1):
            out[i + j] = r_add(k, out[i + j], r_mul(R, k, u[i], v[j]))
    return out


def r_inv(R, k, a):
    """The extended Euclid with no shortcut and no memo, recursing into
    itself for every inversion one storey down."""
    if k == 0:
        if a == 0:
            raise DivisionByZero("division by zero in Q")
        return 1 / Rat(a)
    if r_is_zero(k, a):
        raise DivisionByZero("zero element")
    n = R[k - 1].degree
    one = r_one(R, k - 1)
    modulus = list(R[k - 1].minpoly) + [one]
    r0, s0 = modulus, []
    r1, s1 = r_trim(k - 1, list(a)), [one]
    while r_deg(k - 1, r1) >= 0:
        q, r = r_divmod(R, k - 1, r0, r1)
        r0, s0, r1, s1 = r1, s1, r, r_psub(R, k - 1, s0, r_pmul(R, k - 1, q, s1))
    if r_deg(k - 1, r0) == 0:
        c = r_inv(R, k - 1, r0[0])
        inv = [r_mul(R, k - 1, c, x) for x in s0]
        assert len(inv) <= n
        return tuple(inv + [r_zero(R, k - 1)] * (n - len(inv)))
    lead = r_inv(R, k - 1, r0[-1])
    g = [r_mul(R, k - 1, lead, x) for x in r0]
    h, rem = r_divmod(R, k - 1, modulus, g)
    assert r_deg(k - 1, rem) < 0
    raise SplitEvent(R, k - 1, g[:-1], h[:-1])


def r_divmod(R, k, num, den):
    dd = r_deg(k, den)
    lead_inv = r_inv(R, k, den[dd])
    r = r_trim(k, num)
    q = [r_zero(R, k)] * max(len(r) - dd, 1)
    while r_deg(k, r) >= dd:
        dr = r_deg(k, r)
        c = q[dr - dd] = r_mul(R, k, r[dr], lead_inv)
        for t in range(dd + 1):
            r[dr - dd + t] = r_add(k, r[dr - dd + t], r_mul(R, k, c, den[t]), -1)
    return r_trim(k, q), r_trim(k, r)


def at_boundary(fn, L, k, *args, lists=False):
    """fn on the Fraction representation of L, for level-k arguments (or
    lists of them) given and returned as kernel elements; a SplitEvent
    comes back with L and kernel tails."""
    conv = (lambda f, v: [f(L, k, c) for c in v]) if lists else (lambda f, v: f(L, k, v))
    try:
        out = fn(ref_levels(L), k, *(conv(to_ref, a) for a in args))
    except SplitEvent as ev:
        raise SplitEvent(L, ev.k, [from_ref(L, ev.k, c) for c in ev.g_tail],
                         [from_ref(L, ev.k, c) for c in ev.h_tail])
    return tuple(conv(from_ref, v) for v in out) if lists else from_ref(L, k, out)


def ref_mul(L, k, a, b):
    return at_boundary(r_mul, L, k, a, b)


def ref_inv(L, k, a):
    return at_boundary(r_inv, L, k, a)


def ref_divmod(L, k, num, den):
    return at_boundary(r_divmod, L, k, num, den, lists=True)


def outcome(inv, L, k, a):
    try:
        return "unit", inv(L, k, a)
    except SplitEvent as ev:
        assert ev.levels == tuple(L)
        return "split", ev.k, ev.g_tail, ev.h_tail
    except DivisionByZero:
        return "zero",


def build_tower(name):
    """A tower of 2 or 3 storeys with a generator t, t given at the top.
    Where the name says reducible, t's storey is t^2 - 1 = (t - 1)(t + 1).
    A name ending in /rational-tail puts denominators into the tails of
    the storey over Q: s^3 + s/2 - 5/4 replaces s^2 - 2, and a reducible
    t over Q is t^2 - 2t/3 - 1/3 = (t - 1)(t + 1/3)."""
    rational = name.endswith("/rational-tail")
    name = name.split("/")[0]
    F, s = adjoin_root(QQ, (Rat(-5, 4), Rat(1, 2), Rat(0)) if rational
                       else (Rat(-2), Rat(0)), "s")     # or s^2 = 2
    if name == "reducible-base":
        F, t = adjoin_root(QQ, (Rat(-1, 3), Rat(-2, 3)) if rational
                           else (Rat(-1), Rat(0)), "t")
        tail = (_neg(F.levels, 1, _add(F.levels, 1, t, F.from_rat(3))),
                F.zero())
        F2 = adjoin_root(F, tail, "u")[0]                   # u^2 = t + 3
        return F2, lift(F2.levels, 1, 2, t)
    if name == "irreducible":
        F2, t = adjoin_root(F, (_neg(F.levels, 1, s), F.zero()), "t")
        return F2, t                                        # t^2 = s
    F2, t = adjoin_root(F, (F.from_rat(-1), F.zero()), "t")     # t^2 = 1
    if name == "reducible-top":
        return F2, t
    L = F2.levels
    st_plus_3 = _add(L, 2, ref_mul(L, 2, lift(L, 1, 2, s), t), F2.from_rat(3))
    F3 = adjoin_root(F2, (_neg(L, 2, st_plus_3), F2.zero()),
                     "u")[0]                                # u^2 = s t + 3
    return F3, lift(F3.levels, 2, 3, t)


TOWERS = ("irreducible", "reducible-top", "reducible-base",
          "reducible-middle")
TOWERS += tuple(name + "/rational-tail" for name in TOWERS)
coefficients = st.one_of(st.just(Rat(0)),
                         st.fractions(min_value=-6, max_value=6,
                                      max_denominator=4))


def element(L, k, flat):
    """The level-k element with the given rational coordinates."""
    def nested(k, flat):
        if k == 0:
            return flat[0]
        n = L[k - 1].degree
        size = len(flat) // n
        return tuple(nested(k - 1, flat[i * size:(i + 1) * size]) for i in range(n))
    return from_ref(L, k, nested(k, flat))


@given(st.data())
def test_inverse_shortcuts_agree_with_plain_euclid(data):
    F, t = build_tower(data.draw(st.sampled_from(TOWERS)))
    L, k = F.levels, F.depth
    low = data.draw(st.integers(0, k))          # storey the element lies in
    size = ExtField(L[:low]).degree
    flat = data.draw(st.lists(coefficients, min_size=size, max_size=size))
    a = lift(L, low, k, element(L, low, flat))
    root = data.draw(st.sampled_from((None, 1, -1)))
    if root is not None:                        # a zero divisor if reducible
        a = ref_mul(L, k, a, _sub(L, k, t, F.from_rat(root)))
    want = outcome(ref_inv, L, k, a)
    assert outcome(_inv, L, k, a) == want
    assert outcome(_inv, L, k, a) == want       # again: nothing is kept
    if want[0] == "unit":
        assert _mul(L, k, a, want[1]) == F.one()


# storeys over Q with denominators in the tail, as (tail, factors): the
# factors are elements that are zero divisors of a reducible one
RATIONAL_STOREYS = [
    ((Rat(-1, 3), Rat(0)), ()),                                 # t^2 - 1/3
    ((Rat(-5, 4), Rat(1, 2), Rat(0)), ()),                      # t^3 + t/2 - 5/4
    ((Rat(-1, 3), Rat(-2, 3)),                                  # (t - 1)(t + 1/3)
     ((Rat(-1), Rat(1)), (Rat(1, 3), Rat(1)))),
    ((Rat(1, 3), Rat(1, 3), Rat(1)),                            # (t + 1)(t^2 + 1/3)
     ((Rat(1), Rat(1), Rat(0)), (Rat(1, 3), Rat(0), Rat(1)))),
    ((Rat(-2), Rat(0)), ()),                                    # t^2 - 2
    ((Rat(-1), Rat(0)), ((Rat(-1), Rat(1)), (Rat(1), Rat(1)))),  # t^2 - 1
    ((Rat(2), Rat(2, 3)) + (Rat(0),) * 6, ()),                  # t^8 + 2t/3 + 2
    ((Rat(1, 6), Rat(-1, 3), Rat(1, 2), Rat(-1), Rat(1, 3), Rat(0)),
     ((Rat(1, 3), Rat(0), Rat(1), Rat(0), Rat(0), Rat(0)),      # (t^2 + 1/3)
      (Rat(1, 2), Rat(-1), Rat(0), Rat(0), Rat(1), Rat(0)))),   # (t^4 - t + 1/2)
]


@given(st.data())
def test_the_storey_over_q_multiplies_and_inverts_like_the_reference(data):
    tail, factors = data.draw(st.sampled_from(RATIONAL_STOREYS))
    F = adjoin_root(QQ, tail, "t")[0]
    L, n = F.levels, len(tail)
    a, b = (element(L, 1, data.draw(st.lists(coefficients, min_size=n, max_size=n)))
            for _ in range(2))
    assert _mul(L, 1, a, b) == ref_mul(L, 1, a, b)
    factor = data.draw(st.sampled_from((None,) + factors))
    if factor is not None:
        a = ref_mul(L, 1, a, element(L, 1, factor))
    want = outcome(ref_inv, L, 1, a)
    assert outcome(_inv, L, 1, a) == want       # split tails included
    if want[0] == "unit":
        assert ref_mul(L, 1, a, want[1]) == F.one()


def kernel_draw(data):
    """(L, k, a, b, c, j, x) for a storey k of a tower of TOWERS or a
    storey over Q of RATIONAL_STOREYS, L its levels up to k: a and b
    level-k elements, a times a zero divisor (a factor of a reducible
    storey over Q, or storey k's generator minus +-1) half of the time, c
    a rational and x a level-j element, j < k."""
    target = data.draw(st.sampled_from(TOWERS + tuple(RATIONAL_STOREYS)))
    if target in TOWERS:
        F = build_tower(target)[0]
        k = data.draw(st.integers(1, F.depth))
        L = F.levels[:k]
        below = ExtField(L[:k - 1]).degree
        factors = [element(L, k, [Rat(int(i == below)) - Rat(root) * (i == 0)
                                  for i in range(ExtField(L).degree)])
                   for root in (1, -1)]
    else:
        k, L = 1, adjoin_root(QQ, target[0], "t")[0].levels
        factors = [element(L, 1, f) for f in target[1]]

    def drawn(j):
        size = ExtField(L[:j]).degree
        return element(L, j, data.draw(st.lists(coefficients, min_size=size, max_size=size)))
    a, b = drawn(k), drawn(k)
    factor = data.draw(st.sampled_from([None] + factors))
    if factor is not None:
        a = ref_mul(L, k, a, factor)
    j = data.draw(st.integers(0, k - 1))
    return L, k, a, b, data.draw(coefficients), j, drawn(j)


def r_project(R, j, tail, rep, level):
    """The Fraction-form element rep of storey `level` where storey j + 1's
    minimal polynomial becomes t^m + tail: coordinates reduced at storey
    j + 1 by r_divmod, the storey dropped for m = 1."""
    if level > j + 1:
        return tuple(r_project(R, j, tail, c, level - 1) for c in rep)
    r = r_divmod(R, j, list(rep), list(tail) + [r_one(R, j)])[1]
    r += [r_zero(R, j)] * (len(tail) - len(r))
    return tuple(r) if len(tail) > 1 else r[0]


def kernel_outcomes(data):
    """[(L, k, got, want)]: what each storey-k kernel returns on kernel_draw's
    elements, and what the Fraction reference makes of the same: _add,
    _sub, _neg, _mul, _smul, lift, _inv (or its split), _certify's unit or
    split on a nonzero a, and for a split the projections of a and b into
    both factor towers (_make_factor, whose projection is _project), and
    of the tails of the storeys above the split."""
    L, k, a, b, c, j, x = kernel_draw(data)
    R = ref_levels(L)
    A, B, X = to_ref(L, k, a), to_ref(L, k, b), to_ref(L, j, x)
    for i in range(j + 1, k + 1):
        X = (X,) + r_zero(R, i)[1:]
    scaled = (lambda k, a: c * a if k == 0 else tuple(scaled(k - 1, y) for y in a))
    out = [(L, k, _add(L, k, a, b), from_ref(L, k, r_add(k, A, B))),
           (L, k, _sub(L, k, a, b), from_ref(L, k, r_add(k, A, B, -1))),
           (L, k, _neg(L, k, a), from_ref(L, k, r_neg(k, A))),
           (L, k, _mul(L, k, a, b), ref_mul(L, k, a, b)),
           (L, k, _smul(L, k, c, a), from_ref(L, k, scaled(k, A))),
           (L, k, lift(L, j, k, x), from_ref(L, k, X))]
    want = outcome(ref_inv, L, k, a)
    got = outcome(_inv, L, k, a)
    out.append((L, k, got[1], want[1]) if want[0] == "unit" else (None, 0, got, want))
    if want[0] != "zero":
        try:
            exactnum._certify(L, k, a)
            got = ("unit",)
        except SplitEvent as ev:
            assert ev.levels == L
            got = ("split", ev.k, ev.g_tail, ev.h_tail)
        out.append((None, 0, got, want[:1] if want[0] == "unit" else want))
    if want[0] == "split":
        _, s, g, h = want
        for tail in (g, h):
            f2, project = exactnum._make_factor(L, s, tail)
            T = [to_ref(L, s, y) for y in tail]
            level = f2.depth - (k - len(L))
            for y, Y in ((a, A), (b, B)):
                out.append((f2.levels, level, project(y, k),
                            from_ref(f2.levels, level, r_project(R, s, T, Y, k))))
            for i in range(s + 1, len(L)):          # tails above the split
                for y in L[i].minpoly:
                    out.append((f2.levels, i - (len(tail) == 1), project(y, i),
                                from_ref(f2.levels, i - (len(tail) == 1),
                                         r_project(R, s, T, to_ref(L, i, y), i))))
    return out


@given(st.data())
def test_the_kernels_agree_with_the_fraction_reference(data):
    """Every storey of every tower of TOWERS, and every storey over Q of
    RATIONAL_STOREYS, reducible and rational-tail ones included: each
    kernel's element, split or unit is the Fraction reference's, converted
    at the boundary."""
    for _, _, got, want in kernel_outcomes(data):
        assert got == want


def canonical(L, k, a) -> bool:
    """a is a level-k element in canonical form: a Fraction over Q; over a
    storey over Q of degree n a pair (P, d) of n ints and an int d > 0
    with gcd(d, *P) = 1, so zero is ((0,) * n, 1); above, a tuple of
    canonical elements one storey down."""
    if k == 0:
        return type(a) is Rat
    if k == 1:
        P, d = a
        return (type(P) is tuple and len(P) == L[0].degree and type(d) is int
                and d > 0 and all(type(c) is int for c in P) and math.gcd(d, *P) == 1)
    return (type(a) is tuple and len(a) == L[k - 1].degree
            and all(canonical(L, k - 1, c) for c in a))


@given(st.data())
def test_every_kernel_returns_canonical_elements(data):
    """The elements of kernel_outcomes, in their own towers, are
    canonical, and so is each storey's zero; equality and hashing rely on
    it."""
    for L, k, got, _ in kernel_outcomes(data):
        if L is not None:
            assert canonical(L, k, got)
            assert canonical(L, k, _zero(L, k)) and _is_zero(L, k, _zero(L, k))
    assert canonical((), 0, _zero((), 0))


def test_the_storey_over_q_builds_no_fraction(monkeypatch):
    """Over (t + 1)(t^2 + 1/3), a storey over Q with a rational tail:
    _mul, _add, _sub, _neg, _smul, lift, _is_zero, _certify on a unit,
    _inv_over_q, _inv's shortcut for a rational element, and lift_shift
    of polynomials over Q and over the storey into it build no Fraction,
    in exactnum or in poly; Fractions are made where a value leaves the
    storey, as the rational tails of a zero divisor's split.  _zden is
    given only lists of rationals, never an element of the storey."""
    F, _ = adjoin_root(QQ, (Rat(1, 3), Rat(1, 3), Rat(1)), "t")
    L = F.levels
    a = element(L, 1, [Rat(1), Rat(1, 2), Rat(0)])         # (t + 2) / 2
    b = element(L, 1, [Rat(-7, 3), Rat(0), Rat(3, 4)])
    f = SparsePoly(QQ, ("x", "y"), {(2, 1): Rat(1, 2), (0, 3): Rat(-3), (1, 0): Rat(5)})
    g = SparsePoly(F, ("x", "y"), {(1, 1): a, (3, 0): b})
    assert L[0].zminpoly                    # kept on the Level, made once
    c = Rat(-3, 4)
    made, fraction = [], Rat

    def counting(*args):
        made.append(args)
        return fraction(*args)
    monkeypatch.setattr(exactnum, "Fraction", counting)
    monkeypatch.setattr(poly, "Fraction", counting)
    cleared = spy(monkeypatch, exactnum, "_zden")
    results = [_mul(L, 1, a, b), _add(L, 1, a, b), _sub(L, 1, a, b), _neg(L, 1, a),
               _is_zero(L, 1, a), exactnum._certify(L, 1, a), exactnum._inv_over_q(L, a),
               f.lift_shift(F, (a, b)), g.lift_shift(F, (F.zero(), b)),
               _smul(L, 1, c, a), _inv(L, 1, lift(L, 0, 1, c))]
    assert made == []
    with pytest.raises(SplitEvent) as info:
        exactnum._certify(L, 1, element(L, 1, [Rat(1), Rat(1), Rat(0)]))    # t + 1
    assert all(type(c) is Rat for c in info.value.g_tail + info.value.h_tail)
    assert cleared and all(not isinstance(c, tuple) for (v,) in cleared for c in v)
    monkeypatch.undo()
    assert results[0] == ref_mul(L, 1, a, b) and results[4] is False
    assert results[6] == ref_inv(L, 1, a)
    assert results[-1] == ref_inv(L, 1, F.from_rat(c)) == F.from_rat(1 / c)


def test_the_back_substitution_checks_its_divisions(monkeypatch):
    """For t^2 = 2 and a = t + 3 forward elimination leaves U with rows
    (3, 2) and (7) and right-hand side (1, -1): raising its first entry
    by 1 makes x_0 = (7 * 2 - 2 * (-1)) / 3 inexact."""
    F, t = adjoin_root(QQ, (Rat(-2), Rat(0)), "t")
    bareiss = exactnum._bareiss

    def corrupted(rows):
        sign = bareiss(rows)
        rows[0][-1] += 1
        return sign
    monkeypatch.setattr(exactnum, "_bareiss", corrupted)
    with pytest.raises(InternalInconsistency, match="back substitution"):
        _inv(F.levels, 1, ((3, 1), 1))


@given(st.data())
def test_projecting_a_rational_storey_into_its_factors_is_a_ring_map(data):
    tail, factors = data.draw(st.sampled_from(
        [c for c in RATIONAL_STOREYS if c[1]]))
    F, t = adjoin_root(QQ, tail, "t")
    L, n = F.levels, len(tail)
    with pytest.raises(SplitEvent) as info:
        _inv(L, 1, element(L, 1, data.draw(st.sampled_from(factors))))
    a, b = (element(L, 1, data.draw(st.lists(coefficients, min_size=n, max_size=n)))
            for _ in range(2))
    for f2, project in info.value.targets():
        L2, k2 = f2.levels, f2.depth
        assert project(ref_mul(L, 1, a, b), 1) == ref_mul(
            L2, k2, project(a, 1), project(b, 1))
        assert project(_add(L, 1, a, b), 1) == _add(
            L2, k2, project(a, 1), project(b, 1))
        # t goes to a root of the factor's minimal polynomial
        if k2:
            acc = f2.zero()
            for c in reversed(list(L2[0].minpoly) + [Rat(1)]):
                acc = _add(L2, 1, ref_mul(L2, 1, acc, project(t, 1)),
                           f2.from_rat(c))
            assert _is_zero(L2, 1, acc)


@given(st.data())
def test_projecting_into_a_quadratic_factor_above_q_is_a_ring_map(data):
    """s^2 = 2, t^4 = 2, u^2 = t + 1.  Inverting t^2 - s splits t's
    storey into t^2 - s and t^2 + s over Q(s), so both factor towers keep
    a storey of degree 2 above the storey over Q, and projecting an
    element of u's storey reduces its coefficients modulo that factor."""
    F1, s = adjoin_root(QQ, (Rat(-2), Rat(0)), "s")
    F2, t = adjoin_root(F1, (F1.from_rat(-2),) + (F1.zero(),) * 3, "t")
    t_plus_1 = _add(F2.levels, 2, t, F2.one())
    F3, u = adjoin_root(F2, (_neg(F2.levels, 2, t_plus_1), F2.zero()), "u")
    L = F3.levels
    t2_minus_s = _sub(L, 2, ref_mul(L, 2, t, t), lift(L, 1, 2, s))
    with pytest.raises(SplitEvent) as info:
        _inv(L, 2, t2_minus_s)
    a, b = (element(L, 3, data.draw(st.lists(coefficients, min_size=16,
                                             max_size=16)))
            for _ in range(2))
    targets = info.value.targets()
    assert len(targets) == 2
    ab = ref_mul(L, 3, a, b)
    for f2, project in targets:
        L2, k2 = f2.levels, f2.depth
        assert k2 == 3 and L2[1].degree == 2
        assert project(ab, 3) == ref_mul(
            L2, 3, project(a, 3), project(b, 3))
        assert project(_add(L, 3, a, b), 3) == _add(
            L2, 3, project(a, 3), project(b, 3))
        # t goes to a root of its factor, u to a square root of t + 1
        t2 = project(t, 2)
        acc = _zero(L2, 2)
        for c in reversed(list(L2[1].minpoly) + [lift(L2, 0, 1, Rat(1))]):
            acc = _add(L2, 2, ref_mul(L2, 2, acc, t2), lift(L2, 1, 2, c))
        assert _is_zero(L2, 2, acc)
        u2 = project(u, 3)
        assert ref_mul(L2, 3, u2, u2) == project(lift(L, 2, 3, t_plus_1), 3)


@given(st.data())
def test_projecting_into_a_linear_factor_above_q_is_a_ring_map(data):
    """In the reducible-top and reducible-middle towers t's storey over
    Q(s) is t^2 - 1.  Inverting t - 1 or t + 1 splits it into two linear
    factors, so each factor tower drops that storey: projecting an element
    evaluates its coefficients at t = 1 or t = -1."""
    name = data.draw(st.sampled_from(
        [n for n in TOWERS if n.split("/")[0] in ("reducible-top",
                                                  "reducible-middle")]))
    F, t = build_tower(name)
    L, k = F.levels, F.depth
    with pytest.raises(SplitEvent) as info:
        _inv(L, k, _sub(L, k, t, F.from_rat(data.draw(st.sampled_from((1, -1))))))
    assert info.value.k == 1
    a, b = (element(L, k, data.draw(st.lists(coefficients, min_size=F.degree,
                                             max_size=F.degree)))
            for _ in range(2))
    signs = set()
    for f2, project in info.value.targets():
        L2, k2 = f2.levels, f2.depth
        assert k2 == k - 1 and L2[0] is L[0]
        assert project(ref_mul(L, k, a, b), k) == ref_mul(
            L2, k2, project(a, k), project(b, k))
        assert project(_add(L, k, a, b), k) == _add(
            L2, k2, project(a, k), project(b, k))
        assert project(t, k) in (f2.from_rat(1), f2.from_rat(-1))
        signs.add(project(t, k) == f2.from_rat(1))
    assert signs == {True, False}


def ref_power(L, k, a, m):
    out = lift(L, 0, k, Rat(1))
    for _ in range(m):
        out = ref_mul(L, k, out, a)
    return out


@given(st.data())
def test_lift_shift_is_the_binomial_expansion(data):
    """A polynomial over a lower storey, moved into a tower of TOWERS or a
    storey over Q of RATIONAL_STOREYS (non-monic integer minimal
    polynomials, reducible ones among them) with x, y or both shifted by
    elements a, b of the target, is sum c (x + a)^i (y + b)^j expanded by
    binomials and ref_mul."""
    target = data.draw(st.sampled_from(TOWERS + tuple(RATIONAL_STOREYS)))
    F = (build_tower(target)[0] if target in TOWERS
         else adjoin_root(QQ, target[0], "t")[0])
    L, k = F.levels, F.depth
    low = data.draw(st.integers(0, k))         # the coefficients' storey
    size = ExtField(L[:low]).degree
    f = SparsePoly(ExtField(L[:low]), ("x", "y"), {
        e: element(L, low, flat) for e, flat in data.draw(st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.lists(coefficients, min_size=size, max_size=size),
            max_size=4)).items()})
    a, b = (element(L, k, data.draw(st.lists(
        coefficients, min_size=F.degree, max_size=F.degree)))
            if shift else F.zero() for shift in data.draw(st.sampled_from(
                ((True, False), (False, True), (True, True)))))
    # exponents are at most 3
    a_pow, b_pow = ([ref_power(L, k, z, m) for m in range(4)] for z in (a, b))
    want = {}
    for (i, j), c in f.terms.items():
        c = lift(L, low, k, c)
        for s in range(i + 1):
            for r in range(j + 1):
                term = ref_mul(L, k, ref_mul(L, k, c, a_pow[i - s]),
                               b_pow[j - r])
                term = _smul(L, k, Rat(math.comb(i, s) * math.comb(j, r)), term)
                want[s, r] = _add(L, k, want.get((s, r), F.zero()), term)
    assert f.lift_shift(F, (a, b)) == SparsePoly(F, ("x", "y"), want)


def test_lift_shift_makes_each_product_of_root_powers_once(monkeypatch):
    """x^2 y^2 + x^2 y + x y^2 + x y shifted by two roots: the powers
    r^2 and r'^2 take one product each, and the products r^i r'^j for i, j
    in {1, 2} one each, though several terms need them: 6 products (11
    when each term made its own).  They are tower products at the top
    storey: into Q(s), by (s, s + 1), products of pairs (P, d) at storey 1,
    and into Q(s, u), u^2 = s, by (u, u + 1), at storey 2."""
    F, s = sqrt2_field()
    F2, u = adjoin_root(F, (_neg(F.levels, 1, s), F.zero()), "u")
    f = SparsePoly(QQ, ("x", "y"), {(2, 2): Rat(1), (2, 1): Rat(1),
                                    (1, 2): Rat(1), (1, 1): Rat(1)})
    roots = {G: (r, _add(G.levels, G.depth, r, G.one())) for G, r in ((F, s), (F2, u))}
    tower = spy(monkeypatch, exactnum, "_mul")
    moved = {}
    for G in (F, F2):
        del tower[:]
        moved[G] = f.lift_shift(G, roots[G])
        assert [k for _, k, _, _ in tower].count(G.depth) == 6
    monkeypatch.undo()
    for G, (a, b) in roots.items():
        assert moved[G] == f.lift_shift(G, (a, G.zero())).lift_shift(G, (G.zero(), b))


def test_the_storey_over_q_divides_no_polynomial_over_q(monkeypatch, curve):
    """The product, the inversion and the projection into a factor tower
    reduce a storey over Q on ints, and so does the slicing of a certified
    cluster in genus: exactnum._pdivmod never runs over Q (k == 0)."""
    from qres.wproj import Weights, genus
    divisions = spy(monkeypatch, exactnum, "_pdivmod")
    sqrt2, s = sqrt2_field()                                    # a unit
    unit = _add(sqrt2.levels, 1, s, sqrt2.one())
    assert _mul(sqrt2.levels, 1, unit, _inv(sqrt2.levels, 1, unit)) == \
        sqrt2.one()
    F, t = adjoin_root(QQ, (Rat(1, 3), Rat(1, 3), Rat(1)), "t")
    L = F.levels                        # (t + 1)(t^2 + 1/3): a rational tail
    t_plus_2 = _add(L, 1, t, F.from_rat(2))
    assert _mul(L, 1, t_plus_2, _inv(L, 1, t_plus_2)) == F.one()
    # a zero divisor at storey 1 of a 2-storey tower, projected into both
    # factors: the quadratic one keeps its storey
    F2, u = adjoin_root(F, (_neg(L, 1, t_plus_2), F.zero()), "u")
    t_plus_1 = lift(F2.levels, 1, 2, _add(L, 1, t, F.one()))
    with pytest.raises(SplitEvent) as info:
        _inv(F2.levels, 2, t_plus_1)
    for f2, project in info.value.targets():
        u2 = project(u, 2)
        assert _mul(f2.levels, f2.depth, u2, u2) == \
            project(lift(F2.levels, 1, 2, t_plus_2), 2)
    assert sorted(f2.degree for f2, _ in info.value.targets()) == [2, 4]
    # a curve whose one affine cluster is certified (gallery golden 11)
    certify = exactnum.certified_irreducible
    verdicts = []
    monkeypatch.setattr(
        "qres.wproj.certified_irreducible",
        lambda S: verdicts.append(certify(S)) or verdicts[-1])
    report = genus(curve("(x0^2 + x1^2 - x2^2)*(x0^2 + x1^2 - 2*x2^2)"),
                   Weights(1, 1, 1))
    assert verdicts == [True] and report.genus == -1
    assert [k for _, k, _, _ in divisions if k == 0] == []


def count_euclid(monkeypatch):
    """Record the storey of every element that _inv inverts by elimination:
    k for a _peuclid over storey k - 1 that _inv runs, 1 for _inv_over_q."""
    runs = []
    euclid, over_q = exactnum._peuclid, exactnum._inv_over_q

    def counting(L, k, a, b):
        if sys._getframe(1).f_code.co_name == "_inv":
            runs.append(k + 1)
        return euclid(L, k, a, b)

    def counting_over_q(L, a):
        runs.append(1)
        return over_q(L, a)
    monkeypatch.setattr(exactnum, "_peuclid", counting)
    monkeypatch.setattr(exactnum, "_inv_over_q", counting_over_q)
    return runs


def test_a_lifted_element_is_inverted_at_its_own_storey(monkeypatch):
    F, _ = build_tower("reducible-middle")
    L = F.levels
    runs = count_euclid(monkeypatch)
    s_plus_1 = ((1, 1), 1)
    got = _inv(L, 3, lift(L, 1, 3, s_plus_1))
    assert got == lift(L, 1, 3, ((-1, 1), 1))               # sqrt2 - 1
    assert runs == [1]
    assert _inv(L, 0, Rat(3)) == Rat(1, 3) and runs == [1]  # a unit of Q


def test_memo_is_per_level_object_and_ignored_by_equality(monkeypatch):
    """Equal towers built apart compare and hash equal, and invert an
    element alike, each by its own Euclid."""
    F, G = build_tower("irreducible")[0], build_tower("irreducible")[0]
    L, k = F.levels, F.depth
    a = element(L, k, [Rat(0), Rat(1), Rat(1), Rat(0)])
    runs = count_euclid(monkeypatch)
    assert F == G and hash(F) == hash(G) and repr(F) == repr(G)
    assert F.levels[-1] == G.levels[-1]
    assert hash(F.levels[-1]) == hash(G.levels[-1])
    assert _inv(G.levels, k, a) == _inv(L, k, a)
    assert runs.count(2) == 2


def test_a_failed_inversion_is_not_memoized(monkeypatch):
    """A zero divisor raises the same split each time it is inverted."""
    F, _ = build_tower("reducible-top")
    L, k = F.levels, F.depth
    t_minus_1 = element(L, k, [Rat(-1), Rat(0), Rat(1), Rat(0)])
    runs = count_euclid(monkeypatch)
    events = []
    for _ in range(2):
        with pytest.raises(SplitEvent) as info:
            _inv(L, k, t_minus_1)
        events.append((info.value.k, info.value.g_tail, info.value.h_tail))
    assert events[0] == events[1] and events[0][0] == 1
    assert runs.count(2) == 2


def test_split_towers_start_with_empty_memos_above_the_split():
    """A split keeps the Level objects below the split storey."""
    F, _ = build_tower("reducible-middle")
    L, k = F.levels, F.depth
    s = lift(L, 1, 3, ((0, 1), 1))
    u = element(L, k, [Rat(0)] * 4 + [Rat(1)] + [Rat(0)] * 3)
    t_minus_1 = lift(L, 2, 3, (((-1, 0), 1), ((1, 0), 1)))
    for unit in (_add(L, k, s, F.one()), _add(L, k, u, s)):
        _inv(L, k, unit)
    with pytest.raises(SplitEvent) as info:
        _inv(L, k, t_minus_1)
    ev = info.value
    assert ev.k == 1
    for f2, _ in ev.targets():
        assert f2.levels[0] is L[0]                 # below the split: kept


# ---------------------------------------------------------------------------
# the Euclid with monic divisors against the plain Euclid, whose division
# inverts each divisor's lead, and whose gcd inverts the last one again


def plain_gcd(L, k, f, g):
    """The monic gcd over level k by the plain Euclid of ref_divmod,
    whose divisions invert the divisor's lead, made monic at the end."""
    a, b = _ptrim(L, k, f), _ptrim(L, k, g)
    while _pdeg(L, k, b) >= 0:
        a, b = b, ref_divmod(L, k, a, b)[1]
    if not a:
        return []
    lead = ref_inv(L, k, a[-1])
    return [ref_mul(L, k, lead, x) for x in a]


def tower_gcd(L, k, f, g):
    """The gcd of _pgcd, whose contract leaves out two zero polynomials;
    their gcd is the zero polynomial [], as plain_gcd gives."""
    if _ptrim(L, k, f) or _ptrim(L, k, g):
        return _pgcd(L, k, f, g)[0]
    return []


def draw_element(data, L, k, t):
    """A level-k element, times t - 1 or t + 1 (a zero divisor where t's
    storey is reducible) a third of the time each."""
    a = element(L, k, data.draw(st.lists(coefficients, min_size=ExtField(L[:k]).degree,
                                         max_size=ExtField(L[:k]).degree)))
    root = data.draw(st.sampled_from((None, 1, -1)))
    if root is not None and k == len(L):
        a = ref_mul(L, k, a, _sub(L, k, t, lift(L, 0, k, Rat(root))))
    return a


@given(st.data())
def test_the_monic_euclid_agrees_with_the_plain_euclid(data):
    """Over every tower of TOWERS: the gcd of two polynomials with a drawn
    common factor, and the inverse at the top storey, are those of the
    plain Euclid (plain_gcd, ref_inv), and a zero divisor met on the way
    raises the same SplitEvent."""
    F, t = build_tower(data.draw(st.sampled_from(TOWERS)))
    L, k = F.levels, F.depth
    common, f, g = ([draw_element(data, L, k, t)
                     for _ in range(data.draw(st.integers(low, 3)))]
                    for low in (1, 0, 0))
    f, g = _pmul(L, k, common, f), _pmul(L, k, common, g)
    assert outcome(lambda L, k, _: tower_gcd(L, k, f, g), L, k, None) == \
        outcome(lambda L, k, _: plain_gcd(L, k, f, g), L, k, None)
    a = draw_element(data, L, k, t)
    if _is_zero(L, k, a):
        return
    assert outcome(_inv, L, k, a) == outcome(ref_inv, L, k, a)


@given(st.data())
def test_the_euclid_carries_its_bezout_coefficient(data):
    """_peuclid(a, b) over storey k of every tower of TOWERS, for a monic a
    and b with a drawn common factor, gives (m, s) with s b = m modulo a,
    whether m is its last divisor, monic and dividing a and b, or the
    nonzero constant last remainder; a split it meets is one of a
    reducible storey."""
    name = data.draw(st.sampled_from(TOWERS))
    F, t = build_tower(name)
    L = F.levels
    k = data.draw(st.integers(1, F.depth))
    one = lift(L, 0, k, Rat(1))

    def drawn(low):
        return [draw_element(data, L, k, t)
                for _ in range(data.draw(st.integers(low, 2)))]
    common = drawn(0) + [one]
    a = _pmul(L, k, common, drawn(0) + [one])
    b = _ptrim(L, k, _pmul(L, k, common, drawn(1)))
    if not b:
        return
    try:
        m, s = exactnum._peuclid(L, k, a, b)
    except SplitEvent as ev:
        assert "reducible" in name and ev.levels == L
        return

    def divides(d, v):
        return _pdeg(L, k, exactnum._pdivmod(L, k, v, d[:-1])[1]) < 0
    assert divides(a, _psub(L, k, _pmul(L, k, s, b), m))
    if len(m) > 1:
        assert m[-1] == one and divides(m, a) and divides(m, b)
    else:
        assert not _is_zero(L, k, m[0])


@given(st.data())
def test_a_tower_gcd_returns_its_cofactors(data):
    """_pgcd(L, k, a, b) over every storey k >= 1 of every tower of TOWERS,
    for a and b with a drawn common factor, b zero a third of the time and
    either with a trailing zero: g is monic, g p and g q are a and b
    trimmed, and g, or the SplitEvent met on the way, is that of the plain
    Euclid."""
    F, t = build_tower(data.draw(st.sampled_from(TOWERS)))
    L = F.levels
    k = data.draw(st.integers(1, F.depth))
    common, f, g = ([draw_element(data, L, k, t)
                     for _ in range(data.draw(st.integers(low, 3)))]
                    for low in (1, 0, 0))
    a, b = _pmul(L, k, common, f), _pmul(L, k, common, g)
    if data.draw(st.integers(0, 2)) == 0:
        b = []
    a, b = (v + [_zero(L, k)] * data.draw(st.integers(0, 1)) for v in (a, b))
    assume(_ptrim(L, k, a) or _ptrim(L, k, b))
    want = outcome(lambda L, k, _: plain_gcd(L, k, a, b), L, k, None)
    try:
        g, p, q = _pgcd(L, k, a, b)
    except SplitEvent as ev:
        assert ev.levels == L
        assert want == ("split", ev.k, ev.g_tail, ev.h_tail)
        return
    assert want == ("unit", g)
    assert g[-1] == lift(L, 0, k, Rat(1))
    assert _ptrim(L, k, _pmul(L, k, g, p)) == _ptrim(L, k, a)
    assert _ptrim(L, k, _pmul(L, k, g, q)) == _ptrim(L, k, b)


def test_the_remainders_stay_the_plain_euclids_over_a_reducible_storey():
    """Over t^2 = 1, U^2 = t + 3: g = l1 x^2 + x + l3 with l1 = 1/(t - U)
    and l3 = 1 + U, and f = x g + x.  The plain Euclid's remainders are x
    and l3, whose leads are units, so the gcd is 1.  Monic remainders
    would end in l3 / l1 = -3 + (t - 1) U, and inverting it meets the zero
    divisor t - 1 one storey down: a split the plain Euclid never makes."""
    F, t = build_tower("reducible-base")
    L, k = F.levels, F.depth
    U = (F.zero()[0], lift(L, 0, 1, Rat(1)))
    l1 = _inv(L, k, _sub(L, k, t, U))
    l3 = _add(L, k, F.one(), U)
    g = [l3, F.one(), l1]
    f = _psub(L, k, _pmul(L, k, [F.zero(), F.one()], g),
              [F.zero(), _neg(L, k, F.one())])
    assert _pgcd(L, k, f, g)[0] == plain_gcd(L, k, f, g) == [F.one()]
    with pytest.raises(SplitEvent) as info:
        _inv(L, k, _mul(L, k, l3, _inv(L, k, l1)))
    assert info.value.k == 0


def test_a_euclid_inverts_each_lead_once_and_a_division_nothing(monkeypatch):
    """_pdivmod calls no _inv; one _pgcd or _inv passes each element
    to _inv once, the lead of its last divisor included (the plain Euclid
    inverted it again), whether it ends in a gcd, an inverse or a split.
    The outer _pgcd or _inv is called unspied, so the _inv calls
    recorded outside any spied _inv are those made directly under it."""
    calls, stack = [], []

    def spied(name):
        fn = getattr(exactnum, name)

        def wrapper(L, k, *args):
            if name == "_inv":
                calls.append((tuple(stack), k, args[0]))
            stack.append(name)
            try:
                return fn(L, k, *args)
            finally:
                stack.pop()
        monkeypatch.setattr(exactnum, name, wrapper)
    spied("_inv")
    spied("_pdivmod")

    def direct_calls(fn, *args):
        """fn(*args), or its split; checks the _inv calls that fn and its
        divisions made, not those made inside an _inv."""
        calls.clear()
        try:
            out = fn(*args)
        except SplitEvent as ev:
            out = ev.k, ev.g_tail, ev.h_tail
        direct = [(k, a) for outer, k, a in calls if "_inv" not in outer]
        assert direct and len(set(direct)) == len(direct)
        assert all("_pdivmod" not in outer for outer, _, _ in calls)
        return out
    F, t = build_tower("irreducible")                   # s^2 = 2, t^2 = s
    L, k = F.levels, F.depth
    s = lift(L, 1, 2, ((0, 1), 1))
    x_minus_t = [_neg(L, k, t), F.one()]
    f = _pmul(L, k, x_minus_t, [s, F.one()])                # (x - t)(x + s)
    g = _pmul(L, k, x_minus_t, [F.one(), F.one()])          # (x - t)(x + 1)
    assert direct_calls(_pgcd, L, k, f, g)[0] == x_minus_t
    a = _add(L, k, t, s)
    assert _mul(L, k, a, direct_calls(_inv, L, k, a)) == F.one()
    T, r = build_tower("reducible-top")                     # r^2 = 1 over Q(s)
    one = lift(T.levels, 0, 1, Rat(1))
    assert direct_calls(_inv, T.levels, 2,
                        _sub(T.levels, 2, r, T.one())) == (1, (_neg(T.levels, 1, one),),
                                                           (one,))


@given(st.data())
def test_the_monic_division_agrees_with_the_plain_division(data):
    """_pdivmod by t^n + tail, over any storey of every tower of TOWERS,
    reducible ones included, and of a dividend with trailing zeros, gives
    the quotient of ref_divmod and its remainder in n coordinates."""
    F, t = build_tower(data.draw(st.sampled_from(TOWERS)))
    L = F.levels
    k = data.draw(st.integers(0, F.depth))

    def drawn(low, high):
        return [draw_element(data, L, k, t)
                for _ in range(data.draw(st.integers(low, high)))]
    tail = drawn(0, 3)
    v = drawn(0, 6) + [_zero(L, k)] * data.draw(st.integers(0, 2))
    q, r = exactnum._pdivmod(L, k, v, tail)
    want_q, want_r = ref_divmod(L, k, v, tail + [lift(L, 0, k, Rat(1))])
    assert _ptrim(L, k, q) == want_q
    assert len(r) == len(tail) and _ptrim(L, k, r) == want_r


CERTIFICATES = ("_certify", "is_zero_validated", "_pgcd")


def refuse_certificates(mp, *names):
    """Make each certificate and gcd of exactnum, and the names given,
    raise AssertionError when called, at every storey."""
    def refused(*args, **kwargs):
        raise AssertionError("an adjunction ran a certificate or a gcd")
    for name in CERTIFICATES + names:
        mp.setattr(exactnum, name, refused)


@given(st.data())
def test_a_radical_of_a_unit_runs_no_certificate(data):
    """adjoin_radical(t, w), w in {2, 3}, at the top of every tower of
    TOWERS, for a t that ref_inv inverts: a storey that counts no points,
    whose generator u has u^w = t.  Its callers' radicands are units by
    construction, so neither adjoin_root nor a certificate or gcd
    (CERTIFICATES) runs at any storey."""
    F, t = build_tower(data.draw(st.sampled_from(TOWERS)))
    L, k = F.levels, F.depth
    a = draw_element(data, L, k, t)
    assume(outcome(ref_inv, L, k, a)[0] == "unit")
    w = data.draw(st.sampled_from((2, 3)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("QRES_EXT_BOUND", "0")        # degrees up to 36 here
        refuse_certificates(mp, "adjoin_root")
        F2, u = adjoin_radical(F, a, w, "u")
    assert F2.levels[:-1] == L and not F2.levels[-1].counts_points
    assert F2.degree == w * F.degree and F2.cluster_size == F.cluster_size
    power = u
    for _ in range(w - 1):
        power = _mul(F2.levels, k + 1, power, u)
    assert power == lift(F2.levels, k, k + 1, a)


@pytest.mark.parametrize("name", TOWERS)
def test_a_root_is_adjoined_with_no_gcd(monkeypatch, name):
    """adjoin_root(r^3 - r - 1) at the top of every tower of TOWERS: a
    storey that counts points, whose generator r is a root.  The
    discriminant -23 is a unit everywhere, so the polynomial is squarefree
    over every factor, as every caller's is by construction, and no
    certificate or gcd (CERTIFICATES) runs at any storey."""
    F = build_tower(name)[0]
    L, k = F.levels, F.depth
    monkeypatch.setenv("QRES_EXT_BOUND", "0")      # degrees up to 36 here
    refuse_certificates(monkeypatch)
    F2, r = adjoin_root(F, [F.from_rat(-1), F.from_rat(-1), F.zero()], "r")
    monkeypatch.undo()
    L2 = F2.levels
    assert L2[:-1] == L and L2[-1].counts_points and F2.degree == 3 * F.degree
    cube = _mul(L2, k + 1, _mul(L2, k + 1, r, r), r)
    assert _sub(L2, k + 1, cube, r) == F2.one()


# ---------------------------------------------------------------------------
# the callers' side of the adjunctions' contract: every polynomial that the
# engine and the singular-locus search adjoin is squarefree, and every
# radicand a unit, over every factor tower


def over_every_factor(check, L, k, elems):
    """check(L, k, elems) for the level-k elements elems over L, and where
    it raises a SplitEvent of L, again over each of its targets(), with
    elems projected there."""
    try:
        check(L, k, elems)
    except SplitEvent as ev:
        assert ev.levels == tuple(L)
        for f2, project in ev.targets():
            over_every_factor(check, f2.levels, f2.depth,
                              [project(c, k) for c in elems])


def squarefree(L, k, f):
    """The monic f over storey k has gcd 1 with f' by plain_gcd."""
    df = [_smul(L, k, Rat(i), c) for i, c in enumerate(f)][1:]
    assert plain_gcd(L, k, f, df) == [lift(L, 0, k, Rat(1))]


def unit(L, k, elems):
    """ref_inv inverts the one element of elems."""
    ref_inv(L, k, elems[0])


P235_PRODUCT = ("(-2*x2^2 - 5*x0*x1*x2 - 3*x0^2*x1^2 + 5*x0^5)*(4*x2^3"
                " + 5*x1^5 + 2*x0*x1*x2^2 + 3*x0^2*x1^2*x2 - 4*x0^3*x1^3"
                " - 5*x0^5*x2 - 4*x0^6*x1)")


def test_every_adjoined_polynomial_is_squarefree_by_construction(monkeypatch):
    """adjoin_root and adjoin_radical check nothing, so their callers'
    constructions carry the contract: over every argv of the golden corpus
    and the P(2,3,5) product (which adjoins a radical over Q(t)), every
    polynomial that wproj and resolve adjoin is squarefree, and every
    radicand a unit, over every factor tower (a SplitEvent is followed
    into its targets), by the Fraction references plain_gcd and ref_inv.
    Among them are adjunctions over towers of depth >= 1."""
    calls = []

    def recorded(kind, adjoin):
        def wrapper(field, *args, **kwargs):
            calls.append((kind, field, args))
            return adjoin(field, *args, **kwargs)
        return wrapper
    for module in (wproj, resolve):
        monkeypatch.setattr(module, "adjoin_root",
                            recorded("root", exactnum.adjoin_root))
        monkeypatch.setattr(module, "adjoin_radical",
                            recorded("radical", exactnum.adjoin_radical))
    for _, argv in CASES:
        run_cli(argv)
    assert run_cli(["curve", P235_PRODUCT, "--w", "2,3,5"])[0] == 0
    monkeypatch.undo()
    for kind, field, args in calls:
        L, k = field.levels, field.depth
        if kind == "root":
            over_every_factor(squarefree, L, k, list(args[0]) + [field.one()])
        else:
            over_every_factor(unit, L, k, [args[0]])
    assert any(kind == "root" and field.depth and len(args[0]) > 1
               for kind, field, args in calls)
    assert any(kind == "radical" and field.depth and args[1] > 1
               for kind, field, args in calls)


@pytest.mark.parametrize("flagged", [True, False])
def test_a_constant_last_remainder_is_certified_not_inverted(monkeypatch,
                                                             flagged):
    """gcd(x^2 + t, x + s) over t^2 = s, s^2 = 2: the last remainder is the
    constant 2 + t.  The top storey inverts only the lead 1 of x + s.  Over
    the tower flagged as fields 2 + t is a unit with no certificate;
    unflagged, one gcd with t^2 - s one storey down certifies it."""
    F, s = adjoin_root(QQ, (Rat(-2), Rat(0)), "s", is_field=flagged)
    F, t = adjoin_root(F, (_neg(F.levels, 1, s), F.zero()), "t",
                       is_field=flagged)
    L, k = F.levels, F.depth
    minpoly = [_neg(L, 1, s), _zero(L, 1), lift(L, 0, 1, Rat(1))]
    s = lift(L, 1, 2, s)
    inverted = spy(monkeypatch, exactnum, "_inv")
    gcds = spy(monkeypatch, exactnum, "_pgcd")
    assert _pgcd(L, k, [t, F.zero(), F.one()], [s, F.one()])[0] == [F.one()]
    two_plus_t = _add(L, k, F.from_rat(2), t)
    assert [(levels, a) for levels, j, a in inverted if j == k] == [(L, F.one())]
    below = [(levels, list(f), g) for levels, j, f, g in gcds if j == k - 1]
    assert below == [(L, minpoly, two_plus_t)] * (not flagged)


@given(st.data())
def test_a_unit_is_certified_by_a_gcd_not_an_inverse(data):
    """Over storey k of every tower of TOWERS, is_zero_validated answers
    as ref_inv does: True on zero, False on a unit, and on a zero divisor
    the SplitEvent of inverting it, with the same storey and tails and the
    tower's full levels.  It inverts nothing at storey k, and over Q
    (k = 1) it runs no elimination (_bareiss)."""
    F, t = build_tower(data.draw(st.sampled_from(TOWERS)))
    k = data.draw(st.integers(1, F.depth))
    L = F.levels[:k]
    low = data.draw(st.integers(0, k))          # storey the element lies in
    size = ExtField(L[:low]).degree
    a = lift(L, low, k, element(L, low, data.draw(
        st.lists(coefficients, min_size=size, max_size=size))))
    root = data.draw(st.sampled_from((None, 1, -1)))
    if root is not None:        # t, or storey k's generator, minus a root
        below = ExtField(L[:k - 1]).degree
        gen = t if k == F.depth else element(L, k, [Rat(int(i == below))
                                                    for i in range(ExtField(L).degree)])
        a = ref_mul(L, k, a, _sub(L, k, gen, lift(L, 0, k, Rat(root))))
    want = outcome(ref_inv, L, k, a)
    with pytest.MonkeyPatch.context() as mp:
        inverted = spy(mp, exactnum, "_inv")
        eliminated = spy(mp, exactnum, "_bareiss")
        try:
            got = ("zero",) if is_zero_validated(ExtField(L), a) else ("unit",)
        except SplitEvent as ev:
            assert ev.levels == L
            got = "split", ev.k, ev.g_tail, ev.h_tail
    assert got == (want if want[0] == "split" else want[:1])
    assert [j for _, j, _ in inverted if j == k] == []
    assert k > 1 or eliminated == []


# ---------------------------------------------------------------------------
# the one fraction-free elimination on the int ring, against the
# determinant as a sum over permutations


def leibniz_det(rows):
    n = len(rows)
    det = Rat(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[j] > perm[i] for i in range(n) for j in range(i))
        det += (-1) ** inversions * math.prod(Rat(r[p]) for r, p in zip(rows, perm))
    return det


@given(st.data())
def test_bareiss_gives_the_determinant_up_to_the_swap_sign(data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(st.just(0) | st.integers(-3, 3), min_size=n,
                                       max_size=n), min_size=n, max_size=n))
    zero_column = data.draw(st.none() | st.integers(0, n - 1))
    for row in rows if zero_column is not None else ():
        row[zero_column] = 0
    if data.draw(st.booleans()):            # a swap before the first step
        rows[0][0] = 0
    det = leibniz_det(rows)
    sign = exactnum._bareiss(rows)
    assert sign in (-1, 0, 1)
    if sign:
        assert sign * rows[-1][-1] == det
    else:
        assert det == 0                     # only a singular matrix


def test_bareiss_checks_its_divisions(monkeypatch):
    """With each numerator raised by 1, the first step's division by 1
    leaves 5 on the diagonal, and the second step's division by the first
    pivot 2 is inexact: (5 * 5 - 1 * 1 + 1) / 2."""
    quo = exactnum._zquo
    monkeypatch.setattr(exactnum, "_zquo", lambda num, den: quo(num + 1, den))
    rows = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    with pytest.raises(InternalInconsistency, match="Bareiss"):
        exactnum._bareiss(rows)


# ---------------------------------------------------------------------------
# the modular gcd over Q against a plain Fraction Euclid

P61 = 2 ** 61 - 1


def ref_gcd(u, v):
    """Monic gcd of rational lists (low to high) by Fraction Euclid."""
    u, v = _ptrim((), 0, u), _ptrim((), 0, v)
    while v:
        r = u
        while len(r) >= len(v):
            c, off = r[-1] / v[-1], len(r) - len(v)
            r = _ptrim((), 0, [x - c * v[i - off] if i >= off else x
                               for i, x in enumerate(r)])
        u, v = v, r
    return [x / u[-1] for x in u]


gcd_coefficients = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.integers(-2 ** 70, 2 ** 70).map(Rat),
    st.sampled_from([Rat(P61), Rat(-2 * P61), Rat(1, P61)]))
lists = st.lists(gcd_coefficients, max_size=5)


@given(lists, lists, lists)
def test_modular_gcd_matches_fraction_euclid(u, v, h):
    a, b = _pmul((), 0, u, h), _pmul((), 0, v, h)
    assert qgcd(a, b) == ref_gcd(a, b)


def primes_used(monkeypatch, u, v):
    images = spy(monkeypatch, exactnum, "_gcd_mod")
    return qgcd(u, v), [p for _, _, p in images]


def test_an_unlucky_first_prime_is_dropped(monkeypatch):
    # x(x + P) and x(x + 2P): the gcd is x, but mod P both are x^2
    u = [Rat(0), Rat(P61), Rat(1)]
    v = [Rat(0), Rat(2 * P61), Rat(1)]
    g, used = primes_used(monkeypatch, u, v)
    assert g == [Rat(0), Rat(1)] == ref_gcd(u, v)
    assert used == exactnum._PRIMES[:2]


def zgcd_image_degrees(monkeypatch, A, B):
    """_zgcd(A, B) and the degree of each image over GF(p) it computed."""
    degrees, gcd_mod = [], exactnum._gcd_mod

    def recording(a, b, p):
        g = gcd_mod(a, b, p)
        degrees.append(len(g) - 1)
        return g
    monkeypatch.setattr(exactnum, "_gcd_mod", recording)
    return exactnum._zgcd(A, B), degrees


def test_an_image_of_lower_degree_restarts_the_remaindering(monkeypatch):
    # x - 1 - P is x - 1 mod P, so the first image is all of A
    P = next(exactnum._primes())
    A = exactnum._zmul([2, 1], [-1, 1])
    B = exactnum._zmul([2, 1], [-1 - P, 1])
    (H, _, _), degrees = zgcd_image_degrees(monkeypatch, A, B)
    assert degrees == [2, 1]
    assert H in ([2, 1], [-2, -1])


def test_an_image_of_higher_degree_than_the_last_is_dropped(monkeypatch):
    # H = x + P + 1 is x + 1 mod P, which does not lift to H; mod p2 the
    # cofactor x - 1 - p2 of B is x - 1, and that image is dropped
    P, p2, _ = itertools.islice(exactnum._primes(), 3)
    H = [P + 1, 1]
    A = exactnum._zmul(H, [-1, 1])
    B = exactnum._zmul(H, [-1 - p2, 1])
    gcd, degrees = zgcd_image_degrees(monkeypatch, A, B)
    assert degrees == [1, 2, 1]
    assert gcd == (H, [-1, 1], [-1 - p2, 1])


def test_a_gcd_with_large_coefficients_needs_two_primes(monkeypatch):
    c = 3 ** 50                                 # above 2^61
    u = _pmul((), 0, [Rat(c), Rat(1)], [Rat(1), Rat(1)])
    v = _pmul((), 0, [Rat(c), Rat(1)], [Rat(-1), Rat(1)])
    g, used = primes_used(monkeypatch, u, v)
    assert g == [Rat(c), Rat(1)]
    assert used == exactnum._PRIMES[:2]


def test_gcd_signs_denominators_and_zeros():
    # -2*(x^2 - 1) and -3/2*(x - 1)
    assert qgcd([Rat(2), Rat(0), Rat(-2)],
                [Rat(3, 2), Rat(-3, 2)]) == [Rat(-1), Rat(1)]
    assert qgcd([Rat(1, 2), Rat(-3)], []) == [Rat(-1, 6), Rat(1)]
    assert qgcd([], [Rat(0), Rat(-5, 7)]) == [Rat(0), Rat(1)]
    assert qgcd([Rat(0)], []) == []
    assert qgcd([Rat(-4)], [Rat(0), Rat(1)]) == [Rat(1)]


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1
                                  for r in range(1, s))


def test_the_prime_generator_yields_primes():
    sieve = [True] * 20000
    for i in range(2, 142):
        sieve[i * i::i] = [False] * len(range(i * i, 20000, i))
    assert all(exactnum._is_prime(n) is sieve[n] for n in range(39, 20000, 2))
    # strong pseudoprimes to the bases 2..7 and 2..23
    assert not exactnum._is_prime(3215031751)
    assert not exactnum._is_prime(3825123056546413051)
    primes = exactnum._primes()
    got = [next(primes) for _ in range(4)]
    assert got[0] == P61 and got == sorted(got, reverse=True)
    for p in got:
        assert all(strong_probable_prime(p, a) for a in (41, 43, 47, 53, 59))


def test_importing_qres_makes_no_prime():
    code = ("import qres, qres.cli; from qres import exactnum; "
            "assert exactnum._PRIMES == [2 ** 61 - 1]")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


# the irreducibility certificate over Q


QUARTIC_PRODUCT_S = [256, 0, 0, 0, 893, -200, 90, -16, 1115, -275, 105, -17,
                     433, 0, 0, 0, 81]


def cyclotomic(p):
    return [1] * p


@pytest.mark.parametrize("A", [[-2, 1], [-2, 0, 1], [-2, 0, 0, 0, 0, 1],
                               [-2] + [0] * 11 + [1], cyclotomic(3),
                               cyclotomic(5), cyclotomic(7), cyclotomic(13),
                               QUARTIC_PRODUCT_S])
def test_the_certificate_accepts_irreducible_polynomials(A):
    """x^n - 2 (Eisenstein), cyclotomic Phi_p, and the candidate polynomial
    of degree 16 of the singular-locus search on the product of two plane
    quartics (its 16 crossings are conjugate)."""
    assert exactnum.certified_irreducible(A)


def test_distinct_degree_patterns():
    # x^3 + x + 1 is irreducible mod 2; x^2 - 4 = (x - 2)(x + 2) mod 5
    assert exactnum._ddf_degrees([1, 1, 0, 1], 2) == [3]
    assert exactnum._ddf_degrees([1, 0, 1], 5) == [1, 1]
    # (x^2 + 1)(x^3 + 2x + 1)(x + 1) mod 3; the first two have no root
    f = exactnum._monic_mod(exactnum._zmul(exactnum._zmul(
        [1, 0, 1], [1, 2, 0, 1]), [1, 1]), 3)
    assert sorted(exactnum._ddf_degrees(f, 3)) == [1, 2, 3]


integer_factor = st.builds(
    lambda tail, lead: tail + [lead],
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.integers(-4, 4).filter(bool))


@given(integer_factor, integer_factor)
def test_the_certificate_refuses_products(G, H):
    assert not exactnum.certified_irreducible(exactnum._zmul(G, H))


@given(st.integers(-50, 50), st.integers(1, 20))
def test_the_certificate_refuses_a_square_under_a_radical(p, q):
    """s(x^2) for s(t) = t - c^2, c = p/q: q^2 x^2 - p^2 = (qx - p)(qx + p)."""
    assert not exactnum.certified_irreducible([-p * p, 0, q * q])


# cluster fields flagged by the certificate

# irreducible candidate polynomials s(t) of the singular-locus search, each
# with the w for which S = s(x^w) is irreducible over Q
CLUSTER_FACTORS = [
    ([-2, 1], (1, 2, 3, 4)),        # x^w - 2 (Eisenstein)
    ([1, 1], (1, 2, 4)),            # x^3 + 1 has the root -1
    ([-4, 1], (1, 3)),              # x^2 - 4 and x^4 - 4 = (x^2 - 2)(x^2 + 2)
    ([4, 1], (1, 2, 3)),            # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2)
    ([-2, 0, 1], (1, 2, 3, 4)),     # x^2w - 2 (Eisenstein)
    ([1, 1, 1], (1, 3)),            # Phi_3 and Phi_9; x^4 + x^2 + 1 factors
    ([1, 0, 1], (1, 2, 4)),         # Phi_4, Phi_8 and Phi_16; x^6 + 1 factors
]


@given(st.data())
def test_a_cluster_field_is_flagged_only_where_it_is_a_field(data):
    """v = x^k times powers of S_i = s_i(x^w) for distinct s_i of
    CLUSTER_FACTORS: S is irreducible only for one s_i with a listed w, and
    only then may _cluster_field flag Q(t, u).  On a flagged field no drawn
    element is a zero divisor, and is_zero_validated answers as it does,
    by inverting, on the same tower unflagged."""
    w = data.draw(st.integers(1, 4))
    picks = data.draw(st.lists(st.sampled_from(CLUSTER_FACTORS), min_size=1,
                               max_size=2, unique_by=lambda f: tuple(f[0])))
    v = [0] * data.draw(st.integers(0, 2)) + [1]
    for s, _ in picks:
        S = [0] * ((len(s) - 1) * w + 1)
        S[::w] = s
        for _ in range(data.draw(st.integers(1, 2))):
            v = exactnum._zmul(v, S)
    _, field, _ = wproj._cluster_field(v, w, "t", "u")
    L, k = field.levels, field.depth
    if not (len(picks) == 1 and w in picks[0][1]):
        assert not any(lv.is_field for lv in L)
    if not field.is_field:
        return
    plain = ExtField(tuple(exactnum.Level(lv.name, lv.minpoly,
                                          lv.counts_points) for lv in L))
    assert plain == field and not any(lv.is_field for lv in plain.levels)
    a = element(L, k, data.draw(st.lists(coefficients, min_size=field.degree,
                                         max_size=field.degree)))
    zero = _is_zero(L, k, a)
    assert outcome(ref_inv, L, k, a)[0] == ("zero" if zero else "unit")
    assert is_zero_validated(field, a) == is_zero_validated(plain, a) == zero
