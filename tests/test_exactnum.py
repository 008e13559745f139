import math

import pytest
from hypothesis import given, strategies as st

from qres.errors import (DivisionByZero, ExtensionOverflow, NotInvertible,
                         NotSquarefree)
from qres.exactnum import (ExtField, Rat, SplitEvent, _add, _inv, _is_zero,
                           _mul, _neg, _smul, _sub, adjoin_radical,
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
    F, t = adjoin_root(QQ, (Rat(-1), Rat(0), Rat(0)), "t", counts_points)
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
    F, _ = adjoin_root(QQ, (Rat(-2), Rat(0)), "s", counts_points=False)
    F2, _ = adjoin_root(F, (F.from_rat(-3), F.zero(), F.zero()), "r")
    assert F.cluster_size == 1
    assert F2.degree == 6 and F2.cluster_size == 3


def test_extension_bound():
    with pytest.raises(ExtensionOverflow):
        adjoin_root(QQ, (Rat(-5), Rat(0), Rat(0)), "c", bound=2)
    adjoin_root(QQ, (Rat(-5), Rat(0), Rat(0)), "c", bound=3)


def test_adjoin_rejects_non_squarefree():
    with pytest.raises(NotSquarefree):
        adjoin_root(QQ, (Rat(0), Rat(0)), "t")


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
