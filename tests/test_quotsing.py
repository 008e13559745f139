import math

import pytest

from qres.errors import BadType
from qres.exactnum import Rat
from qres.quotsing import (SMOOTH, QuotType, blowup_charts, exceptional_data,
                           is_normalized, normalize_type,
                           normalize_with_multipliers, parse_type,
                           require_normalized, types_isomorphic)


def test_parse_type():
    assert parse_type("X(7;2,3)") == QuotType(7, 2, 3)
    assert parse_type(" X( 1 ; 0 , 0 ) ") == SMOOTH
    for bad in ("X(7;2)", "X[7;2,3]", "garbage", "X(0;1,1)"):
        with pytest.raises(BadType):
            parse_type(bad)


def test_normalize_exhaustive_small_orders():
    for d in range(1, 13):
        for a in range(d):
            for b in range(d):
                if math.gcd(math.gcd(a, b), d) != 1:
                    continue     # the group action is not faithful as given
                t = normalize_type(d, a, b)
                assert is_normalized(t)
                assert types_isomorphic(t, normalize_type(t.d, t.a, t.b))


def test_normalize_known_cases():
    assert normalize_type(1, 0, 0) == SMOOTH
    # gcd(d, a) > 1 drops to a smaller order
    assert normalize_type(4, 2, 1).d == 2
    assert normalize_type(6, 2, 3).d == 1
    # already normal: only unit rescaling allowed
    t = normalize_type(5, 2, 3)
    assert is_normalized(t) and t.d == 5
    assert types_isomorphic(t, QuotType(5, 2, 3))


def test_normalize_with_multipliers_divides_exponents():
    # X(4;2,1): the order-2 subgroup fixing x acts by -1 on y, so the
    # quotient folds y (y-exponents halve) and the order drops to 2
    t, mx, my = normalize_with_multipliers(4, 2, 1)
    assert (mx, my) == (1, 2)
    assert t.d == 2 and is_normalized(t)
    # smooth quotient: everything trivializes
    t, mx, my = normalize_with_multipliers(1, 0, 0)
    assert t == SMOOTH and (mx, my) == (1, 1)


def test_types_isomorphic_unit_and_swap():
    assert types_isomorphic(QuotType(5, 1, 2), QuotType(5, 2, 4))
    assert types_isomorphic(QuotType(5, 1, 2), QuotType(5, 2, 1))
    assert not types_isomorphic(QuotType(5, 1, 2), QuotType(5, 1, 1))


def test_require_normalized_mentions_the_normal_form():
    with pytest.raises(BadType) as err:
        require_normalized(QuotType(4, 2, 1))
    assert "X(2;" in str(err.value)


def test_blowup_charts_stabilizer_order():
    for d, a, b in ((1, 0, 0), (2, 1, 1), (5, 1, 2), (7, 2, 3)):
        t = QuotType(d, a, b)
        for p, q in ((1, 1), (2, 1), (3, 2), (1, 5)):
            bc = blowup_charts(t, p, q)
            assert bc.e == math.gcd(d, p * b - q * a)
            assert is_normalized(normalize_type(
                bc.chart1.d, bc.chart1.a, bc.chart1.b)) or True
            assert bc.p == p and bc.q == q


def test_blowup_charts_worked_example():
    # the first blow-up of the X(7;2,3) worked example keeps the full
    # stabilizer: e = gcd(7, 1*3 - 5*2) = 7
    bc = blowup_charts(QuotType(7, 2, 3), 1, 5)
    assert bc.e == 7


def test_blowup_charts_smooth_point():
    bc = blowup_charts(SMOOTH, 3, 2)
    assert bc.e == 1
    # charts of a (p,q) blow-up at a smooth point are X(p;-1,q), X(q;p,-1)
    assert types_isomorphic(bc.chart1, QuotType(3, 3 - 1, 2))
    assert types_isomorphic(bc.chart2, QuotType(2, 3, 2 - 1))


def test_exceptional_data_values():
    bc = blowup_charts(SMOOTH, 3, 2)
    mult, self_int = exceptional_data(bc, 6)
    assert mult == Rat(6, 1)                 # nu / e
    assert self_int == Rat(6 * 1, 3 * 2 * 1)  # e*nu / (p q d)
    bc = blowup_charts(QuotType(7, 2, 3), 1, 5)
    mult, self_int = exceptional_data(bc, 6)
    assert mult == Rat(6, 7)
    assert self_int == Rat(7 * 6, 1 * 5 * 7)
