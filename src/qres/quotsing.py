"""Cyclic quotient surface singularity types X(d; a, b) and their weighted
blow-up charts.

A type is the quotient of C^2 by (x, y) -> (zeta^a x, zeta^b y) with zeta a
primitive d-th root of unity.  Normal form means gcd(d, a) = gcd(d, b) = 1,
so the action is free away from the origin; every type with gcd(d, a, b) = 1
normalizes in one pass of dividing by the stabilizer subgroups, and the
normalization map (x, y) -> (x^s, y^r) tells how germ exponents rewrite.

Chart types of a (p, q) blow-up follow one closed formula, uniform in d:
both the smooth case and the singular case fall out because inverses modulo
1 are 0 by convention.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import BadType, NonExactDivision
from .exactnum import Rat
from .zpoly import mod_inverse


@dataclass(frozen=True, order=True)
class QuotType:
    d: int
    a: int
    b: int

    def __str__(self):
        return "X(%d;%d,%d)" % (self.d, self.a, self.b)


SMOOTH = QuotType(1, 0, 0)

_TYPE_RE = re.compile(r"^\s*X\(\s*(\d+)\s*;\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*$")


def parse_type(text: str) -> QuotType:
    m = _TYPE_RE.match(text)
    if not m:
        raise BadType("cannot parse %r as X(d;a,b)" % (text,))
    d, a, b = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if d < 1:
        raise BadType("order must be positive in %r" % (text,))
    return QuotType(d, a % d, b % d)


def normalize_with_multipliers(d: int, a: int, b: int):
    """Normal form plus the exponent divisors of the normalization map.

    Returns (QuotType, mx, my): a germ living on X(d;a,b) descends to the
    normal form with every x-exponent divided by mx and every y-exponent by
    my (the map upstairs is (x, y) -> (x^mx, y^my)).
    """
    if d < 1:
        raise BadType("order must be positive, got %d" % (d,))
    a %= d
    b %= d
    if math.gcd(math.gcd(d, a), b) != 1:
        raise BadType(
            "X(%d;%d,%d) has a non-faithful action: gcd(d, a, b) = %d"
            % (d, a, b, math.gcd(math.gcd(d, a), b)))
    mx = my = 1
    while d > 1:
        r = math.gcd(d, a)
        s = math.gcd(d, b)
        if r == 1 and s == 1:
            break
        d //= r * s
        a = (a // r) % d if d > 1 else 0
        b = (b // s) % d if d > 1 else 0
        mx *= s
        my *= r
    if d == 1:
        return SMOOTH, mx, my
    return QuotType(d, a, b), mx, my


def normalize_type(d: int, a: int, b: int) -> QuotType:
    t, _, _ = normalize_with_multipliers(d, a, b)
    return t


def is_normalized(t: QuotType) -> bool:
    if t.d == 1:
        return (t.a, t.b) == (0, 0)
    return (0 < t.a < t.d and 0 < t.b < t.d
            and math.gcd(t.d, t.a) == 1 and math.gcd(t.d, t.b) == 1)


def require_normalized(t: QuotType) -> None:
    if not is_normalized(t):
        hint = normalize_type(t.d, t.a, t.b)
        raise BadType("%s is not in normal form; its normalization is %s"
                      % (t, hint))


def types_isomorphic(t: QuotType, u: QuotType) -> bool:
    """Equality up to multiplying (a, b) by a unit and swapping the axes."""
    t = normalize_type(t.d, t.a, t.b)
    u = normalize_type(u.d, u.a, u.b)
    if t.d != u.d:
        return False
    if t.d == 1:
        return True
    for w in range(1, t.d):
        if math.gcd(w, t.d) != 1:
            continue
        pair = (w * t.a % t.d, w * t.b % t.d)
        if pair == (u.a, u.b) or pair == (u.b, u.a):
            return True
    return False


@dataclass(frozen=True)
class BlowupCharts:
    """Chart data of the (p, q) weighted blow-up over X(d;a,b).

    chart1 covers the chart with exceptional locus x = 0 (map (x, y) ->
    (x^p, x^q y)); chart2 the one with y = 0.  A germ's total transform in
    chart 1 first divides all x-exponents by e and then by the chart's
    normalization multiplier; xdiv1/ydiv2 hold the combined divisors.
    """

    parent: QuotType
    p: int
    q: int
    e: int
    chart1: QuotType
    chart2: QuotType
    xdiv1: int
    ydiv2: int


def blowup_charts(t: QuotType, p: int, q: int) -> BlowupCharts:
    require_normalized(t)
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise BadType("blow-up weights must be coprime positive integers, got (%d, %d)" % (p, q))
    d, a, b = t.d, t.a, t.b
    e = math.gcd(d, (p * b - q * a) % d)
    a1 = mod_inverse(a, d)
    b1 = mod_inverse(b, d)
    num1 = -q + a1 * p * b
    num2 = -p + b1 * q * a
    if num1 % e or num2 % e:
        raise NonExactDivision(
            "chart numerators (%d, %d) are not divisible by e = %d" % (num1, num2, e))
    c1, mx1, my1 = normalize_with_multipliers(p * d // e, 1, num1 // e)
    c2, mx2, my2 = normalize_with_multipliers(q * d // e, num2 // e, 1)
    if my1 != 1 or mx2 != 1:
        raise NonExactDivision(
            "unexpected normalization multipliers (%d, %d) for charts of %s" % (my1, mx2, t))
    return BlowupCharts(parent=t, p=p, q=q, e=e, chart1=c1, chart2=c2,
                        xdiv1=e * mx1, ydiv2=e * my2)


def exceptional_data(bc: BlowupCharts, nu: int):
    """Multiplicity of the exceptional divisor in the total transform and
    its self-intersection contribution: (nu/e, e*nu/(p*q*d))."""
    return (Rat(nu, bc.e),
            Rat(bc.e * nu, bc.p * bc.q * bc.parent.d))
