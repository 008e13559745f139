"""Exact coefficient arithmetic: rationals and dynamic algebraic towers.

Everything downstream computes over a field that starts as Q and grows by
adjoining roots of monic squarefree polynomials.  The minimal polynomials are
*not* assumed irreducible, unless a Level is flagged as a field: arithmetic
proceeds as if they were, and a zero divisor splits the tower the moment it
is met (classic dynamic evaluation).  A unit is certified by its gcd with
its storey's minimal polynomial (_certify), not by an inverse; an inverse
(_inv) is taken only where a caller divides.  Over a tower of flagged
Levels, nonzero means unit.  The split is surfaced as a SplitEvent; its
targets() are the factor towers, with projection maps, that a computation
retries in.  That policy and the adjunctions live here, so the resolution
engine and the singular-locus search share them; each adjoined polynomial
is squarefree by its caller's construction (adjoin_root) and is not
checked again.  Divisions by monic polynomials invert nothing.

Element representation is positional, canonical and closed under hashing:
a level-0 element is a Fraction; a level-1 element, of a storey over Q of
degree n, is a pair (P, d) for P / d, P a tuple of n ints and d > 0 an int
with gcd(d, *P) = 1, zero being ((0,) * n, 1) (Cohen 1993, 4.2); a level-k
element, k >= 2, is a tuple of level-(k-1) elements whose length equals the
degree of the k-th minimal polynomial.  No element object carries a field
pointer: the functions below take the tower's levels and depth explicitly,
and each storey keeps its one zero (Level.zero).

The storey over Q (k = 1) is the base case of tower arithmetic, on ints
alone: a sum or a scalar multiple is one integer map and one gcd
(_qpair), a product or an inverse works on the numerators against the
storey's primitive integer minimal polynomial (Level.zminpoly) and reduces
by _zrem, and so does the projection into a factor of it.  Fractions are
made only where a value leaves the storey for Q: a split's tails, a linear
factor's value and format_rep's digits.  A higher storey multiplies as
polynomials over the storey below; every division by a monic polynomial
above Q, in a product, a projection or a Euclid, is _pdivmod; every gcd
and inverse there is one monic Euclid, _peuclid, and a gcd (_pgcd) returns
its cofactors, (g, a / g, b / g), as _zgcd does over Z.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass, field as _field
from fractions import Fraction
from functools import cached_property

from .errors import (
    BadType,
    DivisionByZero,
    ExtensionOverflow,
    InternalInconsistency,
    NotInvertible,
)

Rat = Fraction
_QZERO, _QONE = Fraction(0), Fraction(1)


def mod_inverse(a: int, d: int) -> int:
    """Inverse of a modulo d, in [1, d) for d > 1.  By convention d = 1 -> 0.

    The d = 1 case keeps blow-up chart formulas uniform at smooth points,
    where every congruence is vacuous.
    """
    if d < 1:
        raise ValueError("modulus must be >= 1, got %r" % (d,))
    if d == 1:
        return 0
    a %= d
    if math.gcd(a, d) != 1:
        raise NotInvertible("%d is not invertible modulo %d" % (a, d))
    return pow(a, -1, d)


@dataclass(frozen=True)
class Level:
    """One storey of a tower: a generator name and its monic minimal polynomial.

    minpoly holds the tail (c_0, ..., c_{n-1}) of t^n + c_{n-1} t^{n-1} + ... + c_0,
    coefficients being elements one level down.  counts_points marks whether the
    conjugates of this generator represent distinct downstream points (face root
    parameters do; covering-chart radicals do not).  is_field marks a minimal
    polynomial proven irreducible over the storeys below, so that the storey
    is a field where they are; it is set where the Level is made, from a
    certificate (wproj._cluster_field), and never afterwards; it is kept
    on the object, outside equality.
    """

    name: str
    minpoly: tuple
    counts_points: bool = True
    is_field: bool = _field(default=False, compare=False, repr=False)

    @property
    def degree(self) -> int:
        return len(self.minpoly)

    @cached_property
    def zminpoly(self):
        """For a storey over Q: the minimal polynomial as a primitive integer
        list, its lead positive; kept on the object, outside equality."""
        return _zclear(list(self.minpoly) + [1])[0]

    @cached_property
    def zero(self):
        """The zero of this storey, kept on the object, outside equality:
        ((0,) * n, 1) over Q, else n zeros shaped as the tail's."""
        c = self.minpoly[0]
        if not isinstance(c, tuple):
            return (0,) * self.degree, 1
        return (_zero_shaped(c),) * self.degree


def _zero_shaped(c):
    """The zero of the storey of the tower element c, by c's shape."""
    if type(c[1]) is int:
        return (0,) * len(c[0]), 1
    return (_zero_shaped(c[0]),) * len(c)


@dataclass(frozen=True)
class ExtField:
    """A tower Q = F_0 < F_1 < ... < F_depth, one Level per extension."""

    levels: tuple = ()

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def degree(self) -> int:
        n = 1
        for lv in self.levels:
            n *= lv.degree
        return n

    @property
    def is_field(self) -> bool:
        """Every storey is flagged as a field (Q, with none, is one)."""
        return all(lv.is_field for lv in self.levels)

    @property
    def cluster_size(self) -> int:
        """Number of conjugate points this tower's distinctions represent."""
        n = 1
        for lv in self.levels:
            if lv.counts_points:
                n *= lv.degree
        return n

    def zero(self):
        return _zero(self.levels, self.depth)

    def one(self):
        return lift(self.levels, 0, self.depth, _QONE)

    def from_rat(self, c):
        return lift(self.levels, 0, self.depth, Fraction(c))

    def describe(self) -> str:
        if not self.levels:
            return "Q"
        return "Q(" + ", ".join(
            "%s:deg %d%s" % (lv.name, lv.degree, "" if lv.counts_points else "*")
            for lv in self.levels
        ) + ")"


# ---------------------------------------------------------------------------
# representation arithmetic


def _zero(levels, k):
    return levels[k - 1].zero if k else _QZERO


def lift(levels, k_from, k_to, rep):
    """Embed a level-k_from element as a level-k_to element."""
    for k in range(k_from + 1, k_to + 1):
        z = levels[k - 1].zero
        rep = ((rep.numerator,) + z[0][1:], rep.denominator) if k == 1 else (rep,) + z[1:]
    return rep


def _qpair(V, d):
    """The element V / d of a storey over Q, for ints V and d != 0, in
    canonical form (P, d): d > 0 and gcd(d, *P) = 1."""
    V = tuple(V)
    if d == 1:
        return V, 1
    g = math.gcd(d, *V) * (1 if d > 0 else -1)
    return (V, d) if g == 1 else (tuple(c // g for c in V), d // g)


def _is_zero(levels, k, a) -> bool:
    if k == 1:
        return not any(a[0])
    if k == 0:
        return a == 0
    return all(_is_zero(levels, k - 1, c) for c in a)


def _add(levels, k, a, b, op=operator.add):
    """a + b, or with op = operator.sub a - b.  At k = 1 on the numerators
    over one denominator, d e unless the two are equal."""
    if k == 1:
        (P, d), (Q, e) = a, b
        if d == e:
            return _qpair(map(op, P, Q), d)
        return _qpair([op(x * e, y * d) for x, y in zip(P, Q)], d * e)
    if k == 0:
        return op(a, b)
    return tuple(_add(levels, k - 1, x, y, op) for x, y in zip(a, b))


def _neg(levels, k, a):
    if k == 1:
        return tuple(map(operator.neg, a[0])), a[1]
    if k == 0:
        return -a
    return tuple(_neg(levels, k - 1, x) for x in a)


def _sub(levels, k, a, b):
    return _add(levels, k, a, b, operator.sub)


def _mul(levels, k, a, b):
    """The product of level-k elements.  At k = 1 the numerators are
    convolved and reduced on ints (_zrem); above, it is the product of
    polynomials over the storey below, reduced by _pdivmod."""
    if k == 0:
        return a * b
    if k == 1:
        (A, da), (B, db) = a, b
        return _zrem(_zmul(A, B), levels[0].zminpoly, da * db)
    return _pdivmod(levels, k - 1, _pmul(levels, k - 1, a, b), levels[k - 1].minpoly)[1]


def _smul(levels, k, c, a):
    """Multiply by a rational scalar (a Fraction or an int)."""
    if k == 0:
        return c * a
    if k == 1:
        return _qpair([x * c.numerator for x in a[0]], a[1] * c.denominator)
    return tuple(_smul(levels, k - 1, c, x) for x in a)


# ---------------------------------------------------------------------------
# univariate polynomials over a level, as coefficient lists (low to high)


def _pdeg(levels, k, v) -> int:
    for i in range(len(v) - 1, -1, -1):
        if not _is_zero(levels, k, v[i]):
            return i
    return -1


def _ptrim(levels, k, v):
    return list(v[:_pdeg(levels, k, v) + 1])


def _psub(levels, k, u, v):
    return [_sub(levels, k, a, b)
            for a, b in itertools.zip_longest(u, v, fillvalue=_zero(levels, k))]


def _pscale(levels, k, c, v):
    return [_mul(levels, k, c, x) for x in v]


def _pmul(levels, k, u, v):
    """The product of polynomials over level k; zero coefficients of either
    factor are skipped."""
    us = [(i, c) for i, c in enumerate(u) if not _is_zero(levels, k, c)]
    vs = [(j, c) for j, c in enumerate(v) if not _is_zero(levels, k, c)]
    if not us or not vs:
        return []
    out = [_zero(levels, k)] * (us[-1][0] + vs[-1][0] + 1)
    for i, a in us:
        for j, b in vs:
            out[i + j] = _add(levels, k, out[i + j], _mul(levels, k, a, b))
    return out


def _pderiv(levels, k, v):
    return [_smul(levels, k, Fraction(i), v[i]) for i in range(1, len(v))]


def _pdivmod(levels, k, v, tail):
    """(q, r) with v = q (t^n + tail) + r, for a list v of level-k elements
    and n = len(tail): the quotient q as a list, and r as the tuple of its
    n coordinates.  The divisor is monic: nothing is inverted, no split."""
    n = len(tail)
    r = list(v) + [_zero(levels, k)] * (n - len(v))
    for m in range(len(r) - 1, n - 1, -1):
        # r[m] is final here, the quotient's coefficient of t^(m - n)
        c = r[m]
        if not _is_zero(levels, k, c):
            for t in range(n):
                r[m - n + t] = _sub(levels, k, r[m - n + t], _mul(levels, k, c, tail[t]))
    return r[n:], tuple(r[:n])


def _pdiv_exact(levels, k, num, den):
    """num / den for a monic den that divides it, else InternalInconsistency."""
    q, r = _pdivmod(levels, k, num, den[:-1])
    if _pdeg(levels, k, r) >= 0:
        raise InternalInconsistency("polynomial division was not exact")
    return _ptrim(levels, k, q)


def _pmonic(levels, k, v):
    v = _ptrim(levels, k, v)
    if not v:
        raise DivisionByZero("cannot normalize the zero polynomial")
    return _pscale(levels, k, _inv(levels, k, v[-1]), v)


def _peuclid(levels, k, a, b):
    """The monic Euclid of a and b != [] over level k: (m, s) with s b = m
    modulo a.  Each remainder is made monic once, as the next divisor, by
    _inv of its lead.  m is the last divisor when a remainder reaches zero,
    else the nonzero constant last remainder [c], c not inverted."""
    s0, s1 = [], [lift(levels, 0, k, _QONE)]
    while len(b) > 1:
        c = _inv(levels, k, b[-1])
        m, ms = _pscale(levels, k, c, b), _pscale(levels, k, c, s1)
        q, r = _pdivmod(levels, k, a, m[:-1])
        a, b = b, _ptrim(levels, k, r)
        if not b:
            return m, ms
        s0, s1 = s1, _psub(levels, k, s0, _pmul(levels, k, q, ms))
    return b, s1


def _pgcd(levels, k, a, b):
    """(g, a / g, b / g) for the monic gcd g of a and b, not both zero,
    over a storey k >= 1, as _zgcd gives over Z.  g is _peuclid's last
    divisor, and the cofactors come from _pdiv_exact, which inverts
    nothing; a nonzero constant last remainder ends it with g = 1 once
    _certify proves it a unit, by a gcd with the minimal polynomial, not
    an inverse."""
    a, b = _ptrim(levels, k, a), _ptrim(levels, k, b)
    g = _peuclid(levels, k, *((a, b) if b else (b, a)))[0]
    if len(g) > 1:
        return g, _pdiv_exact(levels, k, a, g), _pdiv_exact(levels, k, b, g)
    _certify(levels, k, g[0])
    return [lift(levels, 0, k, _QONE)], a, b


# ---------------------------------------------------------------------------
# integer polynomials (int lists, low to high, trimmed) and their images
# over GF(p): the gcd over Q, Yun over Q, the one fraction-free elimination
# (resultants and the storey-over-Q inverse) and the irreducibility
# certificate of the singular-locus search


_P = 2 ** 61 - 1
_PRIMES = [_P]          # _P and the primes below it that a gcd has needed


def _primes():
    """_P, then the primes below it in decreasing order; each is found the
    first time a gcd needs it and kept in _PRIMES."""
    for i in itertools.count():
        if i == len(_PRIMES):
            _PRIMES.append(next(n for n in range(_PRIMES[-1] - 2, 0, -2) if _is_prime(n)))
        yield _PRIMES[i]


def _is_prime(n) -> bool:
    """Miller-Rabin to the prime bases up to 37, deterministic for odd n
    with 37 < n < 3.3 * 10^24."""
    s = ((n - 1) & (1 - n)).bit_length() - 1       # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))


def _zgcd(A, B):
    """(H, A / H, B / H) for the gcd H of integer polynomials A != [] and B,
    primitive, up to sign, by Brown's modular gcd.

    For each prime p of _primes() that divides neither leading coefficient,
    the gcd over GF(p) is made monic and scaled by gamma = gcd(lc A, lc B).
    Its degree is at least deg H: an image of larger degree than the last
    is dropped, one of smaller degree restarts the Chinese remaindering.
    After each prime, the symmetric lift made primitive is H as soon as it
    divides A and B in Z[x] (it divides H and has an image's degree); the
    quotients of that trial division are the cofactors."""
    if not B:
        H, c = _zclear(A)
        return H, [c.numerator], []
    if len(A) == 1 or len(B) == 1:
        return [1], A, B
    gamma = math.gcd(A[-1], B[-1])
    img = None
    for p in _primes():
        if not (A[-1] % p and B[-1] % p):
            continue
        g = _gcd_mod(A, B, p)
        if len(g) == 1:
            return [1], A, B
        if img is not None and len(g) > len(img):
            continue
        s = gamma * pow(g[-1], -1, p) % p
        g = [c * s % p for c in g]
        if img is None or len(g) < len(img):
            img, m = g, p
        else:
            t = pow(m, -1, p)
            img = [c + m * ((d - c) * t % p) for c, d in zip(img, g)]
            m *= p
        H = _zclear([c - m if 2 * c > m else c for c in img])[0]
        qa = _zdiv(A, H)
        if qa is not None and (qb := _zdiv(B, H)) is not None:
            return H, qa, qb


def _gcd_mod(a, b, p):
    """A gcd of integer lists a and b over GF(p); b is [] or keeps its lead."""
    a, b = [c % p for c in a], [c % p for c in b]
    while b:
        a, b = b, _prem_mod(a, b, p)
    return a


_DDF_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def certified_irreducible(A) -> bool:
    """True only if the integer polynomial A (degree >= 1) is irreducible
    over Q (Musser 1978): for a p in _DDF_PRIMES dividing no lc(A) and
    leaving A squarefree, a factor of degree d in Z[x] maps to distinct
    irreducible factors mod p, so d is a sum of some of their degrees.  No
    d in 1..deg A - 1 may be such a sum for every prime used."""
    undecided = set(range(1, len(A) - 1))
    for p in _DDF_PRIMES:
        if not undecided:
            break
        a = _monic_mod(A, p)
        if len(a) != len(A) or len(_gcd_mod(a, _monic_mod(_zderiv(a), p), p)) > 1:
            continue
        sums = {0}
        for d in _ddf_degrees(a, p):
            sums |= {s + d for s in sums}
        undecided &= sums
    return not undecided


def _monic_mod(a, p):
    """The monic image of an integer list over GF(p), trimmed."""
    a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    inv = pow(a[-1], -1, p) if a else 0
    return [c * inv % p for c in a]


def _ddf_degrees(f, p):
    """Degrees of the irreducible factors of a monic squarefree f over GF(p):
    gcd(f, x^(p^d) - x) has degree sum(e N_e) over the e dividing d, N_e
    factors having degree e; at most one has degree above deg f / 2."""
    n = len(f) - 1
    counts, h = {}, [0, 1]
    for d in range(1, n // 2 + 1):
        m, base, h = p, h, [1]                 # h = h^p mod f
        while m:
            if m & 1:
                h = _prem_mod(_zmul(h, base), f, p)
            base, m = _prem_mod(_zmul(base, base), f, p), m >> 1
        g = _gcd_mod(f, _monic_mod(_zsub(h, [0, 1]), p), p)
        below = sum(e * c for e, c in counts.items() if d % e == 0)
        counts[d] = (len(g) - 1 - below) // d
    out = [d for d, c in counts.items() for _ in range(c)]
    return out + [n - sum(out)] * (sum(out) < n)


def _coprime_images(a, b) -> bool:
    """gcd(a, b) is constant over GF(_P); b is [] or keeps its degree."""
    return len(_gcd_mod(a, b, _P)) == 1


def _prem_mod(a, b, p):
    """Remainder of a by b over GF(p), trimmed; b has a nonzero lead."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            off = i - db
            for t in range(db):
                a[off + t] = (a[off + t] - c * b[t]) % p
    del a[db:]
    while a and not a[-1]:
        a.pop()
    return a


def _zden(v):
    """(V, d) with v = V / d for a list v of rationals (or ints): V is an
    integer list and d > 0 the lcm of the denominators."""
    den = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def _qjoin(elems):
    """(V, d) for a list of elements (P, e) of a storey over Q: d > 0 is
    the lcm of their denominators, and V their numerators over d, one
    integer list."""
    d = math.lcm(*(e for _, e in elems))
    return [c * (d // e) for P, e in elems for c in P], d


def _zclear(v):
    """(V, c) with v = c * V for a list v of rationals (or ints): V is a
    primitive integer list and c > 0 rational; ([], 0) for v = []."""
    num, den = _zden(v)
    cont = math.gcd(*num)
    return [x // cont for x in num], Fraction(cont, den)


def _zrem(C, M, den=1):
    """The element (C / den) mod M of the storey Q[t]/M, for an integer
    list C, an int den != 0 and a trimmed integer list M of degree n >= 1:
    the canonical pair (P, d) of _qpair, or for n = 1 the value at the
    root, a Fraction.  Where lc(M) is not 1, C and den are scaled by
    lc(M)^e first, e = deg C - deg M + 1, so that every step of the long
    division on ints divides exactly (pseudo-division)."""
    n, lead = len(M) - 1, M[-1]
    R = list(C)
    while R and not R[-1]:
        R.pop()
    if (e := len(R) - n) > 0 and lead != 1:
        scale = lead ** e
        R, den = [c * scale for c in R], den * scale
    for i in range(len(R) - 1, n - 1, -1):
        c = R[i] // lead
        if c:
            for t in range(n):
                R[i - n + t] -= c * M[t]
    R = R[:n] + [0] * (n - len(R))
    return _qpair(R, den) if n > 1 else Fraction(R[0], den)


def _qmonic(V):
    """The monic rational list V / lc(V) of a nonzero integer list V."""
    return [Fraction(c, V[-1]) for c in V]


def _zderiv(v):
    return [i * c for i, c in enumerate(v)][1:]


def _zmul(u, v):
    """Product of trimmed integer coefficient lists."""
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, c in enumerate(u):
        if c:
            for j, d in enumerate(v):
                out[i + j] += c * d
    return out


def _zsub(u, v):
    """Difference of integer coefficient lists, trimmed."""
    out = [c - d for c, d in itertools.zip_longest(u, v, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def _zdiv(num, den):
    """The quotient of trimmed integer lists num / den, or None unless den
    divides num in Z[t]."""
    if not num:
        return []
    dd = len(den) - 1
    lead = den[-1]
    rem = list(num)
    quo = [0] * max(len(rem) - dd, 0)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[i + dd], lead)
        if r:
            return None
        if c:
            quo[i] = c
            for t in range(dd):
                rem[i + t] -= c * den[t]
    if not quo or any(rem[:dd]):
        return None
    return quo


def _zquo(num, den):
    """The quotient of ints num / den, or None unless den divides num."""
    q, r = divmod(num, den)
    return None if r else q


def _bareiss(rows) -> int:
    """Fraction-free forward elimination (Bareiss 1968) of the first n - 1
    columns of n rows of ints, in place.  Each division by the previous
    pivot is exact (_zquo gives None otherwise): from column i on, row i
    ends as minors of order i + 1, left of it uncleared, and the last row's
    entry in column n - 1 as the determinant times the row-swap sign.
    Returns that sign, or 0 when a column has no pivot.  Its callers are
    the storey-over-Q inverse and poly's resultants, whose polynomial
    entries come packed into ints (poly._subresultant)."""
    sign, prev, n = 1, 1, len(rows)
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row, piv = rows[k], rows[k][k]
        for row in rows[k + 1:]:
            lead = row[k]
            row[k + 1:] = [_zquo(piv * x - lead * y, prev)
                           for x, y in zip(row[k + 1:], pivot_row[k + 1:])]
            if None in row:
                raise InternalInconsistency("non-exact division in Bareiss elimination")
        prev = piv
    return sign


# ---------------------------------------------------------------------------
# inversion and splitting


class SplitEvent(Exception):
    """A tower level's minimal polynomial was caught being reducible.

    Carries the offending level index (0-based), the two monic cofactors as
    tails, and the original levels.  targets() yields the factor towers a
    computation continues in.
    """

    def __init__(self, levels, k, g_tail, h_tail):
        super().__init__(
            "minimal polynomial of level %d (%s) split into degrees %d and %d"
            % (k, levels[k].name, len(g_tail), len(h_tail))
        )
        self.levels = tuple(levels)
        self.k = k
        self.g_tail = tuple(g_tail)
        self.h_tail = tuple(h_tail)

    @property
    def counts_points(self) -> bool:
        return self.levels[self.k].counts_points

    def targets(self):
        """The factor towers to continue in, each as (ExtField, project),
        project mapping any old representation (given with its level) into
        that tower.

        A level that counts points splits its cluster into two packets of
        conjugate points, so both factors are kept.  A level that does not
        only parametrizes local coordinates: either factor describes the
        same points downstairs, so only the one with the smaller tail is
        kept (the first on a tie)."""
        tails = (self.g_tail, self.h_tail)
        if not self.counts_points:
            tails = (min(tails, key=len),)
        return [_make_factor(self.levels, self.k, tail) for tail in tails]


def _make_factor(old_levels, k, tail):
    """Build the factor tower where level k's minpoly is replaced by `tail`,
    plus the projection of old representations into it.  The factor's
    Level is always built, as the projection reduces by it, and kept in the
    tower only when its degree is above 1."""
    lv = old_levels[k]
    new = Level(lv.name, tuple(tail), lv.counts_points)

    def project(rep, level):
        return _project(old_levels, k, new, rep, level)

    new_levels = list(old_levels[:k]) + ([new] if new.degree > 1 else [])
    for j in range(k + 1, len(old_levels)):
        up = old_levels[j]
        new_tail = tuple(project(c, j) for c in up.minpoly)
        new_levels.append(Level(up.name, new_tail, up.counts_points))
    return ExtField(tuple(new_levels)), project


def _project(old_levels, k, new, rep, level):
    """Project a level-`level` representation, level > k, into the factor
    tower.

    At level k+1 the coefficient vector is reduced modulo the factor's
    minimal polynomial, by _zrem over Q (k = 0) and by _pdivmod above.  A
    degree-1 factor is the same reduction, whose one coordinate is the
    value at the root, so the storey collapses.  Above that, coefficients
    are projected recursively; the positional shape only changes at level
    k+1 when the level collapses, and at level 2 when that level is the
    storey over Q: there the rationals become one pair (P, d).
    """
    if level > k + 1:
        out = tuple(_project(old_levels, k, new, c, level - 1) for c in rep)
        return _qpair(*_zden(out)) if level == 2 and new.degree == 1 else out
    if k == 0:
        return _zrem(rep[0], new.zminpoly, rep[1])
    r = _pdivmod(old_levels, k, rep, new.minpoly)[1]
    return r if new.degree > 1 else r[0]


def _inv(levels, k, a):
    """Inverse of the level-k element a; a zero divisor raises SplitEvent.

    Over Q, c / d for a rational c = P_0 is d / c, already canonical, and
    _inv_over_q solves for any other element.  An element of a lower
    storey is inverted there and lifted (the Euclid's first division would
    invert the same constant, so a split is the same).  Else _peuclid(m, a)
    for the minimal polynomial m: a proper last divisor g splits m into g
    and m / g, and a last remainder c, inverted below, gives c^-1 s."""
    if k == 0:
        if a == 0:
            raise DivisionByZero("division by zero in Q")
        return _QONE / a
    if _is_zero(levels, k, a):
        raise DivisionByZero("division by zero in %s" % ExtField(tuple(levels[:k])).describe())
    if k == 1:
        if any(a[0][1:]):
            return _inv_over_q(levels, a)
        c = a[0][0]
        return (a[1] if c > 0 else -a[1],) + a[0][1:], abs(c)
    if all(_is_zero(levels, k - 1, c) for c in a[1:]):
        return lift(levels, k - 1, k, _inv(levels, k - 1, a[0]))
    m = list(levels[k - 1].minpoly) + [lift(levels, 0, k - 1, _QONE)]
    g, s = _peuclid(levels, k - 1, m, _ptrim(levels, k - 1, list(a)))
    if len(g) > 1:
        raise SplitEvent(levels, k - 1, g[:-1], _pdiv_exact(levels, k - 1, m, g)[:-1])
    # a Bezout coefficient of a modulo the degree-n minimal polynomial has
    # degree below n, so _pdivmod only pads it to n coordinates
    s = _pscale(levels, k - 1, _inv(levels, k - 1, g[0]), s)
    return _pdivmod(levels, k - 1, s, m[:-1])[1]


def _inv_over_q(levels, a):
    """The inverse of a in the storey Q[t]/m, m = M / lc(M) for the integer
    list M = levels[0].zminpoly, or the SplitEvent of a zero divisor.

    With a = (A, d), the integer columns C_j = L^j (A t^j mod m), L = lc(M),
    follow C_{j+1} = L t C_j - c M, c the top coordinate of C_j.  _bareiss
    eliminates sum_j y_j C_j = e_0 forward to rows U | c with last pivot D,
    the determinant up to sign; back substitution x_i = (D c_i - sum_{j>i}
    U_ij x_j) / U_ii = D y_i divides exactly by Cramer's rule (Nakos, Turner
    and Williams 1997).  The inverse's coordinates are x_j d L^j / D.  A
    zero D, or a column with no pivot, makes a a zero divisor, which
    _certify splits: an inverse is taken only where a caller divides."""
    M = levels[0].zminpoly
    n, lead = len(M) - 1, M[-1]
    A, d = a
    cols = [list(A)]
    for _ in range(n - 1):
        col = cols[-1]
        cols.append([lead * x - col[-1] * m for x, m in zip([0] + col[:-1], M)])
    rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(n)]
    det = _bareiss(rows) and rows[-1][-2]
    if not det:
        _certify(levels, 1, a)
        raise InternalInconsistency("a zero determinant for a unit")
    x = [0] * n
    for i, row in reversed(list(enumerate(rows))):
        x[i] = _zquo(det * row[n] - sum(map(operator.mul, row[i + 1:n], x[i + 1:])), row[i])
        if x[i] is None:
            raise InternalInconsistency("non-exact division in back substitution")
    return _qpair([x[i] * d * lead ** i for i in range(n)], det)


def _certify(levels, k, a):
    """Certify the nonzero level-k element a a unit: its monic gcd g with
    the storey's minimal polynomial m is 1, else SplitEvent(levels, k - 1,
    g, m / g).  Over Q by _zgcd on ints, above by _pgcd(m, a); each gives
    m / g as its cofactor, and _pgcd's _peuclid inverts leads one storey
    down.  Flagged Levels need none."""
    if all(lv.is_field for lv in levels[:k]):
        return
    if k == 1:
        g, h, _ = _zgcd(levels[0].zminpoly, _zsub(a[0], ()))
        if len(g) > 1:
            raise SplitEvent(levels, 0, _qmonic(g)[:-1], _qmonic(h)[:-1])
        return
    m = list(levels[k - 1].minpoly) + [lift(levels, 0, k - 1, _QONE)]
    g, h, _ = _pgcd(levels, k - 1, m, a)
    if len(g) > 1:
        raise SplitEvent(levels, k - 1, g[:-1], h[:-1])


def is_zero_validated(field: "ExtField", rep) -> bool:
    """Decide rep == 0, certifying invertibility of nonzero answers.

    Structural zero is sound (reduction is eager and canonical).  A nonzero
    answer is a unit, certified by _certify with a gcd, not an inverse, or
    raises a SplitEvent for the caller to handle.
    """
    if _is_zero(field.levels, field.depth, rep):
        return True
    _certify(field.levels, field.depth, rep)
    return False


# ---------------------------------------------------------------------------
# adjunction


def ext_bound():
    """The tower degree bound: QRES_EXT_BOUND, default 16; a value <= 0
    means no bound (None), a non-integer raises BadType."""
    raw = os.environ.get("QRES_EXT_BOUND", "16")
    try:
        v = int(raw)
    except ValueError:
        raise BadType("QRES_EXT_BOUND must be an integer, got %r" % (raw,))
    return v if v > 0 else None


def _check_bound(degree: int):
    """ExtensionOverflow where a tower of this degree exceeds ext_bound()."""
    if (bound := ext_bound()) is not None and degree > bound:
        raise ExtensionOverflow("tower degree %d exceeds the bound %d" % (degree, bound))


def _storey(field: ExtField, tail, name: str, counts_points: bool,
            is_field: bool):
    """(field(r), r) for a root r of t^n + tail, n >= 2."""
    level = Level(name, tuple(tail), counts_points, is_field)
    z = level.zero
    root = (((0, 1) + z[0][2:], 1) if not field.depth
            else (z[0], field.one()) + z[2:])
    return ExtField(field.levels + (level,)), root


def adjoin_root(field: ExtField, tail, name: str, is_field: bool = False):
    """Adjoin a root of the monic t^n + tail as a level that counts points;
    returns (new_field, root_rep).  A degree-1 polynomial adjoins nothing:
    the same field comes back with the root it already contains.  A tower
    whose degree would exceed ext_bound() raises ExtensionOverflow.  Only
    a caller that has proven t^n + tail irreducible may set is_field.

    t^n + tail must be squarefree over every factor of `field`; each caller
    makes it so, and nothing here checks it.  wproj._cluster_field's s is
    the radical S of v, x^k stripped, in x^w -> t: a repeated root r of s
    would be nonzero (s(0) != 0) and give S repeated roots at the w-th
    roots of r.  resolve.face_child adjoins a Yun factor, and the search's
    gcd step (wproj._affine_stratum) Yun's radical; over a reducible tower
    a Yun that raised no split inverted only units, so its result is
    squarefree over every factor of the tower.
    """
    n = len(tail)
    if n < 1:
        raise ValueError("minimal polynomial must have degree >= 1")
    if n == 1:
        return field, _neg(field.levels, field.depth, tail[0])
    _check_bound(field.degree * n)
    return _storey(field, tail, name, True, is_field)


def adjoin_radical(field: ExtField, t, w: int, name: str,
                   is_field: bool = False):
    """Adjoin a w-th root u of the element t, u^w = t, as a level that does
    not count points, flagged as adjoin_root flags it; returns
    (new_field, u).  For w = 1 nothing is adjoined and t itself comes back.
    u^w - t is squarefree exactly when t is a unit, and both callers'
    radicands are units, so nothing here checks it: a cluster's s has
    s(0) != 0 (wproj._cluster_field strips x^k), and in resolve.face_child
    t is a root of a factor of a polynomial whose constant term is a
    product of units that ingest certified."""
    if w == 1:
        return field, t
    _check_bound(field.degree * w)
    tail = (_neg(field.levels, field.depth, t),) + (field.zero(),) * (w - 1)
    return _storey(field, tail, name, False, is_field)


# ---------------------------------------------------------------------------
# printing


def format_rep(field: ExtField, rep, _k=None) -> str:
    levels = field.levels
    k = field.depth if _k is None else _k
    if k == 0:
        return str(rep)
    name = levels[k - 1].name
    parts = []
    if k == 1:      # each coordinate printed as its Fraction
        rep = [Fraction(c, rep[1]) for c in rep[0]]
    for i, c in enumerate(rep):
        if _is_zero(levels, k - 1, c):
            continue
        cs = format_rep(field, c, k - 1)
        if k - 1 > 0 and ("+" in cs or " - " in cs):
            cs = "(" + cs + ")"
        if i == 0:
            parts.append(cs)
        else:
            mono = name if i == 1 else "%s^%d" % (name, i)
            parts.append(mono if cs == "1" else "%s*%s" % (cs, mono))
    if not parts:
        return "0"
    return " + ".join(parts)
