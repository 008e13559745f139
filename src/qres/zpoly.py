"""Integer polynomials, as trimmed int lists (low to high), and their images
over GF(p), with no tower: the gcd over Q, the irreducibility certificate and
the one fraction-free elimination, with the packing of its entries."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import InternalInconsistency, NotInvertible


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


def _zgcd_all(lists):
    """The primitive gcd of the nonzero integer lists in lists, [] if there
    are none; it stops at the first constant gcd."""
    g = []
    for v in filter(None, lists):
        g = _zgcd(v, g)[0]
        if len(g) == 1:
            break
    return g


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


def _zclear(v):
    """(V, c) with v = c * V for a list v of rationals (or ints): V is a
    primitive integer list and c > 0 rational; ([], 0) for v = []."""
    num, den = _zden(v)
    cont = math.gcd(*num)
    return [x // cont for x in num], Fraction(cont, den)


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


def _zpack(v, w):
    """The value at 2^B, B = 8 w, of an integer list v (low to high) whose
    entries lie in [-2^(B - 1), 2^(B - 1)): each entry plus 2^(B - 1) is
    one B-bit digit, and that offset is subtracted once."""
    half = 1 << (8 * w - 1)
    return (int.from_bytes(b"".join((x + half).to_bytes(w, "little") for x in v), "little")
            - int.from_bytes((bytes(w - 1) + b"\x80") * len(v), "little"))


def _zunpack(n, w):
    """The trimmed integer list v with _zpack(v, w) = n, its entries in
    [-2^(B - 1), 2^(B - 1)), B = 8 w: n plus 2^(B - 1) in each of enough
    digits is cut into B-bit digits (int.to_bytes), each less the offset."""
    digits = abs(n).bit_length() // (8 * w) + 2
    raw = (n + int.from_bytes((bytes(w - 1) + b"\x80") * digits, "little")).to_bytes(
        digits * w, "little")
    half = 1 << (8 * w - 1)
    v = [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, len(raw), w)]
    while v and not v[-1]:
        v.pop()
    return v
