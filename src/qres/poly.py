"""Sparse multivariate polynomials over tower fields, plus the polynomial
geometry the resolution engine runs on: weighted orders, Newton polygons,
weighted blow-up transforms, squarefree (Yun) factorization, and
elimination over Q in two variables (resultants, contents, squarefreeness:
an evaluation probe mod 2^61 - 1 in front of the exact certificate
squarefree_discriminant), which reads a polynomial only as its primitive
integer columns in one variable (_zcolumns) and refuses a tower.

Coefficients are exactnum representations (a Fraction over Q, a pair of an
int tuple and one positive int denominator over a storey over Q, nested
tuples of those above it); a polynomial never stores a structural zero
coefficient.  Whether a nonzero representation is actually invertible is
the caller's concern: the engine validates coefficients before reading
supports, everything here is purely structural.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import exactnum
from .errors import (
    DegeneratePolygon,
    InternalInconsistency,
    NonExactDivision,
    PolySyntaxError,
    UnknownVariable,
    ZeroPolynomial,
)
from .exactnum import ExtField
from .zpoly import (_P, _bareiss, _coprime_images, _qmonic, _zclear, _zden,
                    _zderiv, _zdiv, _zgcd, _zgcd_all, _zmul, _zpack, _zsub,
                    _zunpack)

MAX_EXPONENT = 2 ** 31
MAX_DIGITS = 1000       # digits of an integer literal that is not an exponent
MAX_COEFF_DIGITS = 4300     # of a coefficient: Python's int -> str limit
MAX_NESTING = 100       # parentheses, each level four frames of the parser
_COEFF_LIMIT = 10 ** MAX_COEFF_DIGITS
_COEFF_BITS = _COEFF_LIMIT.bit_length()     # of every integer >= the limit


class SparsePoly:
    """Polynomial with named variables and tower coefficients.

    terms maps exponent tuples to coefficient representations; canonical form
    drops structural zeros, so `not self.terms` is the zero test.
    """

    __slots__ = ("field", "vars", "terms")

    def __init__(self, field: ExtField, variables, terms):
        self.field = field
        self.vars = tuple(variables)
        n = len(self.vars)
        levels, k = field.levels, field.depth
        clean = {}
        for exps, coeff in terms.items():
            if len(exps) != n:
                raise ValueError("exponent tuple %r does not match %r" % (exps, self.vars))
            if not exactnum._is_zero(levels, k, coeff):
                clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def _copy(cls, field, variables, terms):
        """A polynomial on terms that hold no zero coefficient, as the
        terms of another polynomial do, kept without a zero test."""
        out = cls.__new__(cls)
        out.field, out.vars, out.terms = field, tuple(variables), terms
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_univariate(cls, field, var, coeffs):
        return cls(field, (var,), {(i,): c for i, c in enumerate(coeffs)})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), self.field.zero())

    def total_order(self) -> int:
        """Minimum total degree of a term (the multiplicity at the origin)."""
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no order")
        return min(sum(e) for e in self.terms)

    def degree_in(self, var) -> int:
        i = self._vi(var)
        return max((e[i] for e in self.terms), default=-1)

    def min_exp(self, var) -> int:
        i = self._vi(var)
        if not self.terms:
            raise ZeroPolynomial("the zero polynomial has no order")
        return min(e[i] for e in self.terms)

    def _vi(self, var) -> int:
        if isinstance(var, int):
            return var
        try:
            return self.vars.index(var)
        except ValueError:
            raise UnknownVariable("unknown variable %r" % (var,))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if self.field != other.field or self.vars != other.vars:
            raise ValueError("polynomials live in different rings")

    def _ring(self, *ops):
        """exactnum's ops, by default (_add, _mul), on this field."""
        return [functools.partial(op, self.field.levels, self.field.depth)
                for op in ops or (exactnum._add, exactnum._mul)]

    def __add__(self, other, op=exactnum._add):
        self._check(other)
        return SparsePoly(self.field, self.vars, _dadd(
            self.terms, other.terms, *self._ring(op), self.field.zero()))

    def __sub__(self, other):
        return self.__add__(other, exactnum._sub)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        self._check(other)
        return SparsePoly(self.field, self.vars, _dmul(self.terms, other.terms, *self._ring()))

    __rmul__ = __mul__

    def scale(self, c):
        rep = self.field.from_rat(c) if isinstance(c, (int, Fraction)) else c
        mul, = self._ring(exactnum._mul)
        return SparsePoly(self.field, self.vars, {e: mul(rep, v) for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        one = {(0,) * len(self.vars): self.field.one()}
        return SparsePoly(self.field, self.vars, _dpow(self.terms, n, one, *self._ring()))

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (self.field == other.field and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.vars, tuple(sorted(self.terms.items()))))

    # -- substitutions ------------------------------------------------------

    def set_var_zero(self, var):
        i = self._vi(var)
        return SparsePoly._copy(self.field, self.vars,
                                {e: c for e, c in self.terms.items() if e[i] == 0})

    def coeff_list(self, var=None):
        """Coefficients (low to high) of a polynomial that only involves `var`."""
        i = self._vi(var) if var is not None else 0
        for e in self.terms:
            for j, x in enumerate(e):
                if j != i and x:
                    raise ValueError("polynomial is not univariate in %r" % (self.vars[i],))
        d = self.degree_in(i)
        out = [self.field.zero()] * (d + 1 if d >= 0 else 0)
        for e, c in self.terms.items():
            out[e[i]] = c
        return out

    def lift_shift(self, field: ExtField, roots=()):
        """This polynomial in field, a tower over its own, with variable i
        replaced by itself plus roots[i] in field where that is nonzero.
        Into Q: _taylor_shift.  Else the products of root powers are made
        once, as tower products at the top storey K, and each coefficient
        times binomials multiplies them.  Where the coefficients lie over
        Q (k = 0), the products and the coefficients are cleared to ints
        over one denominator each (exactnum._qjoin), their sums are made on
        ints, and each output coordinate over Q, of degree below the
        storey's, is made canonical once (exactnum._qpair); higher up they
        are tower sums and products at the coefficients' storey."""
        levels, k, K = field.levels, self.field.depth, field.depth
        if levels[:k] != self.field.levels:
            raise InternalInconsistency("target tower does not extend the current one")
        shifts = [i for i, r in enumerate(roots) if not exactnum._is_zero(levels, K, r)]
        if K == 0:
            return SparsePoly(field, self.vars, functools.reduce(
                lambda t, i: _taylor_shift(t, i, roots[i]), shifts, self.terms))
        mul_top, one = functools.partial(exactnum._mul, levels, K), field.one()
        powers = {i: [one, *itertools.accumulate([roots[i]] * self.degree_in(i), mul_top)]
                  for i in shifts}
        below = {e: list(itertools.product(*(range(e[i] + 1) for i in shifts)))
                 for e in self.terms}
        prods = {u: functools.reduce(mul_top, [powers[i][j] for i, j in zip(shifts, u) if j]
                                     or [one])
                 for u in dict.fromkeys(u for us in below.values() for u in us)}
        # coordinates at storey k, or for k = 0 pairs (P, d) over Q
        prods = {u: [v] for u, v in prods.items()}
        for _ in range(K - max(k, 1)):
            prods = {u: [c for x in v for c in x] for u, v in prods.items()}
        coeffs = self.terms
        if k == 0:      # prods P / den, coefficients cont * C / cden
            flat, den = exactnum._qjoin([c for v in prods.values() for c in v])
            dim = field.degree
            prods = {u: flat[j * dim:(j + 1) * dim] for j, u in enumerate(prods)}
            num, cden = _zden(list(coeffs.values()))
            cont = math.gcd(*num)
            coeffs = {e: c // cont for e, c in zip(coeffs, num)}
            add, mul, smul, zero = operator.add, operator.mul, operator.mul, 0
        else:
            add, mul, smul = self._ring(exactnum._add, exactnum._mul, exactnum._smul)
            zero = self.field.zero()
        out = {}
        for e, c in coeffs.items():
            for u in below[e]:
                s, w = list(e), 1
                for i, j in zip(shifts, u):
                    s[i] -= j
                    w *= math.comb(e[i], j)
                cw, P = smul(w, c), prods[u]
                acc = out.setdefault(tuple(s), [zero] * len(P))
                for b, x in enumerate(P):
                    acc[b] = add(acc[b], mul(cw, x))
        n1 = levels[0].degree
        for s, v in out.items():
            if k == 0:      # pairs over Q, each already reduced mod M
                v = [exactnum._qpair([c * cont for c in v[j:j + n1]], cden * den)
                     for j in range(0, len(v), n1)]
            for lv in levels[max(k, 1):]:       # back to an element of storey K
                v = [tuple(v[j:j + lv.degree]) for j in range(0, len(v), lv.degree)]
            out[s] = v[0]
        return SparsePoly(field, self.vars, out)

    def divide_var_exponents(self, var, m: int):
        i = self._vi(var)
        for e in self.terms:
            if e[i] % m:
                raise NonExactDivision(
                    "exponent %d of %s is not divisible by %d" % (e[i], self.vars[i], m))
        return SparsePoly._copy(self.field, self.vars, {
            e[:i] + (e[i] // m,) + e[i + 1:]: c for e, c in self.terms.items()})

    def derivative(self, var):
        i = self._vi(var)
        smul, = self._ring(exactnum._smul)
        return SparsePoly(self.field, self.vars, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: smul(Fraction(e[i]), c)
            for e, c in self.terms.items() if e[i]})

    def with_vars(self, names):
        names = tuple(names)
        if len(names) != len(self.vars):
            raise ValueError("variable count mismatch")
        return SparsePoly._copy(self.field, names, dict(self.terms))

    def permute_vars(self, order):
        """Reorder variables; order[i] = index in the old tuple."""
        return SparsePoly._copy(self.field, (self.vars[i] for i in order), {
            tuple(e[i] for i in order): c for e, c in self.terms.items()})

    def map_coeffs(self, fn, new_field):
        return SparsePoly(new_field, self.vars, {e: fn(c) for e, c in self.terms.items()})

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
            cs = exactnum.format_rep(self.field, c)
            mono = "*".join(
                v if x == 1 else "%s^%d" % (v, x)
                for v, x in zip(self.vars, e) if x)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append("-" + mono)
            else:
                if "+" in cs or " - " in cs or "*" in cs:
                    cs = "(" + cs + ")"
                parts.append("%s*%s" % (cs, mono))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return "SparsePoly(%s)" % (self,)


def _taylor_shift(terms: dict, i: int, r: Fraction) -> dict:
    """terms over Q with variable i replaced by itself plus r = p/q: in each
    column, a scale times the primitive integer list A of degree n, the list
    of A_t q^(n - t) is shifted by p in n(n + 1)/2 multiply-adds, and its
    entry at t divided by q^(n - t) (von zur Gathen and Gerhard 1997)."""
    p, q = r.numerator, r.denominator
    cols, out = {}, {}
    for e, c in terms.items():
        cols.setdefault(e[:i] + (0,) + e[i + 1:], {})[e[i]] = c
    for e, col in cols.items():
        n = max(col)
        a, scale = _zclear([col.get(t, 0) for t in range(n + 1)])
        a = [c * q ** (n - t) for t, c in enumerate(a)]
        for s in range(n):
            acc = a[n]
            for t in range(n - 1, s - 1, -1):
                acc = a[t] = a[t] + p * acc
        for t, c in enumerate(a):
            if c:
                out[e[:i] + (t,) + e[i + 1:]] = Fraction(
                    c * scale.numerator, scale.denominator * q ** (n - t))
    return out


# ---------------------------------------------------------------------------
# parsing


def parse_poly(text: str, variables) -> SparsePoly:
    """Recursive-descent parser for +, -, *, ^ over integers, rational
    literals n/m, and the given variables.  Errors carry the offset.  The
    grammar is evaluated on term dicts (exponent tuple -> nonzero int or
    Fraction); one SparsePoly over Q is built at the end."""
    variables = tuple(variables)
    unit = (0,) * len(variables)
    pos = 0
    n = len(text)

    def skip():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def peek():
        skip()
        return text[pos] if pos < n else ""

    def natural(exponent=False) -> int:
        nonlocal pos
        skip()
        start = pos
        while pos < n and text[pos].isdecimal():
            pos += 1
        if start == pos:
            raise PolySyntaxError("expected a number at position %d" % (start,))
        if exponent and (pos - start > 10 or int(text[start:pos]) > MAX_EXPONENT):
            raise PolySyntaxError("exponent above 2^31 at position %d" % (start,))
        if pos - start > MAX_DIGITS:     # checked before int(), which has a limit
            raise PolySyntaxError("number of more than %d digits at position %d"
                                  % (MAX_DIGITS, start))
        return int(text[start:pos])

    # Each value made so far is F/D, F over Z with 1-norm at most
    # 2^(size * mult) and D at most that: size adds the bits of the literals
    # and 1 per binary + or -, mult multiplies the exponents (0 as 1) of
    # bases other than a variable.  Below _COEFF_BITS nothing is scanned.
    size, mult, var_end = 0, 1, -1      # var_end: where a variable ended
    depth = 0                           # of the parentheses open at pos

    def base() -> dict:
        nonlocal pos, size, var_end, depth
        ch = peek()
        if ch == "(":
            if depth == MAX_NESTING:
                raise PolySyntaxError("parentheses nested deeper than %d at "
                                      "position %d" % (MAX_NESTING, pos))
            pos, depth = pos + 1, depth + 1
            e = expr()
            if peek() != ")":
                raise PolySyntaxError("expected ')' at position %d" % (pos,))
            pos, depth = pos + 1, depth - 1
            return e
        if ch.isdecimal():
            c = natural()
            size += c.bit_length()
            skip()
            if pos < n and text[pos] == "/":
                pos += 1
                den = natural()
                if den == 0:
                    raise PolySyntaxError("zero denominator at position %d" % (pos,))
                size += den.bit_length()
                c = Fraction(c, den)
            return {unit: c} if c else {}
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            name = text[start:pos]
            if name not in variables:
                raise UnknownVariable(
                    "unknown variable %r at position %d (expected one of %s)"
                    % (name, start, ", ".join(variables)))
            var_end = pos
            return {tuple(int(v == name) for v in variables): 1}
        raise PolySyntaxError("unexpected %r at position %d" % (ch or "end of input", pos))

    def too_long(at: int):
        return PolySyntaxError("coefficient of more than %d digits after %r "
                               "at position %d" % (MAX_COEFF_DIGITS, text[at], at))

    def printable(p: dict, at: int, exps) -> dict:
        for e in exps:
            c = p.get(e, 0)
            if max(abs(c.numerator), c.denominator) >= _COEFF_LIMIT:
                raise too_long(at)
        return p

    def factor() -> dict:
        nonlocal pos, mult
        b = base()
        end = pos
        skip()
        if pos < n and text[pos] == "^":
            at = pos
            pos += 1
            e = natural(exponent=True)
            if var_end != end:
                mult *= e or 1
            if size * mult < _COEFF_BITS:
                return _dpow(b, e, {unit: 1})
            # b's coefficient at its largest exponent tuple, to the power e,
            # is one of b^e: a huge power is refused before it is expanded
            c = b[max(b)] if b else 0
            if ((max(abs(c.numerator), c.denominator).bit_length() - 1) * e
                    >= _COEFF_BITS or _power_bits(b, e) >= _COEFF_BITS):
                raise too_long(at)
            b = _dpow(b, e, {unit: 1})
            return printable(b, at, b)
        return b

    def term() -> dict:
        nonlocal pos
        f = factor()
        while peek() == "*":
            at = pos
            pos += 1
            f = _dmul(f, factor())
            if size * mult >= _COEFF_BITS:
                printable(f, at, f)
        return f

    def expr() -> dict:
        nonlocal pos, size
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if text[pos] == "-" else 1
            pos += 1
        t = term()
        if sign < 0:
            t = {e: -c for e, c in t.items()}
        while peek() in ("+", "-"):
            at, op = pos, text[pos]
            pos += 1
            size += 1
            t2 = term()
            t = _dadd(t, t2, operator.sub if op == "-" else operator.add)
            if size * mult >= _COEFF_BITS:
                printable(t, at, t2)    # only these may have grown
        return t

    try:
        result = expr()
    finally:        # expr -> term -> factor -> base -> expr: free the cycle
        base = None
    skip()
    if pos != n:
        raise PolySyntaxError("unexpected %r at position %d" % (text[pos], pos))
    return SparsePoly(ExtField(), variables, {
        e: c if type(c) is Fraction else Fraction(c) for e, c in result.items()})


def _dadd(a: dict, b: dict, add=operator.add, zero=0) -> dict:
    """The sum of term dicts (exponent tuple -> coefficient), or with
    add = operator.sub their difference; a coefficient 0 is dropped."""
    out = dict(a)
    for e, c in b.items():
        c = add(out.pop(e, zero), c)
        if c:
            out[e] = c
    return out


def _dmul(a: dict, b: dict, add=operator.add, mul=operator.mul) -> dict:
    """The product of term dicts; a coefficient 0 is dropped."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e, c = tuple(map(operator.add, e1, e2)), mul(c1, c2)
            out[e] = add(out[e], c) if e in out else c
    return {e: c for e, c in out.items() if c}


def _dsquare(a: dict, add=operator.add, mul=operator.mul) -> dict:
    """a^2 for a term dict a, each cross product made once and doubled; a
    coefficient 0 is dropped.  Its terms come in _dmul(a, a)'s order."""
    out, items = {}, list(a.items())
    for i, (e1, c1) in enumerate(items):
        for j, (e2, c2) in enumerate(items[i:]):
            e, c = tuple(map(operator.add, e1, e2)), mul(c1, c2)
            if j:
                c = add(c, c)
            out[e] = add(out[e], c) if e in out else c
    return {e: c for e, c in out.items() if c}


def _dpow(b: dict, e: int, one: dict, *ring) -> dict:
    """b^e for a term dict b by repeated squaring (_dsquare); one is the
    term dict of 1 and ring the coefficient sum and product (_dmul)."""
    if e <= 1:
        return b if e else one
    h = _dsquare(_dpow(b, e >> 1, one, *ring), *ring)
    return _dmul(h, b, *ring) if e & 1 else h


def _power_bits(b: dict, e: int) -> int:
    """A k such that b^e has a coefficient above 2^k in absolute value, for
    a term dict b with integer coefficients; -1, no claim, for any other b.
    At each point s of {1, -1}^n the coefficients of b^e sum in absolute
    value to at least |b(s)|^e, and b^e has at most N = prod over the
    variables of (e deg_v b + 1) of them, so one is at least v^e / N,
    v = max |b(s)|."""
    if not b or any(c.denominator != 1 for c in b.values()):
        return -1
    n = len(next(iter(b)))
    v = max(abs(sum(c.numerator * math.prod(s ** k for s, k in zip(pt, ex))
                    for ex, c in b.items()))
            for pt in itertools.product((1, -1), repeat=n))
    N = math.prod(e * max(ex[i] for ex in b) + 1 for i in range(n))
    return (v.bit_length() - 1) * e - N.bit_length()


# ---------------------------------------------------------------------------
# weighted orders and Newton polygons


def weighted_order(f: SparsePoly, p: int, q: int) -> int:
    """min(p*i + q*j) over the support of a two-variable polynomial."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no weighted order")
    return min(p * e[0] + q * e[1] for e in f.terms)


@dataclass(frozen=True)
class Face:
    """A compact face of the Newton polygon.

    right/left are the endpoints with larger/smaller first coordinate; the
    primitive inward normal (p, q) has p, q > 0; length is the number of
    lattice steps along the face; nu is the weighted order it computes.
    """

    right: tuple
    left: tuple
    p: int
    q: int
    length: int
    nu: int


@dataclass(frozen=True)
class NewtonPolygon:
    vertices: tuple
    faces: tuple


def newton_polygon(f: SparsePoly) -> NewtonPolygon:
    """Lower-left hull of the support.  Faces are ordered by decreasing
    slope, i.e. from the bottom-right end to the top-left end."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no Newton polygon")
    return support_polygon(f.terms, what=str(f))


def support_polygon(points, what="the given support") -> NewtonPolygon:
    """Newton polygon of a bare support set.  The polygon of a product of
    germs is the one of the sumset of their supports, so products never
    need coefficient arithmetic here."""
    pts = sorted(set(points))
    # lower hull, left to right
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    faces = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if y2 >= y1:
            continue
        g = math.gcd(x2 - x1, y1 - y2)
        faces.append(Face(right=(x2, y2), left=(x1, y1),
                          p=(y1 - y2) // g, q=(x2 - x1) // g,
                          length=g, nu=((y1 - y2) // g) * x2 + ((x2 - x1) // g) * y2))
    if not faces:
        raise DegeneratePolygon(
            "the Newton polygon of %s has no compact face (monomial times a unit)" % (what,))
    faces.reverse()
    verts = [faces[0].right]
    for fc in faces:
        verts.append(fc.left)
    return NewtonPolygon(tuple(verts), tuple(faces))


def choose_face(np_: NewtonPolygon) -> Face:
    """Default face selection: maximize p + q, break ties by the
    lexicographically largest (p, q)."""
    return max(np_.faces, key=lambda fc: (fc.p + fc.q, fc.p, fc.q))


def blowup_transform(f: SparsePoly, p: int, q: int, xdiv: int, ydiv: int):
    """Strict transforms of f under the (p, q) blow-up in both charts, from
    one walk of its terms.  Returns (nu, strict1, strict2).

    Chart 1 is (x, y) -> (x^p, x^q y) with exceptional locus x = 0; chart 2
    is (x, y) -> (x y^p, y^q) with exceptional locus y = 0.  Each total
    transform is divided by the exceptional multiplicity nu, and then its
    exceptional exponents by the chart divisor (BlowupCharts.xdiv1 in
    chart 1, ydiv2 in chart 2).
    """
    nu = weighted_order(f, p, q)
    out1, out2 = {}, {}
    for (i, j), c in f.terms.items():
        w = p * i + q * j - nu
        if w % xdiv or w % ydiv:
            raise InternalInconsistency(
                "chart rewrite failed to divide the exceptional exponent %d "
                "by %d (chart 1) and %d (chart 2)" % (w, xdiv, ydiv))
        out1[w // xdiv, j] = c
        out2[i, w // ydiv] = c
    if len(out1) < len(f.terms) or len(out2) < len(f.terms):
        raise InternalInconsistency("blow-up transform of %s collided" % (f,))
    return (nu, SparsePoly._copy(f.field, f.vars, out1),
            SparsePoly._copy(f.field, f.vars, out2))


# ---------------------------------------------------------------------------
# univariate algebra over the coefficient tower


def poly_gcd(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """Monic gcd of univariate polynomials: over Q that of their primitive
    integer parts, above Q exactnum._pgcd's (may raise SplitEvent)."""
    if f.field != g.field:
        raise ValueError("gcd of polynomials over different fields")
    var = f.vars[0] if not f.is_zero() else g.vars[0]
    levels, k = f.field.levels, f.field.depth
    a, b = f.coeff_list(), g.coeff_list()
    if not b:
        a, b = b, a
    if k and b:
        out = exactnum._pgcd(levels, k, a, b)[0]
    else:
        out = _qmonic(_zgcd(_zclear(b)[0], _zclear(a)[0])[0]) if b else []
    return SparsePoly.from_univariate(f.field, var, out)


def squarefree_part(f: SparsePoly):
    """Yun's algorithm over a field of characteristic zero.

    Returns (radical, factors) where radical is Yun's first quotient
    f / gcd(f, f'), the monic product of the distinct squarefree factors, and
    factors is a list of (factor, multiplicity) in increasing multiplicity.
    Unit content is discarded.  Each gcd comes with its cofactors, Yun's
    next w and y: over Q from _zgcd on integer lists, above Q from
    exactnum._pgcd; only what is returned is made monic.
    """
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no squarefree part")
    if len(f.vars) != 1:
        raise ValueError("squarefree_part expects a univariate polynomial")
    var = f.vars[0]
    field = f.field
    levels, k = field.levels, field.depth
    coeffs = f.coeff_list()
    if len(coeffs) <= 1:
        return SparsePoly.from_univariate(field, var, [field.one()]), []
    if k == 0:
        u, _ = _zclear(coeffs)
        gcd, sub, deriv, monic = _zgcd, _zsub, _zderiv, _qmonic
    else:
        u, monic = exactnum._pmonic(levels, k, coeffs), list
        gcd, sub, deriv = (functools.partial(fn, levels, k) for fn in (
            exactnum._pgcd, exactnum._psub, exactnum._pderiv))
    _, w, y = gcd(u, deriv(u))
    radical = SparsePoly.from_univariate(field, var, monic(w))
    factors = []
    m = 1
    while len(w) > 1:
        a, w, y = gcd(w, sub(y, deriv(w)))
        if len(a) > 1:
            factors.append((SparsePoly.from_univariate(field, var, monic(a)), m))
        m += 1
    return radical, factors


# ---------------------------------------------------------------------------
# resultants


def resultant(f: SparsePoly, g: SparsePoly, var) -> SparsePoly:
    """Resultant over Q with respect to var, eliminating it, in the ring of
    f and g, which involve one further variable: f^deg g * g^deg f when one
    input is constant in var, else the fraction-free determinant S_0 of
    _subresultant.  Coefficients in a tower field raise ValueError."""
    if f.field != g.field or f.vars != g.vars:
        raise ValueError("resultant of polynomials in different rings")
    if f.field.depth:
        raise ValueError("resultant expects coefficients in Q, not in %s"
                         % f.field.describe())
    vi = f._vi(var)
    if f.is_zero() or g.is_zero():
        return SparsePoly(f.field, f.vars, {})
    a, b = f.degree_in(vi), g.degree_in(vi)
    if a == 0 or b == 0:
        return f ** b * g ** a
    return _subresultant(f, g, vi, a, b, 0)


def first_subresultant(f: SparsePoly, g: SparsePoly, var) -> SparsePoly:
    """S_1 = A y + B of f and g over Q in var = y, degrees m > n >= 1 in y
    (Collins 1967), in f's ring.  Where both leading coefficients in y stay
    nonzero, gcd(f, g) is linear exactly where A is, and then is S_1."""
    vi = f._vi(var)
    a, b = f.degree_in(vi), g.degree_in(vi)
    if not a > b >= 1:
        raise ValueError("first_subresultant needs deg f > deg g >= 1")
    return _subresultant(f, g, vi, a, b, 1)


def _subresultant(f, g, vi, a, b, j):
    """S_j (j = 0 or 1) of f and g, of degrees a and b >= j in variable vi.
    _bareiss on the b - j shifted rows of f's integer columns and
    a - j of g's (_zcolumns) leaves S_j's coefficients in the last row
    (Sylvester's identity), up to the sign and scale applied at the end.

    Each entry, a polynomial in the other variable x, is packed into an
    int.  With m and beta from _grading, row r times x^s_r and column c
    times x^t_c make every entry a polynomial in X = x^m, which is packed
    at X = 2^B (_zpack; a column of f or g is packed once, and X^q is a
    shift).  2^(B - 1) exceeds the Hadamard bound of every minor (each
    row's norm is at least 1), and evaluation at 2^B is a ring map, so the
    divisions stay exact, an entry is 0 exactly when its polynomial is, and
    the last row unpacks (_zunpack) to the minors times x^lift, lift the
    sum of s_r and of t_c over their columns, which is divided out."""
    (fc, cf), (gc, cg) = _zcolumns(f, vi), _zcolumns(g, vi)
    m, beta, alphas = _grading(fc, gc)
    width = a + b - j
    t = [-beta * c % m for c in range(width)]
    norms = [sum(sum(map(abs, col)) ** 2 for col in cols) for cols in (fc, gc)]
    bits = (norms[0] ** (b - j) * norms[1] ** (a - j)).bit_length() // 2 + 2
    w = -(-bits // 8)           # bytes per digit: B = 8 w
    rows, lift = [], 0
    for shifts, cols, d, alpha in ((b - j, fc, a, alphas[0]), (a - j, gc, b, alphas[1])):
        # x^(s_r + t_c) times column k is X^q times x^((beta k - alpha) mod m)
        # times it; an input with no rows (S_1 with b = 1) is not in the bound
        packed = [_zpack(_zgraded(col, (beta * k - alpha) % m, m), w)
                  for k, col in enumerate(cols)] if shifts else []
        for i in range(shifts):
            s = (beta * (d + i) - alpha) % m
            lift += s
            row = [0] * width
            for k, p in enumerate(packed):
                row[i + d - k] = p << 8 * w * ((s + t[i + d - k]) // m)
            rows.append(row)
    sign = _bareiss(rows)
    if not sign:
        return SparsePoly(f.field, f.vars, {})
    lift += sum(t[:len(rows) - 1])
    scale = cf ** (b - j) * cg ** (a - j) * sign
    return SparsePoly(f.field, f.vars, {
        (deg, o) if vi == 0 else (o, deg): scale * c for deg in range(j + 1)
        for o, c in zip(itertools.count(-lift - t[width - 1 - deg], m),
                        _zunpack(rows[-1][width - 1 - deg], w))})


def _grading(*inputs):
    """(m, beta, alphas): the largest m, and a beta, such that o + beta k is
    alphas[i] mod m on every term x^o v^k of inputs[i], each given as its
    integer columns in v (_zcolumns).  The lattice of the exponent
    differences within each input has the Hermite basis (m1, 0), (c, d):
    m divides m1, and c + beta d = 0 mod m needs gcd(d, m) to divide c.
    Where m1 = 0 (a lattice of rank <= 1) every m with that divisibility
    works; max(d, 1) (D + 1) + 1 is taken, D the largest exponent of x:
    above D and prime to d."""
    terms = [[(o, k) for k, col in enumerate(cols) for o, x in enumerate(col) if x]
             for cols in inputs]
    c = d = m = 0
    for (o0, k0), *rest in terms:
        for o, k in rest:
            x, y = o - o0, k - k0
            while y:                # Euclid on the v-exponents, carrying x
                q = d // y
                (c, d), (x, y) = (x, y), (c - q * x, d - q * y)
            m = math.gcd(m, x)
    m = m or max(d, 1) * max(len(col) for cols in inputs for col in cols) + 1
    while c % (r := math.gcd(d, m)):
        m //= r // math.gcd(r, c)
    r = math.gcd(d, m)
    beta = -(c // r) * pow(d // r, -1, m // r) % m
    return m, beta, [(o + beta * k) % m for (o, k), *_ in terms]


def _zgraded(col, r, m):
    """The integer list in X = x^m of x^r times the list col in x, where
    m divides e + r for each exponent e of a nonzero entry."""
    out = [0] * ((len(col) - 1 + r) // m + 1) if col else []
    for e, x in enumerate(col):
        if x:
            out[(e + r) // m] = x
    return out


# ---------------------------------------------------------------------------
# reducedness over Q


def _zcolumns(f: SparsePoly, vi: int):
    """(cols, scale) with f = scale * sum_j v^j cols[j], v the variable vi
    of a two-variable f over Q: cols[j] is a trimmed integer list in the
    other variable, all of them together primitive; ([], 0) for f = 0."""
    if len(f.vars) != 2:
        raise ValueError("elimination expects a two-variable polynomial")
    if f.field.depth:
        raise ValueError("elimination expects coefficients in Q, not in %s"
                         % f.field.describe())
    num, scale = _zclear(list(f.terms.values()))
    cols = [[] for _ in range(f.degree_in(vi) + 1)]
    for e, c in zip(f.terms, num):
        col, o = cols[e[vi]], e[1 - vi]
        col.extend([0] * (o + 1 - len(col)))
        col[o] = c
    return cols, scale


def content_in(f: SparsePoly, var):
    """(D, p) with f = D * p, f over Q seen as a polynomial in var, from one
    read of its integer columns (_zcolumns): D, the content, is their
    primitive gcd (_zgcd_all) as an integer list in the other variable,
    [1] when it is constant, and p, the primitive part, is in f's ring.
    Coefficients in a tower raise ValueError."""
    vi = f._vi(var)
    cols, scale = _zcolumns(f, vi)
    D = _zgcd_all(cols)
    if len(D) < 2:
        return [1], f
    return D, SparsePoly(f.field, f.vars, {
        (j, o) if vi == 0 else (o, j): scale * c
        for j, col in enumerate(cols) for o, c in enumerate(_zdiv(col, D))})


def squarefree_discriminant(f: SparsePoly):
    """The exact squarefreeness test for two-variable polynomials over Q.

    Splits f = Q(y) * C(x) * p(x, y) by content_in, where Q and C are the
    contents, integer lists, of f in x and of f / Q in y.  f is squarefree
    iff gcd(Q, Q') and gcd(C, C') are constant (_zgcd) and
    Res_y(p, p_y) != 0.  Returns None when f is not squarefree, else
    (q, body, disc): the horizontal components q, the polynomial of Q, and
    the rest body = f / q = C * p in f's ring, and disc, the integer list
    in x of C * Res_y(p, p_y) (just C when p is a constant), which has the
    radical of Res_y(body, body_y).  Coefficients in a tower raise
    ValueError."""
    if f.is_zero():
        raise ZeroPolynomial("squarefreeness of the zero polynomial is undefined")
    x, y = f.vars
    Q, body = content_in(f, x)
    C, p = content_in(body, y)
    if any(len(_zgcd(D, _zderiv(D))[0]) > 1 for D in (Q, C)):
        return None
    q = SparsePoly(f.field, f.vars, {(0, i): Fraction(c) for i, c in enumerate(Q)})
    if p.degree_in(y) == 0:
        return q, body, C
    res = resultant(p, p.derivative(y), y)
    if res.is_zero():
        return None
    return q, body, _zmul(C, _zcolumns(res, 1)[0][0])


_PROBE_POINTS = (1, -1, 2)     # not 0: a singular germ is unlucky there


def probe_images(f: SparsePoly, vi: int):
    """For each t0 in _PROBE_POINTS: f's integer columns in variable vi
    (_zcolumns) at the other variable t0, mod P = 2^61 - 1, as a
    coefficient list in vi; [] where its leading coefficient vanishes.
    Each column is evaluated by Horner's rule mod P, so every product stays
    below P^2 in size."""
    cols, P = _zcolumns(f, vi)[0], _P
    for t0 in _PROBE_POINTS:
        image = []
        for col in cols:
            acc = 0
            for c in reversed(col):
                acc = (acc * t0 + c) % P
            image.append(acc)
        yield image if image[-1] else []


def is_squarefree_two_vars(f: SparsePoly) -> bool:
    """Squarefreeness of a nonzero two-variable polynomial over Q.

    True at once if, for each variable v of f, some image (probe_images) is
    coprime to its derivative over GF(P): by Gauss's lemma a square factor
    g^2 lies in Z[x, y] with positive degree in some v, and as f's leading
    coefficient in v survives, g's image keeps that degree and divides the
    gcd.  Every other outcome goes to the exact squarefree_discriminant.
    A nonconstant f with coefficients in a tower raises ValueError."""
    if not f.is_zero() and all(f.degree_in(vi) == 0 or any(
            img and _coprime_images(img, _zderiv(img))
            for img in probe_images(f, vi)) for vi in (0, 1)):
        return True
    return squarefree_discriminant(f) is not None
