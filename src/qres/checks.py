"""Consistency suites over generated corpora, runnable from the CLI.

Every suite draws from a fixed-seed corpus, so a green run is reproducible
byte for byte.  The suites cross-check independent computations of the same
quantity: the delta identity binding the orbifold and classical invariants,
intersection numbers against resultant orders, the lattice colength formula
against brute-force counting, and the one-blow-up closed form against the
resolution engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

from .errors import BadType, QresError
from .exactnum import ExtField, Rat
from .invariants import (delta_additivity_check, delta_w, full_report,
                         monomial_colength, noether_intersection, one_step_dim)
from .poly import SparsePoly, is_squarefree_two_vars, resultant
from .quotsing import SMOOTH, QuotType, is_normalized
from .resolve import EngineConfig, resolve_germ

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "normalized_types",
           "random_semi_invariant"]

SEED = 20260815
_QQ = ExtField(())
_NO_RECHECK = EngineConfig(check_reduced=False)
_STRONG = EngineConfig(mode="strong", check_reduced=False)


@dataclass
class CheckResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, ok: bool, describe):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 8:
                self.failures.append(describe())

    def summary(self) -> str:
        word = "ok" if self.ok else "FAILED"
        line = "%-10s %s  (%d passed, %d failed)" % (
            self.name, word, self.passed, self.failed)
        for f in self.failures:
            line += "\n    counterexample: %s" % (f,)
        return line


# ---------------------------------------------------------------------------
# corpora


def normalized_types(dmax: int):
    """All normalized quotient types with d <= dmax, the smooth one first."""
    out = [SMOOTH]
    for d in range(2, dmax + 1):
        for a in range(1, d):
            for b in range(1, d):
                t = QuotType(d, a, b)
                if is_normalized(t):
                    out.append(t)
    return out


def random_semi_invariant(rng: random.Random, t: QuotType, degmax=8,
                          terms=(2, 4), coeff=5) -> SparsePoly:
    """A random reduced germ vanishing at the origin whose monomials share
    one weight class mod d (so the zero set descends to X(d;a,b))."""
    exps = [(i, j) for i in range(degmax + 1) for j in range(degmax + 1)
            if 0 < i + j <= degmax]
    while True:
        anchor = exps[rng.randrange(len(exps))]
        res = (t.a * anchor[0] + t.b * anchor[1]) % t.d
        pool = [e for e in exps
                if (t.a * e[0] + t.b * e[1]) % t.d == res]
        rng.shuffle(pool)
        chosen = pool[:rng.randint(*terms)]
        tdict = {}
        for e in chosen:
            tdict[e] = Rat(rng.randint(1, coeff) * rng.choice((1, -1)))
        f = SparsePoly(_QQ, ("x", "y"), tdict)
        if f.is_zero():
            continue
        if not is_squarefree_two_vars(f):
            continue
        return f


# ---------------------------------------------------------------------------
# suites


def check_deltaw(count=110, dmax=6, seed=SEED) -> CheckResult:
    """delta_w = delta/d + (r_w - r/d)/2 on random reduced semi-invariant
    germs, plus mode consistency: the strong-mode total equals the plain
    blow-up sum with the Q-smooth end corrections added back."""
    rng = random.Random(seed)
    types = normalized_types(dmax)
    out = CheckResult("deltaw")
    for _ in range(count):
        t = types[rng.randrange(len(types))]
        f = random_semi_invariant(rng, t)
        label = "%s on %s" % (f, t)
        try:
            rep = full_report(f, t)
            lhs = rep.delta_w
            rhs = (Rat(rep.delta_classical, t.d)
                   + Rat(rep.r_w - Rat(rep.r_classical, t.d), 2))
            bd = rep.breakdown
            strong = delta_w(resolve_germ(f, t, config=_STRONG))
            ok = (lhs == rhs
                  and strong == lhs
                  and strong == bd.node_sum + bd.correction_sum)
            out.record(ok, lambda: "%s: delta_w=%s identity rhs=%s strong=%s"
                       % (label, lhs, rhs, strong))
        except QresError as exc:
            out.record(False, lambda: "%s: %s" % (label, exc))
    return out


def _random_unit_slice_germ(rng: random.Random, degmax=5):
    """Reduced germ with f(0, y) = y^k and unit leading y-coefficient, so
    the order in x of a resultant with it counts only the origin."""
    while True:
        k = rng.randint(1, 3)
        tdict = {(0, k): Rat(1)}
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(1, degmax)
            j = rng.randint(0, k)
            tdict[(i, j)] = Rat(rng.randint(1, 4) * rng.choice((1, -1)))
        f = SparsePoly(_QQ, ("x", "y"), tdict)
        if is_squarefree_two_vars(f):
            return f


def check_noether(count=110, pairs=60, seed=SEED) -> CheckResult:
    """Intersection numbers: the weighted blow-up sum against the resultant
    order at a smooth point, and delta additivity for products both at a
    smooth point and on quotient types with d <= 5."""
    rng = random.Random(seed + 1)
    out = CheckResult("noether")
    done = 0
    while done < count:
        f = _random_unit_slice_germ(rng)
        g = _random_unit_slice_germ(rng)
        r = resultant(f, g, "y")
        if r.is_zero():
            continue
        done += 1
        label = "C=%s D=%s" % (f, g)
        try:
            oracle = r.min_exp("x")
            got = noether_intersection(f, g, SMOOTH)
            out.record(got == oracle,
                       lambda: "%s: blow-up sum %s, resultant order %s"
                       % (label, got, oracle))
        except QresError as exc:
            out.record(False, lambda: "%s: %s" % (label, exc))

    types = normalized_types(5)
    done = 0
    while done < pairs:
        t = types[rng.randrange(len(types))]
        f = random_semi_invariant(rng, t, degmax=5, terms=(2, 3), coeff=3)
        g = random_semi_invariant(rng, t, degmax=5, terms=(2, 3), coeff=3)
        if not is_squarefree_two_vars(f * g):
            continue
        done += 1
        label = "C=%s D=%s on %s" % (f, g, t)
        try:
            lhs, rhs = delta_additivity_check(f, g, t, config=_NO_RECHECK)
            out.record(lhs == rhs,
                       lambda: "%s: delta_w(CD)=%s, split sum %s"
                       % (label, lhs, rhs))
        except QresError as exc:
            out.record(False, lambda: "%s: %s" % (label, exc))
    return out


def check_lattice(seed=SEED) -> CheckResult:
    """The closed-form staircase colength against brute-force counting, and
    integrality of the one-blow-up colength jump when p q divides the
    order."""
    out = CheckResult("lattice")
    for q in range(1, 8):
        for p in range(1, q + 1):
            if math.gcd(p, q) != 1 or (p == q and p != 1):
                continue
            for n in range(0, 11):
                brute = sum(1 for i in range(q * n + 1)
                            for j in range(p * n + 1)
                            if p * i + q * j < p * q * n)
                got = monomial_colength(p, q, n)
                out.record(got == brute,
                           lambda: "p=%d q=%d n=%d: formula %d, count %d"
                           % (p, q, n, got, brute))
    rng = random.Random(seed + 2)
    for q in range(2, 6):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            for k in range(1, 4):
                tdict = {(q * k, 0): Rat(1), (0, p * k): Rat(1)}
                for _ in range(rng.randint(0, 2)):
                    i = rng.randint(0, q * k + 2)
                    j = rng.randint(0, p * k + 2)
                    if p * i + q * j >= p * q * k:
                        tdict.setdefault((i, j), Rat(rng.randint(1, 3)))
                f = SparsePoly(_QQ, ("x", "y"), tdict)
                try:
                    val = one_step_dim(f, p, q)
                    out.record(val >= 0 and val.denominator == 1,
                               lambda: "p=%d q=%d f=%s: jump %s"
                               % (p, q, f, val))
                except QresError as exc:
                    out.record(False, lambda: "p=%d q=%d f=%s: %s"
                               % (p, q, f, exc))
    return out


def check_quasihom(pmax=8, dmax=6) -> CheckResult:
    """x^p - y^q with coprime p, q on every normalized type where it is
    semi-invariant: one weighted blow-up resolves it, giving the closed form
    delta_w = (pq - p - q + d)/(2d); the engine must reproduce it, as well
    as the Q-smooth value (d-1)/(2d) for the axes."""
    out = CheckResult("quasihom")
    for t in normalized_types(dmax):
        for kind, germ in (("x", SparsePoly(_QQ, ("x", "y"), {(1, 0): Rat(1)})),
                           ("y", SparsePoly(_QQ, ("x", "y"), {(0, 1): Rat(1)}))):
            got = delta_w(resolve_germ(germ, t, config=_NO_RECHECK))
            want = Rat(t.d - 1, 2 * t.d)
            out.record(got == want,
                       lambda: "%s on %s: delta_w %s, expected %s"
                       % (kind, t, got, want))
        for p in range(1, pmax + 1):
            for q in range(1, pmax + 1):
                if math.gcd(p, q) != 1:
                    continue
                if (t.a * p - t.b * q) % t.d != 0:
                    continue
                f = SparsePoly(_QQ, ("x", "y"),
                               {(p, 0): Rat(1), (0, q): Rat(-1)})
                label = "x^%d - y^%d on %s" % (p, q, t)
                try:
                    got = delta_w(resolve_germ(f, t, config=_NO_RECHECK))
                    want = Rat(p * q - p - q + t.d, 2 * t.d)
                    out.record(got == want,
                               lambda: "%s: delta_w %s, closed form %s"
                               % (label, got, want))
                except QresError as exc:
                    out.record(False, lambda: "%s: %s" % (label, exc))
    return out


SUITE_NAMES = ("deltaw", "noether", "lattice", "quasihom")

_SUITES = {
    "deltaw": check_deltaw,
    "noether": check_noether,
    "lattice": check_lattice,
    "quasihom": check_quasihom,
}


def run_suite(name: str):
    """Run one named suite, or all of them; returns a list of CheckResult."""
    if name == "all":
        return [_SUITES[n]() for n in SUITE_NAMES]
    if name not in _SUITES:
        raise BadType("unknown suite %r; pick from %s or 'all'"
                      % (name, ", ".join(SUITE_NAMES)))
    return [_SUITES[name]()]
