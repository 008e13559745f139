import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from conftest import germ, spy
from qres import invariants, resolve
from qres.checks import (_random_unit_slice_germ, normalized_types,
                         random_semi_invariant)
from qres.errors import CommonComponent, NotMultiple
from qres.exactnum import Rat
from qres.invariants import (delta_additivity_check, delta_classical,
                             full_report, monomial_colength,
                             noether_intersection, one_step_dim,
                             report_to_dict)
from qres.poly import resultant
from qres.quotsing import SMOOTH, QuotType
from qres.resolve import EngineConfig

X211 = QuotType(2, 1, 1)
X312 = QuotType(3, 1, 2)
X723 = QuotType(7, 2, 3)


def test_full_report_tacnode_on_half_plane():
    rep = full_report(germ("x^2 - y^4"), X211)
    assert rep.delta_w == 1
    assert rep.mu_w == 2
    assert rep.r_w == 1
    assert rep.delta_classical == 2
    assert rep.mu_classical == 3
    assert rep.r_classical == 2
    assert rep.euler_orb == -1
    assert not rep.transposed and not rep.warnings


def test_ladder_germ_at_n_16():
    """(x+y)^16 - y^17 is one Puiseux branch y = t^16 - t^17 + ..., x =
    t^17 - t^16 ...: delta = (16 - 1)(17 - 1)/2 = 120, mu = 2 delta."""
    rep = full_report(germ("(x+y)^16 - y^17"), SMOOTH)
    assert rep.delta_classical == rep.delta_w == 120
    assert rep.mu_classical == 240
    assert rep.r_classical == 1


def test_ladder_germ_at_n_100():
    """The face root of (x+y)^100 - y^101 has multiplicity 100, so moving
    it to the origin is an integer Taylor shift of a column of degree 100:
    delta = 99 * 100 / 2 = 4950, mu = 2 delta, one branch."""
    rep = full_report(germ("(x+y)^100 - y^101"), SMOOTH)
    assert rep.delta_classical == rep.delta_w == 4950
    assert rep.mu_classical == rep.mu_w == 9900
    assert rep.r_classical == rep.r_w == 1


def test_milnor_identities_hold():
    cases = [("y^2 - x^3", SMOOTH), ("x^2 - y^4", X211),
             ("x", QuotType(5, 1, 2)), ("x*y + (y^2 - x^3)^2", X723),
             ("x*(y^2 - x^3)", SMOOTH)]
    for text, t in cases:
        rep = full_report(germ(text), t)
        d = t.d
        assert rep.mu_w == 2 * rep.delta_w - rep.r_w + 1
        assert rep.mu_w == Rat(d - 1, d) + Rat(rep.mu_classical, d)
        assert rep.delta_w == (Rat(rep.delta_classical, d)
                               + Rat(rep.r_w - Rat(rep.r_classical, d), 2))
        assert rep.euler_orb == rep.r_w - 2 * rep.delta_w


def test_delta_classical_values():
    assert delta_classical(germ("y^2 - x^3")) == 1
    assert delta_classical(germ("x^2 - y^4")) == 2
    assert delta_classical(germ("y^3 - x^5")) == 4    # semigroup <3,5>
    assert delta_classical(germ("x*y")) == 1


def test_noether_known_values():
    assert noether_intersection(germ("x"), germ("y"), SMOOTH) == 1
    assert noether_intersection(germ("y - x^2"), germ("y + x^2"), SMOOTH) == 2
    assert noether_intersection(germ("y^2 - x^3"), germ("y^2 - 2*x^3"),
                                SMOOTH) == 6
    assert noether_intersection(germ("x"), germ("y"), X312) == Rat(1, 3)


def test_noether_agrees_with_resultant_order():
    f, g = germ("y^2 - x^3"), germ("y^2 - 2*x^3")
    r = resultant(f, g, "y")
    assert r == germ("x^6")
    assert noether_intersection(f, g, SMOOTH) == r.min_exp("x")


def test_noether_is_symmetric():
    pairs = [("x", "y^2 - x^3"), ("y - x^2", "y^2 - x^5")]
    for a, b in pairs:
        assert noether_intersection(germ(a), germ(b), SMOOTH) == \
            noether_intersection(germ(b), germ(a), SMOOTH)


def test_common_components_are_rejected():
    with pytest.raises(CommonComponent):
        noether_intersection(germ("x"), germ("x*y"), SMOOTH)
    with pytest.raises(CommonComponent):
        noether_intersection(germ("y^2 - x^3"),
                             germ("(y^2 - x^3)*(y - x)"), SMOOTH)


def test_ladder_germ_resolves_at_once():
    # an exact reducedness resultant takes about two minutes here
    rep = full_report(germ("(x + y)^40 - y^41"), SMOOTH)
    assert (rep.delta_classical, rep.mu_classical, rep.r_classical) == \
        (780, 1560, 1)


def exact_rejects(C, D):
    """The common-component test by the resultant alone."""
    axC, ayC, gC = resolve.axis_split(C)
    axD, ayD, gD = resolve.axis_split(D)
    if (axC and axD) or (ayC and ayD):
        return True
    if gC.is_constant() or gD.is_constant():
        return False
    return resultant(gC, gD, "y").is_zero()


FACTORS = [germ(t) for t in (
    "x", "y", "x - 1", "x + 1", "x - 2", "y - x^2", "y^2 - x^3", "y + x",
    "2*y - 1", "x*y - 1", "y^2 + 1/3*x", "y - (x - 1)*(x + 1)*(x - 2)",
    "y + (x - 1)*(x + 1)*(x - 2)")]
FACTORS.append(germ("y").scale(Rat(2 ** 61 - 1)) + germ("x"))
factor_lists = st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3)


@given(factor_lists, factor_lists)
def test_common_component_probe_agrees_with_the_resultant(cs, ds):
    C, D = germ("1"), germ("1")
    for f in cs:
        C = C * f
    for f in ds:
        D = D * f
    try:
        invariants._reject_common_component(C, D)
        rejected = False
    except CommonComponent:
        rejected = True
    assert rejected is exact_rejects(C, D)


def test_common_component_check_falls_back_to_the_resultant(monkeypatch):
    calls = spy(monkeypatch, invariants, "resultant")
    invariants._reject_common_component(germ("y^2 - x^3"), germ("y - x^2"))
    assert calls == []
    # both images are y at every probe point, yet Res_y = 2 g(x) != 0
    g = "(x - 1)*(x + 1)*(x - 2)"
    invariants._reject_common_component(germ("y - " + g), germ("y + " + g))
    assert len(calls) == 1
    with pytest.raises(CommonComponent,
                       match=r"share a factor \(their resultant in y"):
        invariants._reject_common_component(
            germ("y^2 - x^3"), germ("(y^2 - x^3)*(y - x)"))
    assert len(calls) == 2


def test_delta_additivity():
    lhs, rhs = delta_additivity_check(germ("y^2 - x^3"), germ("y^2 - 2*x^3"),
                                      SMOOTH)
    assert lhs == rhs == 8
    lhs, rhs = delta_additivity_check(germ("x"), germ("y^2 - x^3"), SMOOTH)
    assert lhs == rhs == 3
    lhs, rhs = delta_additivity_check(germ("x"), germ("y"), X312)
    assert lhs == rhs


def test_monomial_colength_matches_brute_count():
    for p, q in [(1, 1), (2, 3), (3, 5), (1, 4)]:
        for n in range(5):
            brute = sum(1 for i in range(p * q * n + 1)
                        for j in range(p * q * n + 1)
                        if p * i + q * j < p * q * n)
            assert monomial_colength(p, q, n) == brute
    with pytest.raises(ValueError):
        monomial_colength(2, 4, 1)
    with pytest.raises(ValueError):
        monomial_colength(0, 1, 1)
    with pytest.raises(ValueError):
        monomial_colength(2, 3, -1)


def test_one_step_dim():
    assert one_step_dim(germ("y^2 - x^3"), 2, 3) == 1
    assert one_step_dim(germ("x^2 - y^5"), 5, 2) == 2
    with pytest.raises(NotMultiple):
        one_step_dim(germ("y^2 - x^3"), 2, 5)


def test_report_transposes_when_only_the_swap_is_semi_invariant():
    rep = full_report(germ("x*y + (x^2 - y^3)^2"), X723)
    assert rep.transposed
    assert any("transpose" in w for w in rep.warnings)
    assert rep.delta_w == 1
    direct = full_report(germ("x*y + (y^2 - x^3)^2"), X723)
    assert not direct.transposed
    assert direct.delta_w == rep.delta_w and direct.r_w == rep.r_w


def test_report_to_dict_round_trip():
    rep = full_report(germ("x^2 - y^4"), X211)
    doc = report_to_dict(rep)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["schema_version"] == 1 and doc["command"] == "germ"
    inv = doc["invariants"]
    assert inv["delta_w"] == "1" and inv["mu_w"] == "2"
    assert doc["ambient"] == "X(2;1,1)"
    assert inv["r_w"] == 1 and inv["r"] == 2
    trace = doc["trace"]
    assert isinstance(trace["blowups"], list)
    assert isinstance(trace["corrections"], list)
    assert all(set(b) == {"node", "ambient", "weights", "e", "nu", "cluster",
                          "contribution"} for b in trace["blowups"])
    assert all(set(c) == {"node", "ambient", "kind", "label", "branches",
                          "cluster", "contribution"}
               for c in trace["corrections"])
    terms = trace["blowups"] + trace["corrections"]
    assert sum(Rat(t["contribution"]) for t in terms) == Rat(inv["delta_w"])
    assert doc["warnings"] == []


def test_one_upstairs_resolution_per_report(monkeypatch):
    calls = []
    orig = resolve.resolve_labels

    def counting(germs, ambient, config=None):
        calls.append(ambient.d)
        return orig(germs, ambient, config)

    monkeypatch.setattr(resolve, "resolve_labels", counting)
    rep = full_report(germ("x^2 - y^4"), X211)
    assert (rep.delta_classical, rep.r_classical) == (2, 2)
    assert calls.count(1) == 1


def test_a_negative_blowup_term_is_reported_and_delta_is_unchanged():
    """The (1, 5) blow-up first gives the cusp a negative term; the sum,
    delta, does not depend on the Q-resolution chosen."""
    rep = full_report(germ("y^2 - x^3"), SMOOTH,
                      config=EngineConfig(weight_overrides=((1, 5),)))
    assert ([(nid, c) for nid, c in rep.per_node_contributions]
            == [(0, Rat(-3, 5)), (2, Rat(8, 5))])
    assert rep.delta_w == rep.delta_classical == 1
    assert rep.warnings == ("node 0 contributed the negative amount -3/5",)


def test_full_report_takes_the_mode_from_config():
    f = germ("x*y + (x^2 - y^3)^2")
    cfg = EngineConfig(mode="strong", weight_overrides=((1, 5),))
    rep = full_report(f, X723, config=cfg)
    direct = full_report(f, X723, config=replace(
        EngineConfig(weight_overrides=((1, 5),)), mode="strong"))
    assert rep.mode == direct.mode == "strong"
    assert rep.delta_w == direct.delta_w
    assert ([(nid, c) for nid, c in rep.breakdown.per_node]
            == [(nid, c) for nid, c in direct.breakdown.per_node])
    assert rep.breakdown.correction_sum == 0
    plain = full_report(f, X723, config=EngineConfig(weight_overrides=((1, 5),)))
    assert plain.mode == "plain" and plain.breakdown.correction_sum != 0


def substitute(f, X, Y):
    """f(X, Y) for germs X and Y."""
    out = germ("0")
    for (i, j), c in f.terms.items():
        out = out + (X ** i * Y ** j).scale(c)
    return out


def coordinate_changes(f, t, rng):
    """Three changes of coordinates of X(d;a,b) that commute with its
    action, each as (germ, type): the shear x -> x + c y^k with k >= 1 and
    a = k b (mod d), a diagonal scaling, and the swap to X(d;b,a)."""
    x, y = germ("x"), germ("y")
    k = rng.choice([k for k in range(1, 2 * t.d + 1) if (k * t.b - t.a) % t.d == 0])
    c = rng.choice((-2, -1, 1, 2))
    lam, mu = rng.choice((-3, -2, 2, 3)), rng.choice((-3, -2, 2, 3))
    return [(substitute(f, x + c * y ** k, y), t),
            (substitute(f, lam * x, mu * y), t),
            (f.permute_vars((1, 0)), QuotType(t.d, t.b, t.a))]


def invariants_of(f, t):
    rep = full_report(f, t)
    return (rep.delta_w, rep.mu_w, rep.r_w, rep.delta_classical,
            rep.mu_classical, rep.r_classical)


@pytest.mark.parametrize("seed", [1, 2])
def test_invariants_do_not_depend_on_the_coordinates(seed):
    """The germ half of the metamorphic oracle: delta_w, mu_w, r_w, delta,
    mu and r are intrinsic, so a change of coordinates that commutes with
    the action of X(d;a,b) leaves every one of them as it was.  Each
    change moves the germ, so none is compared with itself."""
    rng = random.Random(seed)
    types = normalized_types(5)
    for _ in range(50):
        t = types[rng.randrange(len(types))]
        f = random_semi_invariant(rng, t)
        want = invariants_of(f, t)
        for g, u in coordinate_changes(f, t, rng):
            assert (g, u) != (f, t)
            assert invariants_of(g, u) == want, (str(f), str(t), str(g), str(u))


# ---------------------------------------------------------------------------
# Fulton's algorithm: an intersection number from the axioms alone, with no
# blow-up, no tower and no resultant


def fulton(F, G):
    """I_0(F, G) for term dicts {(i, j): Fraction} with no common component
    through the origin (Fulton, Algebraic Curves, 1969, 3.3).  With r <= s
    the x-degrees of F(x, 0) and G(x, 0): F(x, 0) = 0 means F = y H and
    I(F, G) = ord_x G(x, 0) + I(H, G); else G loses its x^s term to
    lc G(x, 0) x^(s - r) F, which leaves I unchanged."""
    total = 0
    while not (F.get((0, 0)) or G.get((0, 0))):
        f0, g0 = ({i: c for (i, j), c in P.items() if j == 0} for P in (F, G))
        assert f0 or g0, "y is a common component"
        if not g0 or f0 and max(f0) > max(g0):
            F, G, f0, g0 = G, F, g0, f0
        if not f0:
            total += min(g0)
            F = {(i, j - 1): c for (i, j), c in F.items()}
            continue
        r, s = max(f0), max(g0)
        G = {e: c * f0[r] for e, c in G.items()}
        for (i, j), c in F.items():
            G[i + s - r, j] = G.get((i + s - r, j), 0) - g0[s] * c
        G = {e: c for e, c in G.items() if c}
        assert G, "a common component through the origin"
    return total


def partial(f, v):
    """The derivative of a germ's term dict in x (v = 0) or y (v = 1)."""
    return {(i - (v == 0), j - (v == 1)): c * (i, j)[v]
            for (i, j), c in f.terms.items() if (i, j)[v]}


def test_fulton_agrees_with_the_textbook_values():
    """I_0 of two lines, of a cusp with its tangent line, and of a node and
    a cusp, and mu of A_3 and E_6."""
    assert fulton(germ("x").terms, germ("y").terms) == 1
    assert fulton(germ("y^2 - x^3").terms, germ("y").terms) == 3
    assert fulton(germ("y^2 - x^2 - x^3").terms, germ("y^2 - x^3").terms) == 4
    for text, mu in (("y^2 - x^4", 3), ("y^3 - x^4", 6)):
        f = germ(text)
        assert fulton(partial(f, 0), partial(f, 1)) == mu


def test_mu_is_fultons_intersection_of_the_partials():
    """mu = I_0(f_x, f_y) (Milnor), computed without the engine, against
    full_report's mu_classical = 2 delta - r + 1 read off the resolution,
    on random reduced semi-invariant germs of X(d;a,b), d <= 5."""
    rng = random.Random(20261021)
    types = normalized_types(5)
    for _ in range(200):
        t = types[rng.randrange(len(types))]
        f = random_semi_invariant(rng, t)
        assert fulton(partial(f, 0), partial(f, 1)) == \
            full_report(f, t).mu_classical, (str(f), str(t))


def test_noether_intersection_is_fultons():
    """noether_intersection at a smooth point, a sum over a shared
    resolution, against Fulton's I_0 on pairs of germs f(0, y) = y^k with a
    nonzero Res_y, so no common component."""
    rng = random.Random(20261022)
    done = 0
    while done < 100:
        f, g = (_random_unit_slice_germ(rng) for _ in range(2))
        if resultant(f, g, "y").is_zero():
            continue
        done += 1
        assert noether_intersection(f, g, SMOOTH) == fulton(f.terms, g.terms), \
            (str(f), str(g))
