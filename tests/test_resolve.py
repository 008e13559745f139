import json
import os
from dataclasses import replace

import jsonschema
import pytest

from conftest import germ, spy
from qres import poly, resolve
from qres.errors import (BadType, ExtensionOverflow, NotReduced,
                         NotSemiInvariant, ResolutionDepthExceeded, UnitGerm)
from qres.exactnum import (ExtField, Rat, SplitEvent, adjoin_radical,
                           adjoin_root)
from qres.invariants import (delta_breakdown, delta_w, full_report,
                             noether_intersection)
from qres.poly import SparsePoly
from qres.quotsing import SMOOTH, QuotType
from qres.resolve import (EngineConfig, resolve_germ, resolve_labels,
                          semi_invariance_check, tree_to_dict, tree_to_dot)

X211 = QuotType(2, 1, 1)
X723 = QuotType(7, 2, 3)


def test_cusp_resolves_in_one_blowup():
    tree = resolve_germ(germ("x^2 - y^3"), SMOOTH)
    nodes = tree.internal_nodes()
    assert len(nodes) == 1
    b = nodes[0].blowup
    assert (b.p, b.q) == (3, 2) and b.e == 1 and b.nu == 6
    assert delta_w(tree) == 1
    rep = full_report(germ("x^2 - y^3"), SMOOTH)
    assert (rep.r_w, rep.r_classical) == (1, 1)


def test_tacnode_values():
    tree = resolve_germ(germ("x^2 - y^4"), X211)
    assert delta_w(tree) == 1
    rep = full_report(germ("x^2 - y^4"), X211)
    assert (rep.r_w, rep.r_classical) == (1, 2)
    up = resolve_germ(germ("x^2 - y^4"), SMOOTH)
    assert delta_w(up) == 2
    rep = full_report(germ("x^2 - y^4"), SMOOTH)
    assert (rep.r_w, rep.r_classical) == (2, 2)


@pytest.mark.parametrize("override", [(0, 1), (2, 4), (1, 2, 3), (1,),
                                      (1.0, 2), "12", None])
def test_the_engine_config_refuses_a_bad_weight_override(override):
    with pytest.raises(BadType, match="invalid weight override"):
        EngineConfig(weight_overrides=((1, 5), override))


def test_override_weights_reproduce_hand_computation():
    f = germ("x*y + (y^2 - x^3)^2")    # semi-invariant orientation
    cfg = EngineConfig(weight_overrides=((1, 5),))
    plain = resolve_germ(f, X723, config=cfg)
    bd = delta_breakdown(plain)
    assert [c for _, c in bd.node_terms] == [Rat(3, 5)]
    assert [c for _, c in bd.corrections] == [Rat(2, 5)]
    assert bd.total == 1
    strong = resolve_germ(f, X723, config=replace(cfg, mode="strong"))
    bd2 = delta_breakdown(strong)
    assert [c for _, c in bd2.node_terms] == [Rat(3, 5), Rat(2, 5)]
    assert not bd2.corrections
    assert bd2.total == 1


def test_engine_picks_its_own_weights_consistently():
    f = germ("x*y + (y^2 - x^3)^2")
    assert delta_w(resolve_germ(f, X723)) == 1


def test_conjugate_cluster_and_rational_split():
    # (t^2 - 2)^2 on the first face: a double root pair conjugate over Q,
    # resolved as one cluster of size two
    f = germ("(y^2 - 2*x^2)^2 - x^7")
    tree = resolve_germ(f, SMOOTH)
    assert delta_w(tree) == 8                   # 2 + 2 + 2*2 by additivity
    rep = full_report(f, SMOOTH)
    assert (rep.r_w, rep.r_classical) == (2, 2)
    assert sorted(n.conjugacy_multiplicity for n in tree.iter_nodes()) == [1, 2]
    deep = [n for n in tree.iter_nodes() if n.conjugacy_multiplicity == 2][0]
    assert deep.field.describe().startswith("Q(")
    # rational double points split instead of extending
    g = germ("(y^2 - x^3)*(y^2 - 2*x^3)")
    tree2 = resolve_germ(g, SMOOTH)
    assert delta_w(tree2) == 8                  # 1 + 1 + 6
    assert all(n.field.depth == 0 for n in tree2.iter_nodes())


@pytest.mark.parametrize("mode", ["plain", "strong"])
def test_engine_forks_a_cluster_whose_face_polynomial_splits(mode,
                                                            monkeypatch):
    """The tangent cone (y^4 - 4x^4)^2 is four double lines, one cluster
    over t^4 - 4 = (t^2 - 2)(t^2 + 2).  After one blow-up (y = t x) the
    strict transform is (t^4 - 4)^2 + x (t^2 - 2) + x^2.  At t^2 = 2 its
    quadratic part 128 s^2 + 2 t x s + x^2 (s = t - sqrt 2) has
    discriminant 8 - 512 != 0, a node; at t^2 = -2 the term -4x makes it
    smooth.  Without the engine: delta = sum of m(m - 1)/2 over the
    infinitely near points = 28 + 1 + 1 = 30, and r = 2*2 + 2 = 6."""
    splits = []
    init = SplitEvent.__init__

    def counting_init(self, *args, **kwargs):
        splits.append(args[1])
        init(self, *args, **kwargs)
    monkeypatch.setattr(SplitEvent, "__init__", counting_init)
    f = germ("(y^4 - 4*x^4)^2 + x^7*(y^2 - 2*x^2) + x^10")
    tree = resolve_germ(f, SMOOTH, config=EngineConfig(mode=mode))
    assert splits
    assert sorted(n.origin for n in tree.iter_nodes()).count("split") == 2
    rep = full_report(f, SMOOTH, config=EngineConfig(mode=mode))
    assert rep.delta_w == rep.delta_classical == delta_w(tree) == 30
    assert rep.r_w == rep.r_classical == 6
    assert rep.mu_w == 2 * rep.delta_w - rep.r_w + 1 == 55


def test_split_germ_certifies_each_unit_once(monkeypatch):
    """The germ-split golden's germ: the engine splits level 0 once and
    builds the tree of tests/golden/resolve-split-json.out.  A coefficient
    is certified only where it is new to the tower: no chart node calls
    is_zero_validated, and no (field, coefficient) pair is certified twice
    unless the coefficient is rational, like the 1 that several terms of
    one node carry."""
    splits, certified, origins = [], [], []
    init, ingest = SplitEvent.__init__, resolve._Engine.ingest
    validated = resolve.is_zero_validated

    def counting_init(self, *args, **kwargs):
        splits.append(args[1])
        init(self, *args, **kwargs)

    def tracking_ingest(self, node):
        origins.append(node.origin)
        try:
            return ingest(self, node)
        finally:
            origins.pop()

    def recording(field, rep):
        certified.append((origins[-1], field, rep))
        return validated(field, rep)
    monkeypatch.setattr(SplitEvent, "__init__", counting_init)
    monkeypatch.setattr(resolve._Engine, "ingest", tracking_ingest)
    monkeypatch.setattr(resolve, "is_zero_validated", recording)
    tree = resolve_germ(germ("(y^4 - 4*x^4)^2 + x^7*(y^2 - 2*x^2) + x^10"),
                        SMOOTH)
    assert splits == [0]
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "resolve-split-json.out")
    with open(golden) as fh:
        assert tree_to_dict(tree) == json.load(fh)
    assert len(certified) > 10
    assert {o for o, _, _ in certified} <= {"root", "face", "split"}
    pairs = [(f, c) for _, f, c in certified if not rational(f, c)]
    assert len(set(pairs)) == len(pairs) > 10


def rational(field, rep):
    """rep is the lift of its constant coordinate, a pair (P, d) over Q
    with P_0 / d that coordinate."""
    q = rep
    for _ in range(field.depth - 1):
        q = q[0]
    return not field.depth or rep == field.from_rat(Rat(q[0][0], q[1]))


def test_a_face_step_with_one_label_runs_no_gcd(monkeypatch):
    """With one label the Yun factor divides that label's part of the
    exceptional restriction, so its simple roots are counted as branches
    with no gcd; with two labels a gcd still shares them out."""
    gcds = spy(monkeypatch, resolve, "poly_gcd")
    tree = resolve_germ(germ("y^2 - x^2"), SMOOTH)
    assert gcds == []
    assert [(rec.kind, rec.branches) for _, rec in tree.leaves()] == [
        ("face", 2)]
    assert noether_intersection(germ("y^2 - x^2"), germ("y - 2*x"),
                                SMOOTH) == 2
    assert gcds


def test_a_level_that_counts_no_points_splits_in_place(monkeypatch):
    """Over Q(u), u^2 = 4, a level that counts no points (as adjoin_radical
    builds for a chart radical), y^2 - x^3 + (u - 2) x^2 is a cusp at
    u = 2 and a node at u = -2.  Such a level only parametrizes local
    coordinates, so the engine does not fork: it re-expands the node in
    the one factor that SplitEvent.targets() keeps, here u = 2."""
    events = []
    init = SplitEvent.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        events.append(self)
    monkeypatch.setattr(SplitEvent, "__init__", counting_init)
    field, _ = adjoin_radical(ExtField(()), Rat(4), 2, "u")
    f = SparsePoly(field, ("x", "y"), {(0, 2): field.one(),
                                       (3, 0): field.from_rat(Rat(-1)),
                                       (2, 0): ((-2, 1), 1)})
    rep = full_report(f, SMOOTH)
    assert [ev.counts_points for ev in events] == [False]
    assert [(n.origin, n.field.describe())
            for n in rep.tree.iter_nodes()] == [("root", "Q")]
    assert (rep.delta_w, rep.r_w) == (1, 1)


LATE_SPLIT_TREES = [
    ((), [(0, "root", 0, "Q(t:deg 2)", None), (2, "split", 0, "Q", (1, 1)),
          (4, "face", 1, "Q", (3, 1)), (8, "split", 0, "Q", (1, 1)),
          (10, "face", 1, "Q", (2, 1))]),
    (((1, 1), (1, 2), (2, 1)),
     [(0, "root", 0, "Q(t:deg 2)", None), (2, "split", 0, "Q", (1, 1)),
      (4, "face", 1, "Q", (1, 2)), (6, "chart2", 2, "Q", (2, 1)),
      (8, "chart2", 3, "Q", (3, 1)), (12, "split", 0, "Q", (1, 1)),
      (14, "face", 1, "Q", (2, 1))]),
]


@pytest.mark.parametrize("overrides, nodes", LATE_SPLIT_TREES)
def test_a_split_after_the_blowup_began_forks_the_node(overrides, nodes):
    """Over Q(t), t^2 = 4, every coefficient of
    f = (y - x)^2 (y - t x/2) + x^4 is a unit, so ingesting the root does
    not split.  The root blows up with (1, 1), and its chart-1 child takes
    id 1; only then does Yun's algorithm on the face polynomial
    (y - 1)^2 (y - t/2) split t^2 - 4, and the root forks into one "split"
    child per factor.  The abandoned attempt keeps the ids and overrides it
    took, so both forks reuse the root's (1, 1).  By hand,
    delta = 3 + 3: E6 at t = 2; at t = -2 a cusp along y = x (delta 1)
    meeting the line y = -x with intersection number 2."""
    field, _ = adjoin_root(ExtField(()), (-4, 0), "t")
    x, y = (germ(v).lift_shift(field) for v in "xy")
    half_t = SparsePoly(field, ("x", "y"), {(0, 0): ((0, 1), 2)})
    f = (y - x) ** 2 * (y - half_t * x) + x ** 4
    tree = resolve_germ(f, SMOOTH,
                        config=EngineConfig(weight_overrides=overrides))
    assert [(n.id, n.origin, n.depth, n.field.describe(),
             n.blowup and (n.blowup.p, n.blowup.q))
            for n in tree.iter_nodes()] == nodes
    assert delta_w(tree) == 6


def test_axis_factors_ride_along():
    f = germ("x*(y^2 - x^3)")
    tree = resolve_germ(f, SMOOTH)
    assert delta_w(tree) == 3                   # 1 + 0 + I(x, cusp) = 2
    rep = full_report(f, SMOOTH)
    assert (rep.r_w, rep.r_classical) == (2, 2)


def test_q_smooth_axis_plain_vs_strong():
    for mode in ("plain", "strong"):
        cfg = EngineConfig(mode=mode)
        tree = resolve_germ(germ("x"), QuotType(5, 1, 2), config=cfg)
        assert delta_w(tree) == Rat(2, 5)
        rep = full_report(germ("x"), QuotType(5, 1, 2), config=cfg)
        assert (rep.r_w, rep.r_classical) == (1, 1)


def test_strong_mode_equals_plain_total():
    cases = [(germ("x^2 - y^4"), X211), (germ("x*y"), X723),
             (germ("(y^2 - 2*x^2)^2 - x^7"), SMOOTH),
             (germ("y^2 - x^7"), SMOOTH)]
    plain, strong = EngineConfig(mode="plain"), EngineConfig(mode="strong")
    for f, t in cases:
        assert delta_w(resolve_germ(f, t, config=plain)) == \
            delta_w(resolve_germ(f, t, config=strong))


def test_extension_bound_is_enforced(monkeypatch):
    f = germ("(y^2 - 2*x^2)^2 - x^7")
    monkeypatch.setenv("QRES_EXT_BOUND", "1")
    with pytest.raises(ExtensionOverflow):
        resolve_germ(f, SMOOTH)
    for raw in ("2", "0"):           # 0 lifts the bound
        monkeypatch.setenv("QRES_EXT_BOUND", raw)
        assert delta_w(resolve_germ(f, SMOOTH)) == 8


def test_depth_bound_is_enforced(monkeypatch):
    f = germ("(y - x^2)^2 - x^7")
    monkeypatch.setattr(resolve, "DEPTH_BOUND", 1)
    with pytest.raises(ResolutionDepthExceeded):
        resolve_germ(f, SMOOTH)
    monkeypatch.undo()
    assert delta_w(resolve_germ(f, SMOOTH)) == 3


def test_engine_config_rejects_an_unknown_mode():
    """EngineConfig is the one way to set the mode, and it checks it."""
    with pytest.raises(BadType):
        EngineConfig(mode="Strong")
    with pytest.raises(TypeError):
        resolve_germ(germ("y^2 - x^3"), SMOOTH, mode="strong")


def test_reduced_germ_precheck_runs_no_resultant(monkeypatch):
    resultants = spy(monkeypatch, poly, "resultant")
    contents = spy(monkeypatch, poly, "content_in")
    for text in ("y^2 - x^3", "x*y*(x - y)", "(x + y)^40 - y^41",
                 "(y^2 - 2*x^2)^2 - x^7"):
        resolve._prepare_germ(germ(text), SMOOTH, True)
    assert resultants == [] and contents == []
    # a germ that is not reduced goes to the exact certificate
    with pytest.raises(NotReduced):
        resolve._prepare_germ(germ("(y^2 - x^3)^2*(y - x)"), SMOOTH, True)
    assert len(resultants) == 1


def test_input_validation():
    with pytest.raises(NotReduced):
        resolve_germ(germ("(x - y)^2"), SMOOTH)
    with pytest.raises(UnitGerm):
        resolve_germ(germ("1 + x"), SMOOTH)
    with pytest.raises(BadType):
        resolve_germ(germ("x"), QuotType(4, 2, 1))   # not in normal form
    with pytest.raises(NotSemiInvariant):
        resolve_germ(germ("x + y"), QuotType(3, 1, 2))


def test_the_engine_finds_a_repeated_axis_factor_at_the_root():
    """Without the reducedness precheck, the engine itself refuses x^2 (y + x)."""
    with pytest.raises(NotReduced, match="repeated axis factor"):
        resolve_germ(germ("x^2*y + x^3"), SMOOTH,
                     config=EngineConfig(check_reduced=False))


def test_semi_invariance_check():
    ok, res = semi_invariance_check(germ("x*y + x^6"), X723)
    assert ok and res == 5
    ok, _ = semi_invariance_check(germ("x + y"), QuotType(3, 1, 2))
    assert not ok
    ok, res = semi_invariance_check(germ("x + y"), SMOOTH)
    assert ok and res == 0


def test_multi_label_resolution_shares_the_tree():
    tree = resolve_labels({"C": germ("y^2 - x^3"), "D": germ("y")}, SMOOTH)
    assert set(tree.labels) == {"C", "D"}
    node = tree.internal_nodes()[0]
    # weights come from the combined polygon: (2,3) covers both germs
    assert (node.blowup.p, node.blowup.q) == (2, 3)
    assert node.blowup.nu_by_label == {"C": 6, "D": 3}
    assert node.blowup.nu == 9


SCHEMA = json.load(open("docs/resolution.schema.json"))


def test_tree_dict_matches_schema_and_is_deterministic():
    f = germ("x*y + (y^2 - x^3)^2")
    tree = resolve_germ(f, X723)
    doc = tree_to_dict(tree)
    jsonschema.validate(doc, SCHEMA)
    assert doc["schema_version"] == 1
    again = json.dumps(tree_to_dict(resolve_germ(f, X723)), sort_keys=True)
    assert json.dumps(doc, sort_keys=True) == again


def test_dot_output_is_deterministic_and_well_formed():
    f = germ("(y^2 - 2*x^2)^2 - x^7")
    dot1 = tree_to_dot(resolve_germ(f, SMOOTH))
    dot2 = tree_to_dot(resolve_germ(f, SMOOTH))
    assert dot1 == dot2
    assert dot1.startswith("digraph resolution {") and dot1.endswith("}\n")
    assert "x2" in dot1                           # the conjugate pair marker
