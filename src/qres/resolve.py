"""Embedded resolution of semi-invariant curve germs on cyclic quotient
surface points by iterated weighted blow-ups.

The engine keeps, at every point it visits, a list of labelled germ factors
(axis exponents plus a polynomial part coprime to the axes) over an exact
coefficient tower.  One step picks weights from the Newton polygon of the
product germ, blows up, and recurses into the two chart origins and into
every multiple root on the exceptional curve; simple roots on the
exceptional curve are transverse sections and become leaves.

Points with algebraic coordinates are never enumerated one conjugate at a
time: a multiple face root adjoins its minimal polynomial to the tower
(counting conjugates through the field's cluster size), and the quotient
structure along the exceptional curve is absorbed by one uncounted radical
adjunction.  Minimal polynomials are only required squarefree; if a later
inversion catches a reducible one, the engine either discards the irrelevant
factor (uncounted levels) or forks the node into one branch per factor
(counted levels).  Coefficients are certified as zero or units where they
are new to the tower: at the root, face children and split children.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as _field

from .errors import (BadType, DegeneratePolygon, InternalInconsistency,
                     NotReduced, NotSemiInvariant, ResolutionDepthExceeded,
                     UnitGerm, ZeroPolynomial)
from .exactnum import (ExtField, SplitEvent, adjoin_radical, adjoin_root,
                       is_zero_validated, _is_zero)
from .poly import (SparsePoly, blowup_transform, choose_face,
                   is_squarefree_two_vars, poly_gcd, squarefree_part,
                   support_polygon)
from .quotsing import (SMOOTH, BlowupCharts, QuotType, blowup_charts,
                       exceptional_data, require_normalized)

__all__ = [
    "EngineConfig", "FactorState", "LeafRecord", "BlowupStep",
    "ResolutionNode", "ResolutionTree", "DEPTH_BOUND",
    "semi_invariance_check", "axis_split", "resolve_germ", "resolve_labels",
    "tree_to_dict", "tree_to_dot",
]

_UNSET = object()

# blow-ups along one path before ResolutionDepthExceeded; the tower degree
# bound is exactnum.ext_bound(), read where a root is adjoined
DEPTH_BOUND = 128


@dataclass(frozen=True)
class EngineConfig:
    mode: str = "plain"              # "plain" or "strong"
    weight_overrides: tuple = ()     # (p, q) pairs, consumed depth-first
    check_reduced: bool = True

    def __post_init__(self):
        if self.mode not in ("plain", "strong"):
            raise BadType("mode must be 'plain' or 'strong', got %r"
                          % (self.mode,))
        for pq in self.weight_overrides:
            if not (isinstance(pq, (tuple, list)) and len(pq) == 2
                    and all(isinstance(c, int) and c >= 1 for c in pq)
                    and math.gcd(*pq) == 1):
                raise BadType("invalid weight override %r" % (pq,))


@dataclass
class FactorState:
    """One labelled factor at a chart origin: x^axis_x * y^axis_y * poly."""

    axis_x: int = 0
    axis_y: int = 0
    poly: SparsePoly | None = None

    @property
    def is_empty(self):
        return self.axis_x == 0 and self.axis_y == 0 and self.poly is None


@dataclass(frozen=True)
class LeafRecord:
    kind: str           # "axis-x" | "axis-y" | "smooth" | "face"
    label: str
    ambient: QuotType   # local type at the leaf point
    branches: int       # branch count at one point of the node's cluster


@dataclass(frozen=True)
class BlowupStep:
    charts: BlowupCharts
    nu: int
    nu_by_label: dict

    @property
    def p(self):
        return self.charts.p

    @property
    def q(self):
        return self.charts.q

    @property
    def e(self):
        return self.charts.e


@dataclass(eq=False, repr=False, slots=True)
class ResolutionNode:
    id: int
    ambient: QuotType
    field: ExtField
    labels: dict                  # label -> FactorState
    exc_x: bool
    exc_y: bool
    depth: int
    origin: str
    override: object = _UNSET     # (p, q) or None once pick_weights ran
    blowup: BlowupStep | None = None
    leaf_records: list = _field(default_factory=list)
    children: list = _field(default_factory=list)

    @property
    def conjugacy_multiplicity(self) -> int:
        """Number of actual points this node stands for (its cluster size)."""
        return self.field.cluster_size

    def label_strings(self):
        out = {}
        for lab in sorted(self.labels):
            st = self.labels[lab]
            # ingest leaves axis exponents 0 or 1
            bits = ["x"] * st.axis_x + ["y"] * st.axis_y
            if st.poly is not None:
                bits.append("(%s)" % (st.poly,) if bits else str(st.poly))
            out[lab] = " * ".join(bits) if bits else "1"
        return out


@dataclass
class ResolutionTree:
    root: ResolutionNode
    ambient: QuotType
    germs: dict                   # label -> input germ (canonical x, y vars)
    mode: str

    @property
    def labels(self):
        return tuple(sorted(self.germs))

    def iter_nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def internal_nodes(self):
        return [n for n in self.iter_nodes() if n.blowup is not None]

    def leaves(self):
        out = []
        for n in self.iter_nodes():
            for rec in n.leaf_records:
                out.append((n, rec))
        return out


# ---------------------------------------------------------------------------
# small germ predicates


def semi_invariance_check(f: SparsePoly, t: QuotType):
    """(True, residue) when all exponents share one weight a*i + b*j mod d."""
    if f.is_zero():
        raise ZeroPolynomial("the zero germ has no residue")
    if t.d == 1:
        return True, 0
    residues = {(t.a * i + t.b * j) % t.d for (i, j) in f.terms}
    if len(residues) == 1:
        return True, residues.pop()
    return False, None


def axis_split(f: SparsePoly):
    """f = x^ax * y^ay * g with g coprime to both axes; returns (ax, ay, g)."""
    ax = min(i for i, _ in f.terms)
    ay = min(j for _, j in f.terms)
    if not (ax or ay):
        return 0, 0, f
    return ax, ay, SparsePoly(f.field, f.vars, {
        (i - ax, j - ay): c for (i, j), c in f.terms.items()})


# ---------------------------------------------------------------------------
# the engine


class _Engine:
    def __init__(self, config: EngineConfig):
        self.config = config
        self.overrides = list(config.weight_overrides)
        self.ids = itertools.count()

    def build(self, ambient, field, labels, exc_x, exc_y, depth, origin,
              override=_UNSET):
        """Create and fully expand a node; returns None when nothing of the
        curve passes through the point.  The one place that handles a split
        of the node's tower: a level that counts no points re-expands the
        node in the factor that SplitEvent.targets() keeps; a level that
        counts points forks it into one "split" child per target.  Children
        of an abandoned attempt keep the ids and overrides they took."""
        node = ResolutionNode(next(self.ids), ambient, field, labels,
                              exc_x, exc_y, depth, origin, override)
        while True:
            try:
                return self.process(node)
            except SplitEvent as ev:
                node.blowup, node.leaf_records, node.children = None, [], []
                if ev.levels != node.field.levels:
                    raise InternalInconsistency(
                        "a coefficient split escaped the node that owns its "
                        "tower")
                if ev.counts_points:
                    for field2, project in ev.targets():
                        child = self.build(
                            node.ambient, field2,
                            self._project_labels(node.labels, field2, project),
                            node.exc_x, node.exc_y, node.depth, "split",
                            override=node.override)
                        if child is not None:
                            node.children.append(child)
                    return node if node.children else None
                (node.field, project), = ev.targets()
                node.labels = self._project_labels(node.labels, node.field,
                                                   project)

    # -- one attempt at expanding a node ------------------------------------

    def process(self, node):
        """The node expanded once, or None when no label is left."""
        if node.depth > DEPTH_BOUND:
            raise ResolutionDepthExceeded(
                "resolution did not terminate within %d blow-ups at %s"
                % (DEPTH_BOUND, node.ambient))
        self.ingest(node)
        if not node.labels:
            return None
        if not self.try_leaf(node):
            self.blow_up(node)
        return node

    def ingest(self, node):
        for lab in sorted(node.labels):
            st = node.labels[lab]
            if st.poly is not None:
                if st.poly.is_zero():
                    raise InternalInconsistency(
                        "label %s degenerated to the zero germ" % (lab,))
                if node.field.depth > 0 and node.origin not in ("chart1", "chart2"):
                    # certify every new coefficient as zero or unit (so the
                    # structural test below is sound; else a SplitEvent for
                    # build()).  A chart child's are its parent's, copied by
                    # blowup_transform, certified by the parent's ingest in
                    # the same field before it built any child, and a later
                    # split projects them by a ring map: units stay units.
                    for e in sorted(st.poly.terms):
                        is_zero_validated(node.field, st.poly.terms[e])
                ax, ay, g = axis_split(st.poly)
                st.axis_x += ax
                st.axis_y += ay
                if g.is_constant():
                    st.poly = None
                elif not _is_zero(node.field.levels, node.field.depth,
                                  g.constant_term()):
                    # unit at the origin: no component through this point
                    st.poly = None
                else:
                    st.poly = g
            if st.axis_x > 1 or st.axis_y > 1:
                if node.origin == "root":
                    raise NotReduced(
                        "the germ labelled %s has a repeated axis factor" % (lab,))
                raise InternalInconsistency(
                    "strict transform of a reduced germ acquired a repeated "
                    "axis factor at label %s" % (lab,))
            if (st.axis_x and node.exc_x) or (st.axis_y and node.exc_y):
                raise InternalInconsistency(
                    "label %s contains an exceptional axis" % (lab,))
            if st.is_empty:
                del node.labels[lab]

    # -- leaves --------------------------------------------------------------

    def try_leaf(self, node) -> bool:
        slots = []
        for lab in sorted(node.labels):
            st = node.labels[lab]
            if st.axis_x:
                slots.append((lab, "axis-x"))
            if st.axis_y:
                slots.append((lab, "axis-y"))
            if st.poly is not None:
                slots.append((lab, "poly"))
        if not slots:
            raise InternalInconsistency("a node with labels has no branch slot")
        if len(slots) > 1:
            return False
        lab, kind = slots[0]
        if kind == "poly":
            h = node.labels[lab].poly
            if h.total_order() != 1:
                return False
            if node.exc_x and node.exc_y:
                # a corner: three curves through one point is not allowed
                return False
            if node.exc_x and h.set_var_zero("x").min_exp("y") != 1:
                return False
            if node.exc_y and h.set_var_zero("y").min_exp("x") != 1:
                return False
            kind = "smooth"
        if self.config.mode == "strong" and node.ambient.d != 1:
            return False
        node.leaf_records.append(
            LeafRecord(kind=kind, label=lab, ambient=node.ambient, branches=1))
        return True

    # -- blow-up -------------------------------------------------------------

    def blow_up(self, node):
        p, q = self.pick_weights(node)
        bc = blowup_charts(node.ambient, p, q)
        # chart 1: x = 0 is the new exceptional curve; axis-x parts die in
        # it.  Chart 2: y = 0 is, and axis-y parts die in it.  Both strict
        # transforms are taken here; the transform only copies coefficients,
        # so it cannot split the tower before the chart-1 child is built.
        nu_by_label, strict1, raw1, raw2 = {}, {}, {}, {}
        for lab in sorted(node.labels):
            st = node.labels[lab]
            nu, s1, s2 = 0, None, None
            if st.poly is not None:
                nu, s1, s2 = blowup_transform(st.poly, p, q, bc.xdiv1,
                                              bc.ydiv2)
            nu_by_label[lab] = nu + st.axis_x * p + st.axis_y * q
            strict1[lab] = s1
            for raw, fs in ((raw1, FactorState(0, st.axis_y, s1)),
                            (raw2, FactorState(st.axis_x, 0, s2))):
                if not fs.is_empty:
                    raw[lab] = fs
        node.blowup = BlowupStep(charts=bc, nu=sum(nu_by_label.values()),
                                 nu_by_label=nu_by_label)

        child = self.build(bc.chart1, node.field, raw1, True, node.exc_y,
                           node.depth + 1, "chart1")
        if child is not None:
            node.children.append(child)

        self.process_faces(node, bc, strict1)

        child = self.build(bc.chart2, node.field, raw2, node.exc_x, True,
                           node.depth + 1, "chart2")
        if child is not None:
            node.children.append(child)

    def pick_weights(self, node):
        if node.override is _UNSET:
            node.override = self.overrides.pop(0) if self.overrides else None
        if node.override is not None:
            return node.override
        pts = {(0, 0)}
        for lab in sorted(node.labels):
            st = node.labels[lab]
            base = [(st.axis_x, st.axis_y)]
            if st.poly is not None:
                base = [(i + st.axis_x, j + st.axis_y)
                        for (i, j) in st.poly.terms]
            pts = {(a + c, b + d) for (a, b) in pts for (c, d) in base}
        try:
            fc = choose_face(support_polygon(pts))
            return fc.p, fc.q
        except DegeneratePolygon:
            # monomial product germ (axis branches only): any weights work
            return 1, 1

    # -- points on the exceptional curve away from both chart origins --------

    def process_faces(self, node, bc, strict1):
        d1 = bc.chart1.d
        q_parts = {}
        for lab in sorted(strict1):
            s1 = strict1[lab]
            if s1 is None:
                continue
            pval = s1.set_var_zero("x")
            if pval.is_zero():
                raise InternalInconsistency(
                    "strict transform of label %s vanishes on the "
                    "exceptional curve" % (lab,))
            s = pval.min_exp("y")
            coeffs = {}
            for (_, j), c in pval.terms.items():
                if (j - s) % d1:
                    raise InternalInconsistency(
                        "exceptional restriction of label %s is not "
                        "equivariant: y-exponents %s are not constant mod %d"
                        % (lab, sorted(j for _, j in pval.terms), d1))
                coeffs[((j - s) // d1,)] = c
            q_parts[lab] = SparsePoly(node.field, ("y",), coeffs)
        if not q_parts:
            return
        q_product = None
        for lab in sorted(q_parts):
            q_product = q_parts[lab] if q_product is None else q_product * q_parts[lab]
        if q_product.degree_in("y") == 0:
            return
        _, factors = squarefree_part(q_product)
        for idx, (fact, mult) in enumerate(factors):
            if mult == 1:
                total = 0
                for lab in sorted(q_parts):
                    # one label's part is q_product, which fact divides
                    g = (fact if len(q_parts) == 1
                         else poly_gcd(fact, q_parts[lab]))
                    db = g.degree_in("y")
                    if db > 0:
                        node.leaf_records.append(LeafRecord(
                            kind="face", label=lab, ambient=SMOOTH,
                            branches=db))
                    total += db
                if total != fact.degree_in("y"):
                    raise InternalInconsistency(
                        "simple exceptional roots do not distribute over "
                        "the labels")
            else:
                self.face_child(node, bc, strict1, fact, idx)

    def face_child(self, node, bc, strict1, fact, idx):
        coeffs = fact.coeff_list("y")
        # Yun factors are monic and squarefree, so coeffs[:-1] is the minimal
        # polynomial tail; fact divides q_product, whose constant term ingest
        # certified a unit, so t0 is a unit, as adjoin_radical requires
        field2, t0 = adjoin_root(node.field, coeffs[:-1],
                                 "a%d_%d" % (node.id, idx))
        field3, y0 = adjoin_radical(field2, t0, bc.chart1.d,
                                    "r%d_%d" % (node.id, idx))
        raw = {}
        for lab in sorted(strict1):
            s1 = strict1[lab]
            if s1 is None:
                continue
            moved = s1.lift_shift(field3, (field3.zero(), y0))
            raw[lab] = FactorState(0, 0, moved)
        child = self.build(SMOOTH, field3, raw, True, False,
                           node.depth + 1, "face")
        if child is not None:
            node.children.append(child)

    # -- reducible minimal polynomials ---------------------------------------

    @staticmethod
    def _project_labels(labels, field2, project):
        out = {}
        for lab, st in labels.items():
            g = None
            if st.poly is not None:
                depth = st.poly.field.depth
                g = st.poly.map_coeffs(lambda c: project(c, depth), field2)
            out[lab] = FactorState(st.axis_x, st.axis_y, g)
        return out


# ---------------------------------------------------------------------------
# entry points


def _prepare_germ(f: SparsePoly, ambient: QuotType, check_reduced: bool):
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial is not a curve germ")
    if len(f.vars) != 2:
        raise BadType("curve germs live in two variables, got %r" % (f.vars,))
    f = f.with_vars(("x", "y"))
    if f.field.depth == 0 and f.constant_term() != 0:
        raise UnitGerm("the germ does not vanish at the origin")
    ok, _ = semi_invariance_check(f, ambient)
    if not ok:
        msg = ("the germ is not semi-invariant on %s" % (ambient,))
        okT, _ = semi_invariance_check(f.permute_vars((1, 0)), ambient)
        if okT:
            msg += " (its transpose, swapping the variable roles, is)"
        raise NotSemiInvariant(msg)
    if check_reduced and f.field.depth == 0 and not is_squarefree_two_vars(f):
        raise NotReduced("the germ has a repeated factor")
    return f


def resolve_labels(germs: dict, ambient: QuotType,
                   config=EngineConfig()) -> ResolutionTree:
    """Resolve several labelled germs at the same point simultaneously."""
    require_normalized(ambient)
    if not germs:
        raise BadType("need at least one labelled germ")
    fields = {g.field for g in germs.values()}
    if len(fields) != 1:
        raise BadType("all labelled germs must share one coefficient field")
    prepared = {lab: _prepare_germ(germs[lab], ambient, config.check_reduced)
                for lab in sorted(germs)}
    engine = _Engine(config)
    labels = {lab: FactorState(0, 0, g) for lab, g in prepared.items()}
    field = next(iter(fields))
    root = engine.build(ambient, field, labels, False, False, 0, "root")
    if root is None:
        raise UnitGerm("no labelled germ vanishes at the origin")
    return ResolutionTree(root=root, ambient=ambient, germs=prepared,
                          mode=config.mode)


def resolve_germ(f: SparsePoly, ambient: QuotType,
                 config=EngineConfig()) -> ResolutionTree:
    """Embedded resolution of one reduced semi-invariant germ at the origin
    of X(d;a,b) (the type must be in normal form)."""
    return resolve_labels({"C": f}, ambient, config)


# ---------------------------------------------------------------------------
# serialization


SCHEMA_VERSION = 1


def _node_dict(node):
    d = {
        "id": node.id,
        "ambient": str(node.ambient),
        "origin": node.origin,
        "depth": node.depth,
        "cluster": node.conjugacy_multiplicity,
        "exceptional": [bool(node.exc_x), bool(node.exc_y)],
        "field": node.field.describe(),
        "germs": node.label_strings(),
        "blowup": None,
        "leaves": [{"kind": rec.kind, "label": rec.label,
                    "ambient": str(rec.ambient), "branches": rec.branches}
                   for rec in node.leaf_records],
        "children": [_node_dict(c) for c in node.children],
    }
    if node.blowup is not None:
        b = node.blowup
        d["blowup"] = {
            "p": b.p, "q": b.q, "e": b.e, "nu": b.nu,
            "nu_by_label": dict(sorted(b.nu_by_label.items())),
            "exceptional_multiplicity": str(
                exceptional_data(b.charts, b.nu)[0]),
            "chart1": str(b.charts.chart1),
            "chart2": str(b.charts.chart2),
        }
    return d


def tree_to_dict(tree: ResolutionTree):
    return {
        "schema_version": SCHEMA_VERSION,
        "ambient": str(tree.ambient),
        "mode": tree.mode,
        "germs": {lab: str(g) for lab, g in sorted(tree.germs.items())},
        "root": _node_dict(tree.root),
    }


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def tree_to_dot(tree: ResolutionTree) -> str:
    lines = ["digraph resolution {", '  node [shape=box, fontname="monospace"];']
    for node in tree.iter_nodes():
        parts = [str(node.ambient)]
        if node.blowup is not None:
            b = node.blowup
            parts.append("(%d,%d) e=%d nu=%d" % (b.p, b.q, b.e, b.nu))
        if node.conjugacy_multiplicity > 1:
            parts.append("x%d" % node.conjugacy_multiplicity)
        lines.append('  n%d [label="%s"];' % (node.id, _dot_escape("\\n".join(parts))))
        for k, rec in enumerate(node.leaf_records):
            lines.append(
                '  n%d_l%d [shape=ellipse, label="%s"];'
                % (node.id, k, _dot_escape("%s %s: %d branch%s" % (
                    rec.kind, rec.label, rec.branches,
                    "" if rec.branches == 1 else "es"))))
            lines.append("  n%d -> n%d_l%d;" % (node.id, node.id, k))
        for c in node.children:
            lines.append('  n%d -> n%d [label="%s"];'
                         % (node.id, c.id, _dot_escape(c.origin)))
    lines.append("}")
    return "\n".join(lines) + "\n"
