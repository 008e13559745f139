"""Local invariants of curve germs read off resolution trees.

delta_w sums, over the infinitely near points of a resolution, the exact
rational nu(nu - p - q + e)/(2dpq); in plain mode every leaf on a still
singular ambient point adds the correction (d-1)/(2d) per branch.  All the
classical invariants (delta, mu, r) come from the same engine run at d = 1
on the same equation, and the report cross-checks the identities tying the
two levels together, so a bug in either run surfaces as an inconsistency
instead of a plausible number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (BadType, CommonComponent, InternalInconsistency,
                     NotMultiple)
from .exactnum import Rat, _coprime_images
from .poly import SparsePoly, probe_images, resultant, weighted_order
from .quotsing import QuotType, SMOOTH
from .resolve import (EngineConfig, LeafRecord, ResolutionNode,
                      ResolutionTree, axis_split, resolve_germ, resolve_labels,
                      semi_invariance_check)

__all__ = [
    "DeltaTerm", "DeltaBreakdown", "InvariantReport", "delta_breakdown",
    "delta_w", "delta_classical", "full_report", "noether_intersection",
    "delta_additivity_check", "monomial_colength", "one_step_dim",
    "report_to_dict",
]


@dataclass(frozen=True)
class DeltaTerm:
    """One summand of delta_w: the blow-up at `node` (leaf is None) or, in
    plain mode, the Q-smooth end `leaf` recorded at `node`.  Unpacks as the
    pair (node id, contribution)."""

    node: ResolutionNode
    contribution: Rat
    leaf: LeafRecord | None = None

    def __iter__(self):
        return iter((self.node.id, self.contribution))


@dataclass(frozen=True)
class DeltaBreakdown:
    total: Rat
    node_terms: tuple        # DeltaTerm per blow-up, preorder
    corrections: tuple       # DeltaTerm per plain-mode leaf on d > 1

    @property
    def node_sum(self) -> Rat:
        return sum((c for _, c in self.node_terms), Rat(0))

    @property
    def correction_sum(self) -> Rat:
        return sum((c for _, c in self.corrections), Rat(0))

    @property
    def per_node(self):
        return self.node_terms + self.corrections


def delta_breakdown(tree: ResolutionTree) -> DeltaBreakdown:
    node_terms = []
    corrections = []
    for n in tree.iter_nodes():
        if n.blowup is not None:
            b = n.blowup
            node_terms.append(DeltaTerm(n, n.conjugacy_multiplicity * Rat(
                b.nu * (b.nu - b.p - b.q + b.e),
                2 * n.ambient.d * b.p * b.q)))
        for rec in n.leaf_records:
            d = rec.ambient.d
            if d == 1:
                continue
            if tree.mode == "strong":
                raise InternalInconsistency(
                    "a strong-mode resolution stopped on the singular "
                    "ambient %s" % (rec.ambient,))
            corrections.append(DeltaTerm(
                n, n.conjugacy_multiplicity * rec.branches * Rat(d - 1, 2 * d),
                rec))
    total = (sum((c for _, c in node_terms), Rat(0))
             + sum((c for _, c in corrections), Rat(0)))
    return DeltaBreakdown(total=total, node_terms=tuple(node_terms),
                          corrections=tuple(corrections))


def delta_w(tree: ResolutionTree) -> Rat:
    """delta of the resolved germ, orbifold-weighted at the tree's ambient."""
    return delta_breakdown(tree).total


def _leaf_count(tree: ResolutionTree) -> int:
    """Branches of the resolved germs at the tree's ambient, conjugate
    clusters counted point by point (on a quotient: branch orbits)."""
    return sum(n.conjugacy_multiplicity * rec.branches
               for n, rec in tree.leaves())


def delta_classical(f: SparsePoly, config=EngineConfig()) -> Rat:
    """delta of a reduced germ at a smooth point (an integer as a Rat)."""
    tree = resolve_germ(f, SMOOTH, config=replace(config, mode="plain"))
    val = delta_breakdown(tree).total
    if val.denominator != 1 or val < 0:
        raise InternalInconsistency(
            "classical delta came out as %s, not a non-negative integer"
            % (val,))
    return val


@dataclass(frozen=True)
class InvariantReport:
    germ: str
    ambient: QuotType
    mode: str
    transposed: bool
    delta_w: Rat
    mu_w: Rat
    r_w: int
    delta_classical: Rat
    mu_classical: int
    r_classical: int
    euler_orb: Rat
    breakdown: DeltaBreakdown        # the terms summing to delta_w
    warnings: tuple
    tree: ResolutionTree

    @property
    def per_node_contributions(self):
        """(node id, Rat) pairs, blow-ups then corrections."""
        return self.breakdown.per_node


def full_report(f: SparsePoly, ambient: QuotType,
                config=EngineConfig()) -> InvariantReport:
    """Resolve on the quotient and, when d > 1, once more upstairs at d = 1;
    assemble every invariant and re-check the identities binding them."""
    if len(f.vars) != 2:
        raise BadType("curve germs live in two variables, got %r" % (f.vars,))
    f = f.with_vars(("x", "y"))
    warnings = []
    transposed = False
    ok, _ = semi_invariance_check(f, ambient)
    if not ok:
        okT, _ = semi_invariance_check(f.permute_vars((1, 0)), ambient)
        if okT:
            f = f.permute_vars((1, 0))
            transposed = True
            warnings.append(
                "germ was not semi-invariant as written; its transpose "
                "(variable roles swapped) is, and was used instead")
    tree = resolve_germ(f, ambient, config=config)
    bd = delta_breakdown(tree)
    dw = bd.total
    r_w = _leaf_count(tree)
    d = ambient.d
    if d == 1:
        delta, r = dw, r_w
    else:
        up = resolve_germ(f, SMOOTH, config=EngineConfig(check_reduced=False))
        delta, r = delta_breakdown(up).total, _leaf_count(up)
    if delta.denominator != 1 or delta < 0:
        raise InternalInconsistency(
            "upstairs delta came out as %s, not a non-negative integer"
            % (delta,))
    mu = 2 * delta - r + 1
    mu_w = Rat(d - 1, d) + Rat(mu, d)
    if mu_w != 2 * dw - r_w + 1:
        raise InternalInconsistency(
            "Milnor identities disagree: (d-1)/d + mu/d = %s but "
            "2*delta_w - r_w + 1 = %s" % (mu_w, 2 * dw - r_w + 1))
    if dw != Rat(delta, d) + Rat(r_w - Rat(r, d), 2):
        raise InternalInconsistency(
            "delta identities disagree: delta_w = %s but delta/d + "
            "(r_w - r/d)/2 = %s" % (dw, Rat(delta, d) + Rat(r_w - Rat(r, d), 2)))
    for nid, c in bd.per_node:
        if c < 0:
            warnings.append(
                "node %d contributed the negative amount %s" % (nid, c))
    return InvariantReport(
        germ=str(f), ambient=ambient, mode=tree.mode, transposed=transposed,
        delta_w=dw, mu_w=mu_w, r_w=r_w, delta_classical=delta,
        mu_classical=int(mu), r_classical=r,
        euler_orb=r_w - 2 * dw, breakdown=bd,
        warnings=tuple(warnings), tree=tree)


def noether_intersection(C: SparsePoly, D: SparsePoly, ambient: QuotType,
                         config=EngineConfig()) -> Rat:
    """Local intersection number of two semi-invariant germs without common
    components: sum of nu_C * nu_D / (p q d) over a shared resolution."""
    C = C.with_vars(("x", "y"))
    D = D.with_vars(("x", "y"))
    _reject_common_component(C, D)
    tree = resolve_labels({"C": C, "D": D}, ambient, config)
    total = Rat(0)
    for n in tree.internal_nodes():
        b = n.blowup
        nc = b.nu_by_label.get("C", 0)
        nd = b.nu_by_label.get("D", 0)
        total += n.conjugacy_multiplicity * Rat(nc * nd,
                                                b.p * b.q * n.ambient.d)
    return total


def _reject_common_component(C: SparsePoly, D: SparsePoly):
    """CommonComponent unless Res_y of the non-axis parts is nonzero, which
    coprime images keeping their y-degree (poly.probe_images) prove."""
    if C.is_zero() or D.is_zero():
        raise CommonComponent("the zero germ shares every component")
    axC, ayC, gC = axis_split(C)
    axD, ayD, gD = axis_split(D)
    if (axC and axD) or (ayC and ayD):
        raise CommonComponent("both germs contain a coordinate axis")
    if gC.is_constant() or gD.is_constant():
        return
    if any(a and b and _coprime_images(a, b)
           for a, b in zip(probe_images(gC, 1), probe_images(gD, 1))):
        return
    if resultant(gC, gD, "y").is_zero():
        raise CommonComponent(
            "the germs share a factor (their resultant in y vanishes)")


def delta_additivity_check(C: SparsePoly, D: SparsePoly, ambient: QuotType,
                           config=EngineConfig()):
    """Both sides of delta_w(C*D) = delta_w(C) + delta_w(D) + (C.D)."""
    C = C.with_vars(("x", "y"))
    D = D.with_vars(("x", "y"))
    inter = noether_intersection(C, D, ambient, config)
    dC = delta_w(resolve_germ(C, ambient, config=config))
    dD = delta_w(resolve_germ(D, ambient, config=config))
    lhs = delta_w(resolve_germ(C * D, ambient, config=config))
    return lhs, dC + dD + inter


def monomial_colength(p: int, q: int, n: int) -> int:
    """Number of lattice points (i, j) >= 0 with p i + q j < p q n."""
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise ValueError("weights must be coprime positive integers")
    if n < 0:
        raise ValueError("n must be non-negative")
    num = p * q * n * (n + 1) - (p - 1) * (q - 1) * n
    if num % 2:
        raise InternalInconsistency("lattice count formula is not integral")
    return num // 2


def one_step_dim(f: SparsePoly, p: int, q: int) -> Rat:
    """Colength jump contributed by one weighted blow-up at a smooth point:
    nu(nu - p - q + 1)/(2pq), defined when pq divides nu."""
    nu = weighted_order(f, p, q)
    if nu % (p * q):
        raise NotMultiple(
            "the (%d,%d)-order %d of the germ is not a multiple of %d"
            % (p, q, nu, p * q))
    val = Rat(nu * (nu - p - q + 1), 2 * p * q)
    if val.denominator != 1 or val < 0:
        raise InternalInconsistency(
            "one-step dimension %s is not a non-negative integer" % (val,))
    return val


def report_to_dict(rep: InvariantReport):
    """The `qres germ --json` document (docs/FORMATS.md): invariants, then
    the trace of every term of delta_w in the order the breakdown sums
    them."""
    invariants = {
        "delta_w": str(rep.delta_w), "mu_w": str(rep.mu_w), "r_w": rep.r_w,
        "delta": str(rep.delta_classical), "mu": rep.mu_classical,
        "r": rep.r_classical, "euler_orb": str(rep.euler_orb),
    }
    blowups = []
    for term in rep.breakdown.node_terms:
        n, b = term.node, term.node.blowup
        blowups.append({"node": n.id, "ambient": str(n.ambient),
                        "weights": [b.p, b.q], "e": b.e, "nu": b.nu,
                        "cluster": n.conjugacy_multiplicity,
                        "contribution": str(term.contribution)})
    corrections = []
    for term in rep.breakdown.corrections:
        n, rec = term.node, term.leaf
        corrections.append({"node": n.id, "ambient": str(rec.ambient),
                            "kind": rec.kind, "label": rec.label,
                            "branches": rec.branches,
                            "cluster": n.conjugacy_multiplicity,
                            "contribution": str(term.contribution)})
    return {"schema_version": 1, "command": "germ", "germ": rep.germ,
            "ambient": str(rep.ambient), "mode": rep.mode,
            "transposed": rep.transposed, "invariants": invariants,
            "trace": {"blowups": blowups, "corrections": corrections},
            "warnings": list(rep.warnings)}
