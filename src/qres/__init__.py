"""Exact invariants of curve germs on cyclic quotient surface points.

The pipeline: parse an equation (`poly`), pick the ambient quotient type
(`quotsing`), resolve by weighted blow-ups over a lazily split tower of
number fields (`exactnum`, `resolve`), read off delta/Milnor/branch data
(`invariants`), and assemble curve-level genus reports on weighted
projective planes (`wproj`).  `cli` and `checks` wrap it all for the
command line.  Everything is exact; there is no floating point anywhere.
"""

from .errors import (BadType, CommonComponent, DegeneratePolygon,
                     DivisionByZero, ExtensionOverflow, InternalInconsistency,
                     NonDivisibleExponent, NonExactDivision, NotInvertible,
                     NotMultiple, NotQuasiHomogeneous, NotReduced,
                     NotSemiInvariant, NotSquarefree, PointNotOnCurve,
                     PolySyntaxError, QresError, ResolutionDepthExceeded,
                     UnitGerm, UnknownVariable, ZeroPolynomial)
from .exactnum import ExtField, Rat, SplitEvent
from .poly import (SparsePoly, newton_polygon, parse_poly, resultant,
                   squarefree_part, weighted_order)
from .quotsing import (SMOOTH, BlowupCharts, QuotType, blowup_charts,
                       exceptional_data, is_normalized, normalize_type,
                       parse_type, types_isomorphic)
from .resolve import (EngineConfig, ResolutionTree, resolve_germ,
                      resolve_labels, semi_invariance_check, tree_to_dict,
                      tree_to_dot)
from .invariants import (DeltaBreakdown, DeltaTerm, InvariantReport,
                         delta_additivity_check, delta_breakdown,
                         delta_classical, delta_w, full_report,
                         monomial_colength, noether_intersection,
                         one_step_dim, report_to_dict)
from .wproj import (GenusReport, ProjPoint, SingularPoint, Weights, bezout,
                    genus, localize, normalize_weights, parse_weights,
                    singular_locus, smoothness_certificate, virtual_genus,
                    wdegree)
from .checks import CheckResult, run_suite

__version__ = "0.1.0"
