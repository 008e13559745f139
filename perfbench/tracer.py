"""Spans around the package's layer functions, for the traced run only.

`Tracer.install()` replaces each layer function listed in LAYERS at every
module attribute of the package that is bound to it (the modules import
one another's functions by name, so one function may sit under several
attributes), and counts SplitEvent constructions by patching its
`__init__`.  `restore()` puts every original back.  Each call records a
span [id, parent id, name, start, end, op id, child time]; spans stay in
memory and are written out by the caller when the run ends.  A span's self
time is its duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# module -> layer functions wrapped there
LAYERS = {
    "poly": ("parse_poly", "resultant", "poly_gcd", "squarefree_part",
             "is_squarefree_two_vars", "content_in"),
    "exactnum": ("adjoin_root",),
    "quotsing": ("blowup_charts",),
    "resolve": ("resolve_labels", "tree_to_dict"),
    "invariants": ("full_report", "noether_intersection", "delta_breakdown"),
    "wproj": ("genus", "singular_locus", "_check_reduced"),
    "cli": ("main",),
}
MODULES = tuple(LAYERS)

ID, PARENT, NAME, START, END, OP, CHILD = range(7)


def _degree(p) -> int:
    return max((sum(e) for e in p.terms), default=0)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.maxima = Counter()
        self.ambient_d = {}         # span id -> d of the ambient type
        self._patches = []

    # -- patching ----------------------------------------------------------

    def install(self):
        from qres import exactnum
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "qres" or name.startswith("qres.")]
        for modname, funcs in LAYERS.items():
            home = sys.modules["qres." + modname]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapper = self._wrap("%s.%s" % (modname, fname), orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        split_cls = exactnum.SplitEvent
        orig_init = split_cls.__dict__["__init__"]
        counts = self.counts

        def init(ev, *a, **k):
            counts["exactnum.splits"] += 1
            orig_init(ev, *a, **k)
        self._patches.append((split_cls, "__init__", orig_init))
        split_cls.__init__ = init
        return self

    def restore(self):
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def start_op(self, op_id):
        self.op = op_id
        self.stack.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1][ID] if stack else None, name,
                    0.0, 0.0, self.op, 0.0]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = span[END] = clock()
                if stack and stack[-1] is span:
                    stack.pop()
                    if stack:
                        stack[-1][CHILD] += end - span[START]
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook_poly_resultant(self, span, args, kwargs, result):
        f, g, var = args[0], args[1], _arg(args, kwargs, 2, "var")
        size = f.degree_in(var) + g.degree_in(var)
        self.maxima["poly.resultant.sylvester_max"] = max(
            self.maxima["poly.resultant.sylvester_max"], size)

    def _hook_poly_poly_gcd(self, span, args, kwargs, result):
        deg = max(_degree(args[0]), _degree(args[1]))
        self.maxima["poly.poly_gcd.degree_max"] = max(
            self.maxima["poly.poly_gcd.degree_max"], deg)

    def _hook_poly_is_squarefree_two_vars(self, span, args, kwargs, result):
        self.counts["poly.is_squarefree_two_vars.true"] += bool(result)

    def _note_tower(self, degree):
        self.maxima["exactnum.tower_degree_max"] = max(
            self.maxima["exactnum.tower_degree_max"], degree)

    def _hook_resolve_resolve_labels(self, span, args, kwargs, result):
        self.ambient_d[span[ID]] = _arg(args, kwargs, 1, "ambient").d
        nodes = list(result.iter_nodes())
        self.counts["resolve.nodes"] += len(nodes)
        self.maxima["resolve.depth_max"] = max(
            self.maxima["resolve.depth_max"], max(n.depth for n in nodes))
        self._note_tower(max(n.field.degree for n in nodes))

    def _hook_invariants_full_report(self, span, args, kwargs, result):
        self.ambient_d[span[ID]] = _arg(args, kwargs, 1, "ambient").d

    def _hook_wproj_singular_locus(self, span, args, kwargs, result):
        self.counts["wproj.points"] += len(result)
        for sp in result:
            self.maxima["wproj.cluster_max"] = max(
                self.maxima["wproj.cluster_max"], sp.multiplicity)
            self._note_tower(sp.point.field.degree)

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, total self seconds)."""
        calls, self_s = Counter(), defaultdict(float)
        for s in self.spans:
            calls[s[NAME]] += 1
            self_s[s[NAME]] += s[END] - s[START] - s[CHILD]
        return calls, self_s

    def _ancestor(self, span, name):
        pid = span[PARENT]
        while pid is not None:
            p = self.spans[pid]
            if p[NAME] == name:
                return p
            pid = p[PARENT]
        return None

    def resolutions_per_report(self):
        """Resolutions on the smooth type made inside full_report, per
        full_report call on a type with d > 1."""
        reports = [s for s in self.spans if s[NAME] == "invariants.full_report"
                   and self.ambient_d.get(s[ID], 1) > 1]
        if not reports:
            return 0.0
        ids = {s[ID] for s in reports}
        upstairs = 0
        for s in self.spans:
            if s[NAME] == "resolve.resolve_labels" \
                    and self.ambient_d.get(s[ID]) == 1:
                rep = self._ancestor(s, "invariants.full_report")
                upstairs += rep is not None and rep[ID] in ids
        return upstairs / len(reports)

    def checks_per_genus(self):
        genera = sum(1 for s in self.spans if s[NAME] == "wproj.genus")
        if not genera:
            return 0.0
        checks = sum(1 for s in self.spans if s[NAME] == "wproj._check_reduced"
                     and self._ancestor(s, "wproj.genus") is not None)
        return checks / genera
