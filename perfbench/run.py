#!/usr/bin/env python3
"""qres benchmark: three seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload germ-report --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the package is imported from
./src.  One process runs one workload: it sets the workload up several
times (import, corpus generation, input certification) and keeps the
median, then runs whole passes over the corpus, one op after another,
until --seconds have gone by.  Each op runs under a per-op budget set by a
timer signal; an op over budget, one that raises, or one whose answer
differs from the expected one counts as failed, and the run goes on.  Any
failure other than an op over budget makes the run incorrect, and the
command then exits with code 1 after printing its result.

The end-to-end times are scaled to a nominal machine speed, measured by a
fixed slice of work run after every op (see speed.py); the times as
measured are printed and saved beside them.

With --trace 0 the last line carries the end-to-end metrics.  With --trace
1 untraced and traced passes alternate (see tracer.py), and the last line
carries the per-layer metrics, per traced pass.  Everything printed is
also written to perfbench/results/.  `--workload all` runs each workload in
its own process and prints one table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.dont_write_bytecode = True

import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

# A run with --trace 0 times at least this many ops, so that p90 has at
# least 10 samples beyond it.
MIN_SAMPLES = 100

# Set-up runs at least 5 times, and up to 25 while the total stays under 2.5 s.
SETUP_REPEATS = (5, 25, 2.5)
SETUP_SLICES = 5    # speed slices run before and after each set-up

END_TO_END = (
    ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (metric, unit); "<f>.calls" and "<f>.self_s" read the spans of f
PER_LAYER = (
    ("poly.parse_poly.self_s", "s"),
    ("poly.resultant.calls", "count"), ("poly.resultant.self_s", "s"),
    ("poly.resultant.sylvester_max", "count"),
    ("poly.poly_gcd.calls", "count"), ("poly.poly_gcd.self_s", "s"),
    ("poly.poly_gcd.degree_max", "count"),
    ("poly.squarefree_part.self_s", "s"),
    ("poly.is_squarefree_two_vars.calls", "count"),
    ("poly.is_squarefree_two_vars.self_s", "s"),
    ("poly.is_squarefree_two_vars.true_ratio", "ratio"),
    ("poly.content_in.self_s", "s"),
    ("exactnum.adjoin_root.calls", "count"),
    ("exactnum.adjoin_root.self_s", "s"),
    ("exactnum.splits", "count"), ("exactnum.tower_degree_max", "count"),
    ("quotsing.blowup_charts.calls", "count"),
    ("quotsing.blowup_charts.self_s", "s"),
    ("resolve.resolve_labels.calls", "count"),
    ("resolve.resolve_labels.self_s", "s"),
    ("resolve.nodes", "count"), ("resolve.depth_max", "count"),
    ("resolve.tree_to_dict.self_s", "s"),
    ("invariants.full_report.self_s", "s"),
    ("invariants.resolutions_per_report", "ratio"),
    ("invariants.noether_intersection.self_s", "s"),
    ("invariants.delta_breakdown.self_s", "s"),
    ("wproj.genus.self_s", "s"), ("wproj.singular_locus.self_s", "s"),
    ("wproj.squarefree_checks_per_genus", "ratio"),
    ("wproj.points", "count"), ("wproj.cluster_max", "count"),
    ("cli.main.self_s", "s"), ("cli.output_bytes", "bytes"),
) + tuple(("%s.self_share" % m, "ratio") for m in MODULES + ("other",)) + (
    ("trace.overhead_ratio", "ratio"), ("trace.spans", "count"),
    ("wall.ops_per_s", "1/s"), ("wall.latency_p50_ms", "ms"),
    ("wall.latency_p90_ms", "ms"), ("machine.speed_ratio", "ratio"))


# ---------------------------------------------------------------------------
# environment


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qres")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(seed):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "loadavg": list(os.getloadavg()),
            "git_commit": _git_commit(), "source_sha256": source_digest(),
            "seed": seed, "QRES_EXT_BOUND": os.environ.get("QRES_EXT_BOUND")}


# ---------------------------------------------------------------------------
# set-up


def _fresh_import():
    for name in [n for n in sys.modules
                 if n == "qres" or n.startswith("qres.")]:
        del sys.modules[name]
    import qres
    if not os.path.abspath(qres.__file__).startswith(SRC + os.sep):
        raise ImportError("qres came from %s, not %s" % (qres.__file__, SRC))


class SetupClock:
    """Times the steps of one set-up, each at the nominal speed: a speed
    slice runs after every step, SETUP_SLICES more before the first and
    after the last, and a step is scaled by the slices around it."""

    def __init__(self):
        self.walls = []
        self.slices = [speed.slice_s() for _ in range(SETUP_SLICES)]

    def step(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.walls.append(time.perf_counter() - t0)
        self.slices.append(speed.slice_s())
        return out

    def times(self):
        """(scaled s, wall s)."""
        self.slices += [speed.slice_s() for _ in range(SETUP_SLICES - 1)]
        ratios = speed.ratios(self.slices)[SETUP_SLICES:]  # after each step
        return (sum(w * r for w, r in zip(self.walls, ratios)),
                sum(self.walls))


def setup(workload, seed, tiny):
    """One set-up (import, corpus generation, input certification) and its
    time: (program, items, (scaled s, wall s))."""
    gc.collect()      # the previous set-up's modules are garbage now
    clock = SetupClock()
    clock.step(_fresh_import)
    items = clock.step(lambda: wl.build_corpus(
        workload, seed, wl.load_reference(), tiny))
    prog = clock.step(wl.Program)
    if workload == "tower-resolve":
        for text in sorted({item["args"][0] for item in items}):
            clock.step(prog.certify, text)
    return prog, items, clock.times()


# ---------------------------------------------------------------------------
# running


def run_one(prog, item, budget):
    """(latency in s, answer or None, failure or None).  A failure is a pair
    (kind, text); only kind "budget" leaves the run's answers correct."""
    clock = time.perf_counter
    t0 = clock()
    try:
        with wl.budget(budget):
            raw = prog.call(item)
            t1 = clock()
    except wl.OverBudget:
        return clock() - t0, None, ("budget", "over the %g s budget" % budget)
    except Exception as exc:   # any raise is a failed op; the run goes on
        return clock() - t0, None, ("raised", "raised %s: %s" % (
            type(exc).__name__, str(exc)[:200]))
    try:
        ans = wl.answer(item, raw)
    except Exception as exc:
        return t1 - t0, None, ("unreadable", "unreadable answer: %s: %s" % (
            type(exc).__name__, str(exc)[:200]))
    bad = wl.mismatch(item, ans)
    return t1 - t0, ans, bad and ("wrong", bad)


class Tally:
    def __init__(self):
        self.latencies = []
        self.over = []      # per op: stopped by the budget
        self.slices = []    # per op: the speed slice run after it
        self.failed = 0
        self.wrong = 0      # failed ops other than those over budget
        self.failures = {}
        self.pass_s = []
        self.output_bytes = []

    def record(self, item, latency, ans, failure):
        self.latencies.append(latency)
        self.over.append(failure is not None and failure[0] == "budget")
        if ans is not None and "bytes" in ans:
            self.output_bytes.append(ans["bytes"])
        if failure is None:
            return
        kind, text = failure
        self.failed += 1
        self.wrong += kind != "budget"
        key = "%s %s: %s" % (item["kind"], json.dumps(item["args"]), text)
        self.failures[key] = self.failures.get(key, 0) + 1


def run_passes(prog, items, budget, seconds, untraced, tracer=None,
               traced=None, min_ops=0):
    """Whole passes over `items` until `seconds` have gone by and at least
    `min_ops` untraced ops have run.  With a tracer, untraced and traced
    passes alternate, so both see the same drift in the machine's speed,
    and at least one of each runs."""
    start = time.perf_counter()
    least = 1 if tracer is None else 2
    n = 0
    while n < least or len(untraced.latencies) < min_ops or \
            time.perf_counter() - start < seconds:
        on = tracer is not None and n % 2 == 1
        tally = traced if on else untraced
        pass_time = 0.0
        if on:
            tracer.install()
        try:
            for i, item in enumerate(items):
                if on:
                    tracer.start_op("%d/%d" % (len(tally.pass_s), i))
                latency, ans, failure = run_one(prog, item, budget)
                pass_time += latency
                tally.record(item, latency, ans, failure)
                tally.slices.append(speed.slice_s())
        finally:
            if on:
                tracer.restore()
        tally.pass_s.append(pass_time)
        n += 1


def _nearest_rank(sorted_vals, percent):
    rank = -(-len(sorted_vals) * percent // 100)     # ceil, in integers
    return sorted_vals[max(rank, 1) - 1]


def scaled_latencies(tally):
    """Op latencies at the nominal speed (see speed.py).  An op stopped by
    the budget keeps its wall time: the timer, not the machine, set it."""
    return [lat if over else lat * r for lat, over, r in zip(
        tally.latencies, tally.over, speed.ratios(tally.slices))]


def op_metrics(latencies, failed):
    lat = sorted(latencies)
    return {"ops_per_s": (len(lat) - failed) / sum(lat),
            "latency_p50_ms": 1000 * _nearest_rank(lat, 50),
            "latency_p90_ms": 1000 * _nearest_rank(lat, 90)}


def end_to_end(tally, setups):
    out = op_metrics(scaled_latencies(tally), tally.failed)
    out["setup_s"] = statistics.median(s for s, _ in setups)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def wall_metrics(tally, setups):
    """The end-to-end times as measured, before scaling."""
    out = op_metrics(tally.latencies, tally.failed)
    out["setup_s"] = statistics.median(wall for _, wall in setups)
    out["speed_ratio"] = speed.ratio(tally.slices)
    return out


def per_layer(tracer, traced, untraced):
    passes = len(traced.pass_s)
    calls, self_s = tracer.self_times()
    out = {}
    for name, _ in PER_LAYER:
        base, _, leaf = name.rpartition(".")
        if leaf == "calls":
            out[name] = calls[base] / passes
        elif leaf == "self_s":
            out[name] = self_s[base] / passes
    c, mx = tracer.counts, tracer.maxima
    sq_calls = calls["poly.is_squarefree_two_vars"]
    out["poly.is_squarefree_two_vars.true_ratio"] = (
        c["poly.is_squarefree_two_vars.true"] / sq_calls if sq_calls else 0.0)
    for name in ("poly.resultant.sylvester_max", "poly.poly_gcd.degree_max",
                 "exactnum.tower_degree_max", "resolve.depth_max",
                 "wproj.cluster_max"):
        out[name] = float(mx[name])
    for name in ("exactnum.splits", "resolve.nodes", "wproj.points"):
        out[name] = c[name] / passes
    out["invariants.resolutions_per_report"] = tracer.resolutions_per_report()
    out["wproj.squarefree_checks_per_genus"] = tracer.checks_per_genus()
    out["cli.output_bytes"] = (statistics.mean(traced.output_bytes)
                               if traced.output_bytes else 0.0)
    total = sum(traced.pass_s)
    shares = {m: 0.0 for m in MODULES}
    for name, s in self_s.items():
        shares[name.split(".")[0]] += s / total
    for m in MODULES:
        out["%s.self_share" % m] = shares[m]
    out["other.self_share"] = 1.0 - sum(shares.values())
    out["trace.overhead_ratio"] = (statistics.mean(traced.pass_s)
                                   / statistics.mean(untraced.pass_s))
    out["trace.spans"] = len(tracer.spans) / passes
    wall = op_metrics(untraced.latencies, untraced.failed)
    for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms"):
        out["wall." + name] = wall[name]
    out["machine.speed_ratio"] = speed.ratio(untraced.slices)
    return {name: out[name] for name, _ in PER_LAYER}


def _write_spans(path, tracer):
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"id": s[0], "parent": s[1], "name": s[2],
                                 "start": s[3], "end": s[4], "op": s[5],
                                 "self": s[4] - s[3] - s[6]}) + "\n")


def run_workload(workload, seed, seconds, trace, tiny=False):
    least, most, total_s = (1, 1, 0.0) if tiny else SETUP_REPEATS
    setups = []
    while len(setups) < least or (len(setups) < most and sum(
            wall for _, wall in setups) < total_s):
        prog, items, times = setup(workload, seed, tiny)
        setups.append(times)
    budget = wl.BUDGET_S[workload]
    untraced = Tally()
    result = {"workload": workload, "environment": environment(seed),
              "ops_per_pass": len(items), "setup_repeats": len(setups)}
    tallies = [untraced]
    if trace:
        traced, tracer = Tally(), Tracer()
        run_passes(prog, items, budget, seconds, untraced, tracer, traced)
        tallies.append(traced)
        metrics = per_layer(tracer, traced, untraced)
        units = dict(PER_LAYER)
        os.makedirs(RESULTS, exist_ok=True)
        _write_spans(os.path.join(RESULTS, "spans-%s-s%d.jsonl"
                                  % (workload, seed)), tracer)
    else:
        run_passes(prog, items, budget, seconds, untraced,
                   min_ops=0 if tiny else MIN_SAMPLES)
        metrics = end_to_end(untraced, setups)
        units = dict(END_TO_END)
    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    failures = {}
    for t in tallies:
        for k, v in t.failures.items():
            failures[k] = failures.get(k, 0) + v
    result.update({
        "wall": wall_metrics(untraced, setups),
        "passes": [len(t.pass_s) for t in tallies],
        "latency_samples": len(untraced.latencies),
        "fail_ratio": failed / attempted,
        "correct": not any(t.wrong for t in tallies),
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}})
    return result


# ---------------------------------------------------------------------------
# reporting


def report_lines(res):
    env = res["environment"]
    lines = ["# environment %s" % json.dumps(env, sort_keys=True)]
    if env["QRES_EXT_BOUND"] is not None:
        lines.append("# WARNING: QRES_EXT_BOUND=%s is set; it changes which "
                     "inputs overflow the tower bound" % env["QRES_EXT_BOUND"])
    lines.append("# %s: %d ops per pass, passes %s, %d latency samples, "
                 "set-up repeated %d times"
                 % (res["workload"], res["ops_per_pass"], res["passes"],
                    res["latency_samples"], res["setup_repeats"]))
    for name, m in res["metrics"].items():
        lines.append("%-42s %16.6f %s" % (name, m["value"], m["unit"]))
    lines.append("# as measured, before scaling to the nominal speed: %s"
                 % json.dumps(res["wall"], sort_keys=True))
    lines.append("%-42s %16.6f ratio  (%d failed of %d attempted)"
                 % ("fail_ratio", res["fail_ratio"], res["failed"],
                    res["attempted"]))
    for key, n in sorted(res["failures"].items()):
        lines.append("# failed x%d: %s" % (n, key))
    return lines


def _save(res, trace):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-s%d-t%d.json"
                        % (res["workload"], res["environment"]["seed"], trace))
    with open(path, "w") as fh:
        json.dump(res, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_all(args):
    """Each workload in its own process (so peak RSS is its own)."""
    results, status = [], 0
    for workload in wl.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):     # 1: ran, but not correct
            status = 1
            continue
        path = os.path.join(RESULTS, "%s-s%d-t%d.json"
                            % (workload, args.seed, args.trace))
        with open(path) as fh:
            results.append(json.load(fh))
    print("\n%-14s %-40s %16s %-6s %s" % ("workload", "metric", "value",
                                          "unit", "samples"))
    for res in results:
        samples = {"setup_s": res["setup_repeats"],
                   "ops_per_s": res["latency_samples"],
                   "latency_p50_ms": res["latency_samples"],
                   "latency_p90_ms": res["latency_samples"]}
        for name, unit in PER_LAYER if args.trace else END_TO_END:
            print("%-14s %-40s %16.6f %-6s %s" % (
                res["workload"], name, res["metrics"][name]["value"], unit,
                samples.get(name, "")))
        print("%-14s %-40s %16.6f %-6s %d" % (
            res["workload"], "fail_ratio", res["fail_ratio"], "ratio",
            res["attempted"]))
        status |= not res["correct"]
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=wl.POOL_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few items of each kind and one pass; for the "
                         "benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qres", "__init__.py")):
        print("error: no qres sources under %s; run from the root of a "
              "source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    res = run_workload(args.workload, args.seed, args.seconds, args.trace,
                       args.tiny)
    _save(res, args.trace)
    for line in report_lines(res):
        print(line)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
