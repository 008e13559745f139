"""Regenerate reference.json: the input pools and their recorded answers.

    python3 perfbench/record_reference.py

Run it only at a commit whose answers are trusted; the file it writes is
what later commits are checked against.  Pools are drawn from POOL_SEED,
so rerunning it at the same commit gives the same inputs and answers.  The
recorded costs are used only to pick samples; they are times at the
nominal speed of speed.py, but still change a little with the machine.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import speed
import workloads as wl

ROOT = os.path.dirname(wl.HERE)
# germs and pairs: per half (smooth, quotient); curves: per class
POOL_SIZES = {"germs": 200, "nonreduced": 100, "pairs": 100, "towers": 120,
              "curves": 12}
CAP_S = 3.0     # recorded costs of non-reduced inputs are cut off here


def _commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _scaled(call):
    """call()'s result and its time at the nominal speed (see speed.py)."""
    slices = [speed.slice_s() for _ in range(3)]
    t0 = time.perf_counter()
    try:
        result = call()
    finally:
        wall = time.perf_counter() - t0
    slices += [speed.slice_s() for _ in range(3)]
    return result, wall * speed.ratio(slices)


def _timed(prog, item, repeat=3):
    """The raw result and the least of `repeat` scaled timings."""
    best = float("inf")
    for _ in range(repeat):
        raw, cost = _scaled(lambda: prog.call(item))
        best = min(best, cost)
    return raw, best


def _nonreduced(prog, rng, types):
    """f*g^2 with f from the check-suite distribution and g small; the
    answer is exit code 2 whatever the cost, so only the cost is kept."""
    out, seen = [], set()
    while len(out) < POOL_SIZES["nonreduced"]:
        t = rng.choice(types)
        tt = wl.parse_type_text(t)
        f = wl.random_semi_invariant_text(rng, tt)
        g = wl.random_semi_invariant_text(rng, tt, degmax=3, terms=(1, 2))
        text = "(%s)*(%s)^2" % (f, g)
        if text in seen:
            continue
        seen.add(text)
        try:
            with wl.budget(CAP_S):
                _, cost = _scaled(
                    lambda: prog.call({"kind": "germ", "args": [text, t]}))
        except wl.OverBudget:
            cost = CAP_S
        out.append({"f": text, "type": t, "cost_s": round(cost, 6)})
    return out


def _germs(prog, rng, types):
    out, seen = [], set()
    quotient = [t for t in types if t != "X(1;0,0)"]
    for half in ("smooth", "quotient"):
        while sum(g["half"] == half for g in out) < POOL_SIZES["germs"]:
            t = "X(1;0,0)" if half == "smooth" else rng.choice(quotient)
            f = wl.random_semi_invariant_text(rng, wl.parse_type_text(t))
            f_poly = prog.poly.parse_poly(f, ("x", "y"))
            if (f, t) in seen or not prog.poly.is_squarefree_two_vars(f_poly):
                continue
            seen.add((f, t))
            item = {"kind": "germ", "args": [f, t]}
            raw, cost = _timed(prog, item)
            ans = wl.answer(item, raw)
            ans.pop("bytes")
            out.append({"half": half, "f": f, "type": t, "expect": ans,
                        "cost_s": round(cost, 6)})
    return out


def _pairs(prog, rng, types):
    out = []
    quotient = [t for t in types if t != "X(1;0,0)"
                and wl.parse_type_text(t)[0] <= 5]
    from qres.errors import QresError
    for half in ("smooth", "quotient"):
        while sum(p["half"] == half for p in out) < POOL_SIZES["pairs"]:
            if half == "smooth":
                t = "X(1;0,0)"
                C, D = wl.unit_slice_text(rng), wl.unit_slice_text(rng)
            else:
                t = rng.choice(quotient)
                tt = wl.parse_type_text(t)
                C, D = (wl.random_semi_invariant_text(
                    rng, tt, degmax=5, terms=(2, 3), coeff=3)
                    for _ in range(2))
            item = {"kind": "pair", "args": [C, D, t]}
            try:
                raw, cost = _timed(prog, item)
            except QresError:
                continue    # shared component or non-reduced: not a pair
            out.append({"half": half, "C": C, "D": D, "type": t,
                        "expect": wl.answer(item, raw),
                        "cost_s": round(cost, 6)})
    return out


def _towers(prog, rng):
    out, seen = [], set()
    while len(out) < POOL_SIZES["towers"]:
        f = wl.tower_germ_text(rng)
        if f in seen:
            continue
        seen.add(f)
        try:
            prog.certify(f)
        except ValueError:
            continue
        item = {"kind": "resolve", "args": [f, "X(1;0,0)", "plain"]}
        expect, cost = {}, 0.0
        for mode in ("plain", "strong"):
            item["args"][2] = mode
            raw, dt = _timed(prog, item)
            expect[mode] = wl.answer(item, raw)
            cost += dt
        out.append({"f": f, "expect": expect, "cost_s": round(cost, 6)})
    return out


def _curves(prog, rng):
    """Per class, draws whose genus matches the oracle, with their cost.
    The others are degenerate draws (reducible, or singular in the torus),
    where the Baker count does not hold; they are listed apart and never
    run."""
    pools, dropped = {}, {}
    for key in wl.CURVE_CLASSES:
        name = wl.curve_class_name(key)
        want = str(wl.curve_oracle(key))
        pools[name], dropped[name] = [], []
        while len(pools[name]) < POOL_SIZES["curves"]:
            F = wl.curve_text(rng, key)
            item = {"kind": "curve", "args": [F, "%d,%d,%d" % key[0]]}
            raw, cost = _timed(prog, item)
            got = wl.answer(item, raw).get("genus")
            if got == want:
                pools[name].append({"F": F, "cost_s": round(cost, 6)})
            else:
                dropped[name].append({"F": F, "genus": got, "oracle": want})
    return pools, {k: v for k, v in dropped.items() if v}


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qres.checks import normalized_types
    prog = wl.Program()
    types = [wl.type_text((t.d, t.a, t.b)) for t in normalized_types(6)]
    rng = random.Random("pools/%d" % wl.POOL_SEED)
    ref = {"recorded_at": _commit(), "pool_seed": wl.POOL_SEED,
           "types": types}
    ref["germs"] = _germs(prog, rng, types)
    ref["nonreduced"] = _nonreduced(prog, rng, types)
    ref["pairs"] = _pairs(prog, rng, types)
    ref["towers"] = _towers(prog, rng)
    ref["curves"], ref["curves_dropped"] = _curves(prog, rng)
    with open(wl.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for key in ("germs", "nonreduced", "pairs", "towers"):
        costs = sorted(e["cost_s"] for e in ref[key])
        print("%-6s %4d inputs, cost median %.4f s, max %.4f s"
              % (key, len(costs), costs[len(costs) // 2], costs[-1]))
    print("curves %d classes, %d degenerate draws dropped"
          % (len(ref["curves"]), sum(map(len, ref["curves_dropped"].values()))))


if __name__ == "__main__":
    main()
