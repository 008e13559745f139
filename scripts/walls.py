"""Run the inputs that users hit as walls, each in a process of its own, and
check their answers against answers found outside the path under test.

Usage:
    python3 scripts/walls.py [--tiny]

Each wall runs `python3 -m qres.cli ...` with this tree's `src` on the path,
under its own timeout and environment.  One line per wall gives its wall
time, its exit code and whether its answer matched; a summary line ends the
report.  The expected answers come from:

- closed forms: the germ (x+y)^n - y^(n+1) has delta n(n-1)/2;
- components: the genus of a product of k curves is the sum of the genera
  of its components minus (k - 1), each component run on its own first;
- the documented exit code 3, with its one error line, for a wall whose
  tower exceeds the default bound QRES_EXT_BOUND = 16.

Exit code 1 when a wall's answer is wrong (or a component gives none), 0
otherwise: a wall over its timeout is reported and does not fail the run.
--tiny runs only the walls that take a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPONENT_TIMEOUT = 60.0    # seconds for a component of a product

SIX_LINES = ["x0 + x1 + x2", "x0 + 2*x1 + 4*x2", "x0 + 3*x1 + 9*x2",
             "x0 + 4*x1 + 16*x2", "x0 + 5*x1 + 25*x2", "x0 + 6*x1 + 36*x2"]
TWO_LINES_THREE_CONICS = ["2*x0 -3*x1 -3*x2", "2*x0^2 + 2*x1^2 - 3*x2^2 +1*x0*x1",
                          "2*x0^2 + 1*x1^2 - 1*x2^2 -1*x0*x1",
                          "1*x0^2 + 1*x1^2 - 2*x2^2 +1*x0*x1", "-2*x0 -1*x1 +2*x2"]
QUARTICS = ["x0^4+x1^4+x2^4+x0^2*x1*x2", "x0^4+2*x1^4+5*x2^4+x0*x1^2*x2"]
LINE_THREE_CONICS = ["-3*x0^2 + 3*x1^2 - x2^2 - x0*x1 + 3*x1*x2", "3*x0 - x1 + 2*x2",
                     "-3*x0^2 + x1^2 + 3*x2^2 - 2*x0*x1 - 2*x0*x2 - 3*x1*x2",
                     "3*x0^2 + x1^2 - x2^2 + 2*x0*x1 + 3*x0*x2 + 2*x1*x2"]
P325 = ["3*x2^12 + x0^10*x1^15 - 3*x0*x1^26*x2 - x0^14*x1^9",
        "-3*x0^2*x1^7*x2^2 - 2*x0^10 + x1^10*x2^2 + 3*x0^3*x1^8*x2"]
# a weighted product whose two resultants spend most of their time in exact
# division (ROADMAP item 8); each component takes a fraction of a second
P471 = ["-2/3*x2^14 - 1*x1^1*x2^7 + 1*x0^2*x2^6 + 1/2*x1^2 + 3*x0^1*x2^10",
        "-2/3*x2^15 - 2*x0^2*x2^7 - 3*x0^1*x2^11 - 1*x1^1*x2^8 + 3*x0^2*x1^1"]


@dataclass
class Wall:
    """One command line and how to check it: the genus of a product of
    `components` on P(w), the delta of the ladder of `ladder`, or exit 3
    with the error line `overflow`."""

    name: str
    timeout: float
    tiny: bool
    w: str = "1,1,1"
    components: list = field(default_factory=list)
    ladder: int = 0
    overflow: str = ""
    env: dict = field(default_factory=dict)

    def argv(self):
        if self.ladder:
            n = self.ladder
            return ["germ", "(x+y)^%d - y^%d" % (n, n + 1), "--json"]
        return ["curve", "*".join("(%s)" % c for c in self.components),
                "--w", self.w, "--json"]


WALLS = [
    Wall("six-lines", 30, True, components=SIX_LINES),
    Wall("two-lines-three-conics", 30, True, components=TWO_LINES_THREE_CONICS),
    Wall("quartic-product", 30, True, components=QUARTICS),
    Wall("line-three-conics", 30, True, components=LINE_THREE_CONICS,
         overflow="error: tower degree 18 exceeds the bound 16"),
    Wall("line-three-conics-bound-32", 60, False, components=LINE_THREE_CONICS,
         env={"QRES_EXT_BOUND": "32"}),
    Wall("p325-product", 30, True, w="3,2,5", components=P325,
         overflow="error: tower degree 54 exceeds the bound 16"),
    Wall("p325-product-bound-200", 240, False, w="3,2,5", components=P325,
         env={"QRES_EXT_BOUND": "200"}),
    Wall("p471-product", 60, False, w="4,7,1", components=P471,
         overflow="error: tower degree 24 exceeds the bound 16"),
    Wall("p471-product-bound-64", 120, False, w="4,7,1", components=P471,
         env={"QRES_EXT_BOUND": "64"}),
    Wall("ladder-800", 30, True, ladder=800),
    Wall("ladder-3000", 120, False, ladder=3000),
]


def run_qres(argv, timeout, env=()):
    """(status, exit code, stdout, stderr, seconds) of one qres process;
    status is "done" or "timeout"."""
    full_env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    full_env.pop("QRES_EXT_BOUND", None)
    full_env.update(env)
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "qres.cli"] + argv, env=full_env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", None, "", "", time.perf_counter() - start
    return "done", proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def expected(wall):
    """The wall's expected answer, as (exit code, text): text is the genus
    or delta, or the error line of an exit 3; or None with the reason."""
    if wall.overflow:
        return (3, wall.overflow), ""
    if wall.ladder:
        n = wall.ladder
        return (0, str(n * (n - 1) // 2)), ""
    total = 1 - len(wall.components)
    for c in wall.components:
        status, rc, out, err, _ = run_qres(["curve", c, "--w", wall.w, "--json"],
                                           COMPONENT_TIMEOUT, wall.env)
        if status != "done" or rc != 0:
            return None, "component %r gave %s %s %s" % (c, status, rc, err.strip())
        total += int(json.loads(out)["genus"])
    return (0, str(total)), ""


def answer(wall, rc, out, err):
    """What the wall printed, as (exit code, text) comparable to expected."""
    if rc != 0:
        return rc, err.strip()
    doc = json.loads(out)
    return rc, doc["invariants"]["delta"] if wall.ladder else doc["genus"]


def run_walls(walls, emit=print):
    """Run each wall and emit its line; returns the counts of walls,
    matched, wrong, timeout, finished and the seconds of those finished."""
    counts = dict(walls=len(walls), matched=0, wrong=0, timeout=0, finished=0, s=0.0)
    for wall in walls:
        want, why = expected(wall)
        status, rc, out, err, s = run_qres(wall.argv(), wall.timeout, wall.env)
        if status == "timeout":
            counts["timeout"] += 1
            verdict = "over its timeout of %g s" % wall.timeout
        else:
            counts["finished"] += 1
            counts["s"] += s
            got = answer(wall, rc, out, err)
            if want is not None and got == want:
                counts["matched"] += 1
                verdict = "match (%s)" % got[1]
            else:
                counts["wrong"] += 1
                verdict = "WRONG: got %r, want %r" % (got, want if want else why)
        env = " ".join("%s=%s" % kv for kv in wall.env.items())
        emit("%-28s %8.2f s  exit %-4s %s%s" % (
            wall.name, s, rc, verdict, "  [%s]" % env if env else ""))
    return counts


def summary(counts, tiny) -> str:
    return ("walls%s: %d walls, %d matched, %d wrong, %d over their timeout; "
            "wall time over the %d walls that finished: %.2f s"
            % (" (tiny)" if tiny else "", counts["walls"], counts["matched"],
               counts["wrong"], counts["timeout"], counts["finished"], counts["s"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiny", action="store_true",
                    help="only the walls that take a few seconds")
    args = ap.parse_args(argv)
    counts = run_walls([w for w in WALLS if w.tiny or not args.tiny],
                       lambda line: print(line, flush=True))
    print(summary(counts, args.tiny))
    return 1 if counts["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
