"""Run one seeded corpus of command lines through two source trees and
compare what they print.

Usage:
    python3 scripts/differential.py --against REV [--seed N]

REV (any git revision) is checked out with `git worktree` into a temporary
directory, which needs no network, and removed afterwards.  Each tree runs
the corpus through `qres.cli.main`, with its own `src` on the path.  The
corpus is cut into BLOCKS blocks, and each block runs in one tree and then
in the other, in a process per tree and block, so the trees never share
the CPUs; the tree that goes first alternates from block to block, so a
drift in the machine's speed falls on both.  The corpus is built once, in
this tree:

- every argv of the golden tests (tests/test_golden.py);
- the three perfbench corpora at the seed.
  Germ and curve items run as `qres germ` / `qres curve --json`, resolve
  items as `qres resolve --json -`, and a pair (C, D) as the germ of the
  product C*D, whose delta_w carries the intersection number of C and D;
- ARRANGEMENTS seeded arrangements of 3 or 4 lines and conics on
  P(1,1,1), which reach tower splits in the singular-locus search.

A timer signal stops a case after TIMEOUT seconds of wall time.  The
report counts identical cases, cases whose stdout, stderr or exit code
differ, and cases stopped on both sides or on one, and gives each tree's
total wall time over the cases done on both sides; then it shows the first
SHOW differences.  Exit code 0 when every case is identical or stopped on
both sides, 1 otherwise: a case stopped on one side only is a slowdown (or
a speed-up) too large to call equal.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shlex
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 20.0          # seconds of wall time per case
ARRANGEMENTS = 40
BLOCKS = 8
SHOW = 5


def arrangement(rng) -> str:
    """3 or 4 distinct lines and smooth conics on P(1,1,1)."""
    k = rng.choice([3, 4])
    parts = []
    while len(parts) < k:
        if rng.random() < 0.7:
            c = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
            part = "(%d*x0 %+d*x1 %+d*x2)" % c
        else:
            # a x0^2 + b x1^2 - c x2^2 + s x0 x1 is smooth: 4ab != 1, c != 0
            c = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3),
                 rng.choice([-1, 1]))
            part = "(%d*x0^2 + %d*x1^2 - %d*x2^2 %+d*x0*x1)" % c
        if part not in parts:
            parts.append(part)
    return "*".join(parts)


def build_corpus(seed: int, arrangements: int, tiny: bool):
    for sub in ("tests", "perfbench"):
        if os.path.join(ROOT, sub) not in sys.path:
            sys.path.insert(0, os.path.join(ROOT, sub))
    import test_golden
    import workloads

    corpus = [list(argv) for _, argv in test_golden.CASES]
    ref = workloads.load_reference()
    for name in workloads.WORKLOADS:
        for item in workloads.build_corpus(name, seed, ref, tiny=tiny):
            args = item["args"]
            if item["kind"] == "germ":
                corpus.append(["germ", args[0], "--type", args[1], "--json"])
            elif item["kind"] == "curve":
                corpus.append(["curve", args[0], "--w", args[1], "--json"])
            elif item["kind"] == "pair":
                corpus.append(["germ", "(%s)*(%s)" % (args[0], args[1]),
                               "--type", args[2], "--json"])
            else:
                corpus.append(["resolve", args[0], "--type", args[1],
                               "--mode", args[2], "--json", "-"])
    rng = random.Random("arrangements/%d" % seed)
    for _ in range(arrangements):
        corpus.append(["curve", arrangement(rng), "--w", "1,1,1"])
    return corpus


# ---------------------------------------------------------------------------
# the worker: runs in a tree of its own


class _Stopped(BaseException):
    """Raised by the case timer; no handler in the program catches it."""


def _stop(signum, frame):
    raise _Stopped()


def run_cases(corpus):
    import qres
    from qres.cli import main

    if not os.path.abspath(qres.__file__).startswith(os.getcwd() + os.sep):
        raise RuntimeError("qres was imported from %s, not from the tree "
                           "in %s" % (qres.__file__, os.getcwd()))

    signal.signal(signal.SIGALRM, _stop)
    results = []
    for argv in corpus:
        out, err = io.StringIO(), io.StringIO()
        status, rc = "done", None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, TIMEOUT)
                try:
                    rc = main(list(argv))
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except _Stopped:
            status = "stopped"
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:          # a traceback is an outcome too
            status = "raised %s: %s" % (type(exc).__name__, exc)
        results.append({"status": status, "rc": rc, "out": out.getvalue(),
                        "err": err.getvalue(),
                        "s": time.perf_counter() - start})
    return results


def worker(corpus_path, out_path):
    results = run_cases(load(corpus_path))
    with open(out_path, "w") as fh:
        json.dump(results, fh)


# ---------------------------------------------------------------------------
# comparison


def first_difference(a: str, b: str) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return "line %d: %r != %r" % (i + 1, x[:120], y[:120])
    return "line %d: one side ends (%d lines vs %d)" % (
        min(len(la), len(lb)) + 1, len(la), len(lb))


def compare(corpus, theirs, ours):
    """(counts, details): details lists (argv, text) for every differing
    or one-sidedly stopped case.  timed counts the cases done on both
    sides, and s_theirs and s_ours sum their wall times."""
    counts = dict(cases=len(corpus), identical=0, differ=0, stdout=0,
                  stderr=0, exit_code=0, stopped_both=0, stopped_one=0,
                  timed=0, s_theirs=0.0, s_ours=0.0)
    details = []
    for argv, a, b in zip(corpus, theirs, ours):
        if a["status"] == b["status"] == "done":
            counts["timed"] += 1
            counts["s_theirs"] += a["s"]
            counts["s_ours"] += b["s"]
        stopped = (a["status"] == "stopped", b["status"] == "stopped")
        if all(stopped):
            counts["stopped_both"] += 1
            continue
        if any(stopped):
            counts["stopped_one"] += 1
            details.append((argv, "stopped only %s" % (
                "against the revision" if stopped[0] else "in this tree")))
            continue
        diffs = []
        if a["status"] != b["status"] or a["rc"] != b["rc"]:
            counts["exit_code"] += 1
            diffs.append("exit %s (%s) != %s (%s)" % (
                a["rc"], a["status"], b["rc"], b["status"]))
        for key, name in (("out", "stdout"), ("err", "stderr")):
            if a[key] != b[key]:
                counts[name] += 1
                diffs.append("%s %s" % (name, first_difference(a[key],
                                                              b[key])))
        if diffs:
            counts["differ"] += 1
            details.append((argv, "; ".join(diffs)))
        else:
            counts["identical"] += 1
    return counts, details


def summary(rev, counts, seed) -> str:
    return ("differential against %s: %d cases, %d identical, %d differ "
            "(stdout %d, stderr %d, exit code %d), %d stopped on both sides, "
            "%d on one side (seed %d, %g s per case); wall time over the %d "
            "cases done on both sides: %.2f s against %s, %.2f s in this tree"
            % (rev, counts["cases"], counts["identical"], counts["differ"],
               counts["stdout"], counts["stderr"], counts["exit_code"],
               counts["stopped_both"], counts["stopped_one"], seed, TIMEOUT,
               counts["timed"], counts["s_theirs"], rev, counts["s_ours"]))


def load(path):
    with open(path) as fh:
        return json.load(fh)


def run_tree(tree, corpus_path, out_path):
    """The results of the corpus at corpus_path, run by a worker in tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    if subprocess.run([sys.executable, os.path.abspath(__file__), "--worker",
                       corpus_path, out_path], cwd=tree, env=env).returncode:
        raise RuntimeError("a worker process failed")
    return load(out_path)


def differential(rev, seed=1, arrangements=ARRANGEMENTS, tiny=False):
    """(summary line, counts, details) of the corpus run against rev."""
    corpus = build_corpus(seed, arrangements, tiny)
    short = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", rev],
                           check=True, capture_output=True,
                           text=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="qres-differential-") as tmp:
        tree = os.path.join(tmp, "tree")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        "--quiet", tree, rev], check=True)
        try:
            block_path = os.path.join(tmp, "block.json")
            out_path = os.path.join(tmp, "out.json")
            results = {tree: [], ROOT: []}
            size = -(-len(corpus) // BLOCKS)
            for b in range(0, len(corpus), size):
                with open(block_path, "w") as fh:
                    json.dump(corpus[b:b + size], fh)
                for t in (tree, ROOT) if b // size % 2 == 0 else (ROOT, tree):
                    results[t].extend(run_tree(t, block_path, out_path))
            theirs, ours = results[tree], results[ROOT]
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove",
                            "--force", tree], check=False)
    counts, details = compare(corpus, theirs, ours)
    return summary(short, counts, seed), counts, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="REV")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--worker", nargs=2, metavar=("CORPUS", "OUT"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(*args.worker)
        return 0
    if not args.against:
        ap.error("--against REV is required")
    line, counts, details = differential(args.against, args.seed)
    print(line)
    for argv, text in details[:SHOW]:
        print("  qres %s\n    %s" % (shlex.join(argv), text))
    return 1 if counts["differ"] or counts["stopped_one"] else 0


if __name__ == "__main__":
    sys.exit(main())
