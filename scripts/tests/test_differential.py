"""The differential harness on a tiny corpus.

Run from the root of a git checkout (not collected by the tier-1 suite):

    python3 -m pytest scripts/tests -q
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import differential  # noqa: E402


def test_a_tree_against_its_own_head_differs_nowhere():
    line, counts, details = differential.differential(
        "HEAD", seed=1, arrangements=3, tiny=True)
    assert line.startswith("differential against ")
    assert counts["differ"] == 0 and counts["stopped_one"] == 0, details
    # both trees timed the same cases, each with some wall time
    assert counts["timed"] == counts["identical"] > 0
    assert counts["s_theirs"] > 0 and counts["s_ours"] > 0
    assert line.endswith(" s in this tree")
    assert counts["identical"] + counts["stopped_both"] == counts["cases"]
    # the corpus holds every golden argv, the tiny perfbench corpora and
    # the arrangements
    assert counts["cases"] > 60
    # the temporary worktree is gone again
    listed = subprocess.run(["git", "-C", differential.ROOT, "worktree",
                             "list"], capture_output=True, text=True).stdout
    assert "qres-differential-" not in listed


def test_compare_counts_each_channel():
    done = {"status": "done", "rc": 0, "out": "a\nb\n", "err": "", "s": 1.0}
    cases = [["x"]] * 4
    theirs = [done, done, dict(done, status="stopped"), done]
    ours = [done, dict(done, out="a\nc\n", rc=2), dict(done, status="stopped"),
            dict(done, status="stopped")]
    counts, details = differential.compare(cases, theirs, ours)
    assert (counts["identical"], counts["differ"], counts["stdout"],
            counts["exit_code"], counts["stderr"]) == (1, 1, 1, 1, 0)
    assert (counts["stopped_both"], counts["stopped_one"]) == (1, 1)
    assert "line 2: 'b' != 'c'" in details[0][1]
    assert details[1][1] == "stopped only in this tree"
    # only the cases done on both sides are timed
    assert (counts["timed"], counts["s_theirs"], counts["s_ours"]) == (
        2, 2.0, 2.0)


def test_the_summary_reports_each_trees_wall_time():
    done = {"status": "done", "rc": 0, "out": "", "err": ""}
    theirs = [dict(done, s=2.5), dict(done, s=0.5),
              dict(done, status="raised ValueError: x", s=9.0)]
    ours = [dict(done, s=1.25), dict(done, status="stopped", s=20.0),
            dict(done, s=1.0)]
    counts, _ = differential.compare([["x"]] * 3, theirs, ours)
    line = differential.summary("abc1234", counts, 7)
    assert line.endswith("(seed 7, 20 s per case); wall time over the 1 "
                         "cases done on both sides: 2.50 s against abc1234, "
                         "1.25 s in this tree")
