"""The wall corpus in its tiny mode, and how a run is judged.

Run from the root of a source checkout (not collected by the tier-1 suite):

    python3 -m pytest scripts/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import walls  # noqa: E402


def test_the_tiny_walls_match_their_answers(capsys):
    assert walls.main(["--tiny"]) == 0
    out = capsys.readouterr().out.splitlines()
    tiny = [w for w in walls.WALLS if w.tiny]
    assert len(tiny) >= 5 and len(out) == len(tiny) + 1
    assert all(" match (" in line for line in out[:-1])
    assert out[-1].startswith("walls (tiny): %d walls, %d matched, 0 wrong, "
                              "0 over their timeout" % (len(tiny), len(tiny)))


def test_a_wrong_answer_fails_the_run_and_a_timeout_does_not(monkeypatch, capsys):
    conic = walls.Wall("conic", 30, True, components=["x0*x1 - x2^2"])
    wrong = walls.Wall("wrong", 30, True, components=["x0*x1 - x2^2"],
                       overflow="error: tower degree 18 exceeds the bound 16")
    slow = walls.Wall("slow", 0.01, True, ladder=800)
    monkeypatch.setattr(walls, "WALLS", [conic, slow])
    assert walls.main(["--tiny"]) == 0
    monkeypatch.setattr(walls, "WALLS", [conic, wrong, slow])
    assert walls.main(["--tiny"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1].startswith("walls (tiny): 3 walls, 1 matched, 1 wrong, "
                              "1 over their timeout")
    assert "WRONG: got (0, '0')" in out[-3] and "over its timeout" in out[-2]
