"""Byte-for-byte golden outputs of the command line.

Each case runs `qres.cli.main(argv)` in-process and compares its stdout
and exit code with the files under tests/golden/: `<name>.out` holds the
stdout, `exit_codes.json` the exit code of every case.  Refactors must
leave every byte unchanged; a deliberate change of output is recorded by
regenerating the files and reviewing the diff:

    PYTHONPATH=src python3 tests/test_golden.py --update
"""

import contextlib
import io
import json
import os
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# the curves of scripts/gallery.py, one list for both
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts"))
from gallery import GALLERY  # noqa: E402

SPLIT_GERM = "(y^4 - 4*x^4)^2 + x^7*(y^2 - 2*x^2) + x^10"

# germ and curve commands, each run in human and in --json form
REPORTS = [
    ("germ-tacnode", ["germ", "x^2 - y^4", "--type", "X(2;1,1)"]),
    ("germ-cusp", ["germ", "y^2 - x^3"]),
    ("germ-conjugate", ["germ", "(y^2 - 2*x^2)^2 - x^7"]),
    ("germ-override-plain", ["germ", "x*y + (x^2 - y^3)^2", "--type",
                             "X(7;2,3)", "--weights", "(1,5)"]),
    ("germ-override-strong", ["germ", "x*y + (x^2 - y^3)^2", "--type",
                              "X(7;2,3)", "--weights", "(1,5)",
                              "--mode", "strong"]),
    ("germ-bad-syntax", ["germ", "x +"]),
    ("germ-bad-type", ["germ", "x", "--type", "X(4;2,1)"]),
    ("germ-not-semi-invariant", ["germ", "x + y", "--type", "X(3;1,2)"]),
    ("curve-235", ["curve", "x0*x1 + x2", "--w", "2,3,5"]),
    ("curve-235-points", ["curve", "x0*x1 + x2", "--w", "2,3,5",
                          "--points", "[1:0:0];[0:1:0]"]),
    ("curve-237-node", ["curve", "x0*x1*x2 + (x0^3 - x1^2)^2",
                        "--w", "2,3,7"]),
    ("curve-not-quasihom", ["curve", "x0 + x1^2", "--w", "1,1,1"]),
    ("curve-bad-weights", ["curve", "x0*x1 + x2", "--w", "2,4,6"]),
    # a reducible tower: the engine forks a node, the search a cluster
    ("germ-split", ["germ", SPLIT_GERM]),
    ("curve-lines-split",
     ["curve", "(x0 + 2*x1 - 2*x2)*(5*x0 + 2*x1 + 5*x2)*(x0 - 2*x1 + 5*x2)",
      "--w", "1,1,1"]),
    # horizontal components crossing the rest of the curve; with w0 = 2
    # the candidates collapse to one polynomial per orbit
    ("curve-crossing-collapsed",
     ["curve", "(x2^2 - 4*x0)*(x1^2 + x2^2 - 5*x0)", "--w", "2,1,1"]),
    ("curve-crossing",
     ["curve", "(x2 - 2*x0)*(x2 - 3*x0)*(x1^2 + x2^2 - 5*x0^2)",
      "--w", "1,1,1"]),
]

CASES = (
    [(name, argv) for name, argv in REPORTS]
    + [(name + "-json", argv + ["--json"]) for name, argv in REPORTS]
    + [("resolve-cusp-json", ["resolve", "y^2 - x^3", "--json", "-"]),
       ("resolve-cusp-dot", ["resolve", "y^2 - x^3", "--dot", "-"]),
       ("resolve-conjugate-json",
        ["resolve", "(y^2 - 2*x^2)^2 - x^7", "--json", "-"]),
       ("resolve-conjugate-dot",
        ["resolve", "(y^2 - 2*x^2)^2 - x^7", "--dot", "-"]),
       ("resolve-split-json", ["resolve", SPLIT_GERM, "--json", "-"]),
       # a node whose labels keep axis factors
       ("resolve-axis-json",
        ["resolve", "x*y*(y^2 - x^3)", "--json", "-"]),
       # a smooth curve: the human form of gallery-10
       ("curve-smooth", ["curve", "x0^15 + x1^10 + x2^6", "--w", "2,3,5"])]
    + [("gallery-%02d" % i, ["curve", text, "--w", w, "--json"])
       for i, (text, w, _) in enumerate(GALLERY)]
)


def run_cli(argv):
    from qres.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(argv))
    return rc, out.getvalue().encode()


def _exit_codes():
    with open(os.path.join(GOLDEN, "exit_codes.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,argv", CASES, ids=[n for n, _ in CASES])
def test_golden_output(name, argv):
    rc, out = run_cli(argv)
    with open(os.path.join(GOLDEN, name + ".out"), "rb") as fh:
        assert out == fh.read()
    assert rc == _exit_codes()[name]


def test_golden_corpus_has_no_stray_files():
    names = {n for n, _ in CASES}
    assert set(_exit_codes()) == names
    files = {f[:-4] for f in os.listdir(GOLDEN) if f.endswith(".out")}
    assert files == names


def _update():
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    for name, argv in CASES:
        rc, out = run_cli(argv)
        codes[name] = rc
        with open(os.path.join(GOLDEN, name + ".out"), "wb") as fh:
            fh.write(out)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python3 tests/test_golden.py --update")
    _update()
