"""Print genus reports for a small gallery of weighted plane curves.

Each curve's note is followed by the output of `qres curve` on it.  The
golden tests (tests/test_golden.py) pin the JSON form of the same list.

Usage: python3 scripts/gallery.py
"""
import sys

GALLERY = [
    ("x0*x1 - x2", "2,3,5", "rational curve through two vertices"),
    ("x0*x1 - x2", "3,4,7", "same family, next weights"),
    ("x0*x1 - x2^2", "1,3,2", "conic family k=1"),
    ("x0*x1 - x2^2", "3,5,4", "conic family k=2"),
    ("x0*x1 - x2^2", "5,7,6", "conic family k=3"),
    ("x0*x1*x2 + (x0^3 - x1^2)^2", "2,3,7", "orbifold node at a vertex"),
    ("x1^2*x2 - x0^3", "1,1,1", "cuspidal cubic"),
    ("x1^2*x2 - x0^3 - x0^2*x2", "1,1,1", "nodal cubic"),
    ("x0^2*x1^2 + x1^2*x2^2 + x2^2*x0^2 - 2*x0*x1*x2*(x0 + x1 + x2)",
     "1,1,1", "three-cusp quartic"),
    ("x0^30 + x1^10 + x2^6", "1,3,5", "smooth Fermat-type curve"),
    ("x0^15 + x1^10 + x2^6", "2,3,5", "smooth Fermat-type curve"),
    ("(x0^2 + x1^2 - x2^2)*(x0^2 + x1^2 - 2*x2^2)", "1,1,1",
     "two conics tangent at a conjugate pair"),
    ("x0*x1", "1,1,1", "two lines (reducible, virtual value)"),
]


def main() -> int:
    """Exit code: the largest one `qres curve` gave."""
    # imported here, so that reading GALLERY needs no qres on the path
    from qres import cli

    status = 0
    for text, wt, note in GALLERY:
        print("%s  [%s]" % (note, wt))
        print("F = %s" % text)
        status = max(status, cli.main(["curve", text, "--w", wt]))
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
