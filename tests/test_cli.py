import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import given, seed, settings, strategies as st

from qres import cli
from qres.cli import main
from qres.errors import InternalInconsistency

SCHEMA = json.load(open("docs/resolution.schema.json"))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_germ_human_output(capsys):
    rc, out, _ = run(capsys, "germ", "x^2 - y^4", "--type", "X(2;1,1)")
    assert rc == 0
    assert "delta_w   = 1" in out
    assert "euler_orb = -1" in out
    assert "blow-ups:" in out


def test_germ_json_output(capsys):
    rc, out, _ = run(capsys, "germ", "x^2 - y^4", "--type", "X(2;1,1)",
                     "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1 and doc["command"] == "germ"
    assert doc["invariants"]["delta_w"] == "1"
    assert doc["invariants"]["mu"] == 3
    assert doc["trace"]["blowups"][0]["weights"] == [2, 1]
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_germ_override_weights_and_modes(capsys):
    args = ("germ", "x*y + (x^2 - y^3)^2", "--type", "X(7;2,3)",
            "--weights", "(1,5)")
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    assert "-> 3/5" in out and "-> 2/5" in out
    assert "Q-smooth ends (plain mode stops here):" in out
    assert "transpose" in out                  # orientation warning
    rc, out, _ = run(capsys, *args, "--mode", "strong")
    assert rc == 0
    assert out.count("weights (") == 2         # both steps are blow-ups now
    assert "Q-smooth ends" not in out
    assert "delta_w   = 1" in out


def test_curve_human_output(capsys):
    rc, out, _ = run(capsys, "curve", "x0*x1 + x2", "--w", "2,3,5")
    assert rc == 0
    assert "curve of degree 5, weights (2,3,5)" in out
    assert "virtual genus: 7/12" in out
    assert "genus: 0" in out
    assert "vertices on the curve included" in out


def test_curve_json_output(capsys):
    rc, out, _ = run(capsys, "curve", "x0*x1 + x2", "--w", "2,3,5", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "curve" and doc["degree"] == 5
    assert doc["virtual_genus"] == "7/12" and doc["genus"] == "0"
    assert {p["delta_w"] for p in doc["points"]} == {"1/4", "1/3"}
    assert doc["weights"] == [2, 3, 5]


def test_curve_manual_points(capsys):
    rc, out, _ = run(capsys, "curve", "x0*x1 + x2", "--w", "2,3,5",
                     "--points", "[1:0:0];[0:1:0]")
    assert rc == 0
    assert "points (user supplied):" in out
    assert "genus: 0" in out
    # [1:1:-1] is not [1:1:1] rescaled by an element of mu_2
    rc, out, _ = run(capsys, "curve", "(x0^3 - x1^2)*(x0^5 - x2^2)",
                     "--w", "2,3,5", "--points", "1,1,1;1,1,-1")
    assert rc == 0
    assert "[1 : 1 : -1]" in out
    # points are read on P(2,2,1) as given and printed on P(1,1,1)
    rc, out, _ = run(capsys, "curve", "x2^4 - x0*x1", "--w", "2,2,1",
                     "--points", "1,16,2")
    assert rc == 0
    assert "[1 : 16 : 4]  manual" in out
    assert "genus: 0" in out


def test_a_leading_minus_is_a_value_not_an_option(capsys):
    """argparse takes "-x^2+y^3" for an unknown option unless it has a
    space; qres has no short option but -h, so a leading minus starts a
    value, in the poly positional and in option values alike."""
    outs = [run(capsys, "germ", poly, "--json")
            for poly in ("-x^2+y^3", "-x^2 + y^3")]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert json.loads(outs[0][1])["invariants"]["delta"] == "1"
    rc, out, _ = run(capsys, "curve", "x0^2+x1^2-x2^2", "--w", "1,1,1",
                     "--points", "-1,0,1", "--json")
    assert rc == 0 and json.loads(out)["genus"] == "0"
    with pytest.raises(SystemExit):
        main(["germ", "-h"])
    assert capsys.readouterr().out.startswith("usage: qres germ")


def test_curve_points_are_rescaled_to_chart_coordinate_one(capsys):
    # [2:2:2] is [1:1:1] on P(1,1,1): lam = 1/2
    rc, out, _ = run(capsys, "curve", "x0*x1 - x2^2", "--w", "1,1,1",
                     "--points", "2,2,2")
    assert rc == 0
    assert "[1 : 1 : 1]   manual" in out and "genus: 0" in out
    # on P(2,3,5), lam^2 = 1/4 gives lam = 1/2 and [4:-8:32] = [1:-1:1]
    rc, out, _ = run(capsys, "curve", "x0*x1 + x2", "--w", "2,3,5",
                     "--points", "4,-8,32")
    assert rc == 0
    assert "[1 : -1 : 1]  manual" in out
    # a rescaled point is compared with the others after rescaling
    rc, _, err = run(capsys, "curve", "x0*x1 - x2^2", "--w", "1,1,1",
                     "--points", "2,2,2;1,1,1")
    assert rc == 2 and "listed twice" in err
    # lam^2 = 1/2 has no rational solution
    rc, out, err = run(capsys, "curve", "x0*x1 + x2", "--w", "2,3,5",
                       "--points", "2,1,1")
    assert rc == 2 and not out
    assert "lam^2 = 1/2" in err and "[2 : 1 : 1]" in err


def test_resolve_writes_files(tmp_path, capsys):
    jp, dp = tmp_path / "t.json", tmp_path / "t.dot"
    rc, out, _ = run(capsys, "resolve", "y^2 - x^3",
                     "--json", str(jp), "--dot", str(dp))
    assert rc == 0
    assert "wrote %s" % jp in out and "wrote %s" % dp in out
    doc = json.loads(jp.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["root"]["blowup"]["nu"] == 6
    dot = dp.read_text()
    assert dot.startswith("digraph resolution {")
    rc2 = main(["resolve", "y^2 - x^3", "--json", str(jp), "--dot", str(dp)])
    capsys.readouterr()
    assert rc2 == 0
    assert jp.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert dp.read_text() == dot


def test_resolve_stdout(capsys):
    rc, out, _ = run(capsys, "resolve", "y^2 - x^3", "--dot", "-")
    assert rc == 0
    assert out.startswith("digraph resolution {")


def test_bad_inputs_exit_2(capsys):
    cases = [
        ("germ", "x +"),
        ("germ", "x", "--type", "X(4;2,1)"),          # not in normal form
        ("germ", "x + y", "--type", "X(3;1,2)"),      # not semi-invariant
        ("curve", "x0 + x1^2", "--w", "1,1,1"),       # not quasi-homogeneous
        ("curve", "x0*x1 + x2", "--w", "2,4,6"),
        ("curve", "5", "--w", "2,3,5"),               # a constant equation
        ("curve", "-3", "--w", "1,1,1"),
        ("curve", "x0^2*(x1^2 - x0*x2)", "--w", "1,1,1",
         "--points", "1,1,1"),                    # non-reduced curve
        ("curve", "x0*x1 + x2", "--w", "2,3,5",
         "--points", "1,0,0;1,0,0"),              # a point listed twice
        ("curve", "(x0^3 - x1^2)*(x0^5 - x2^2)", "--w", "2,3,5",
         "--points", "1,1,1;1,-1,-1"),            # [1:1:1] rescaled by -1
        # on P(2,2,1) the point [1:4:2] is [1:4:4] on P(1,1,1), off the curve
        ("curve", "x2^4 - x0*x1", "--w", "2,2,1", "--points", "1,4,2"),
        # [1:16:2] and [1:16:-2] are both [1:16:4] on P(1,1,1)
        ("curve", "x2^4 - x0*x1", "--w", "2,2,1",
         "--points", "1,16,2;1,16,-2"),
        ("resolve", "x", "--json", "-"),              # degenerate monomial
        ("resolve", "y^2 - x^3"),                     # no output selected
    ]
    for argv in cases:
        rc, _, err = run(capsys, *argv)
        assert rc == 2, argv
        assert err.strip(), argv


def test_a_bad_weight_override_is_refused_before_the_engine_runs(capsys):
    # x needs no blow-up, and x^2 is not reduced: both name the override
    for poly in ("x", "x^2"):
        rc, out, err = run(capsys, "germ", poly, "--weights", "(0,1)")
        assert rc == 2 and not out
        assert "invalid weight override (0, 1)" in err


def test_budget_exhaustion_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("QRES_EXT_BOUND", "1")
    rc, _, err = run(capsys, "germ", "(y^2 - 2*x^2)^2 - x^7")
    assert rc == 3
    assert "bound" in err


def test_malformed_extension_bound_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("QRES_EXT_BOUND", "abc")
    # checked before any work, also where no tower would be built
    for argv in (("germ", "y^2 - x^3"),
                 ("curve", "x0*x1 + x2", "--w", "2,3,5"),
                 ("resolve", "y^2 - x^3", "--json", "-"),
                 ("check", "lattice")):
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert out == "", argv
        assert err == ("error: QRES_EXT_BOUND must be an integer, "
                       "got 'abc'\n"), argv


def test_long_numerals_exit_2_and_coefficients_are_not_exponents(capsys):
    rc, out, _ = run(capsys, "germ", "2147483649*y^2 - x")
    assert rc == 0 and "germ: -x + 2147483649*y^2" in out
    many = "9" * 5000                         # above Python's int() limit
    for text, msg in ((many + "*y^2 - x", "more than 1000 digits"),
                      ("x - 1/" + many + "*y^2", "more than 1000 digits"),
                      ("y^" + many + " - x", "exponent above 2^31"),
                      ("y^2147483649 - x", "exponent above 2^31")):
        rc, out, err = run(capsys, "germ", text)
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and msg in err


def test_superscripts_deep_parentheses_and_huge_radicals_exit_cleanly(
        capsys, monkeypatch):
    """Each exits with its documented code and one error line: a
    superscript is not a number, parentheses nest at most 100 deep, and
    an override whose radical exceeds the tower bound is refused before
    anything of its degree is built."""
    monkeypatch.delenv("QRES_EXT_BOUND", raising=False)
    deep = "(" * 300 + "x" + ")" * 300 + " - y^2"
    for argv, code, err_line in (
            (("germ", "x^2 - y^\u00b3"), 2,
             "error: expected a number at position 8"),
            (("germ", deep), 2,
             "error: parentheses nested deeper than 100 at position 100"),
            (("germ", "(x+y)^2 - y^3", "--weights", "(12,4294967297)"), 3,
             "error: tower degree 4294967285 exceeds the bound 16")):
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (code, "", err_line + "\n"), argv


def test_coefficients_that_could_not_be_printed_exit_2(capsys):
    """Python prints no integer of more than 4300 digits; the parser
    refuses such a coefficient after the operator that makes it."""
    big = "(2147483647*y)^300"                      # 2800 digits
    for text, at in (("(2147483647*y)^600 - x", "'^' at position 14"),
                     ("(2*y)^2000000000 - x", "'^' at position 5"),
                     (big + "*" + big + " - x", "'*' at position 18"),
                     ("x - (1/7*y)^5089", "'^' at position 11"),
                     ("((10^4299 - 1)*10 + 10)*x - y^2",
                      "'+' at position 18")):
        rc, out, err = run(capsys, "germ", text)
        assert rc == 2 and out == ""
        assert err == ("error: coefficient of more than 4300 digits after "
                       "%s\n" % at)
    # 10^4300 - 1 and 7^5088 have 4300 digits
    for text in ("((10^4299 - 1)*10 + 9)*x - y^2", "x - (1/7*y)^5088"):
        rc, out, _ = run(capsys, "germ", text)
        assert rc == 0
    assert "9" * 4300 in run(capsys, "germ", "((10^4299 - 1)*10 + 9)*x - y^2")[1]


def test_internal_inconsistency_exits_5_with_a_reproducer(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalInconsistency("a cross-check failed")
    monkeypatch.setattr(cli, "full_report", boom)
    rc, out, err = run(capsys, "germ", "y^2 - x^3", "--type", "X(2;1,1)")
    assert rc == 5 and out == ""
    assert err == ("internal error: a cross-check failed; reproduce with: "
                   "qres germ 'y^2 - x^3' --type 'X(2;1,1)'\n")


def test_unwritable_output_exits_4(tmp_path, capsys):
    rc, _, err = run(capsys, "resolve", "y^2 - x^3", "--json", str(tmp_path))
    assert rc == 4
    assert err.startswith("io error:")


def test_check_subcommand(capsys):
    rc, out, _ = run(capsys, "check", "lattice")
    assert rc == 0
    assert "lattice" in out and "0 failed" in out
    with pytest.raises(SystemExit):
        main(["check", "bogus"])
    capsys.readouterr()


def test_check_quasihom(capsys):
    """The closed form delta_w = (pq - p - q + d)/(2d) of x^p - y^q on every
    normalized type with d <= 6, and the axes' (d - 1)/(2d)."""
    rc, out, _ = run(capsys, "check", "quasihom")
    assert rc == 0
    assert out == "quasihom   ok  (322 passed, 0 failed)\n"


SEQUENCE = [
    ("germ", "x^2 - y^4", "--type", "X(2;1,1)", "--json"),
    ("curve", "x0*x1 + x2", "--w", "2,3,5"),
    ("germ", "x^2 - y^4", "--type", "X(2;1,1)"),
    ("resolve", "y^2 - x^3", "--json", "-"),
    ("check", "bogus"),                            # usage error
    ("germ", "(x - y)^2"),                         # exit 2
    ("curve", "x0*x1 + x2", "--w", "2,3,5", "--json"),
    ("germ", "y^2 - x^3", "--mode", "strong", "--json"),
    ("check", "lattice"),
    ("germ", "x^2 - y^4", "--type", "X(2;1,1)"),
]


def outcome(capsys, argv):
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = ("exit", exc.code)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_the_parser_is_built_once_and_reused(capsys):
    fresh = []
    for argv in SEQUENCE:
        cli.build_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    cli.build_parser.cache_clear()
    reused = [outcome(capsys, argv) for argv in SEQUENCE]
    assert cli.build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [r[0] for r in fresh] == [0, 0, 0, 0, ("exit", 2), 2, 0, 0, 0, 0]


def test_the_parser_is_not_built_at_import():
    code = ("import qres.cli as c; "
            "assert c.build_parser.cache_info().currsize == 0")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.skipif(shutil.which("qres") is None,
                    reason="console script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(["qres", "germ", "y^2 - x^3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "delta_w   = 1" in proc.stdout


# ---------------------------------------------------------------------------
# random command lines: every run ends in a documented exit code


def signed_sum(draw, monomials):
    """The monomials with small nonzero coefficients.  A negative one after
    the first is written "- c*m", "+ (-c)*m" or "+ -c*m"; the sign grammar
    of docs/FORMATS.md refuses the last (exit 2)."""
    terms = []
    for m in monomials:
        c = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        if not terms:
            terms.append("%d*%s" % (c, m))
        elif c > 0:
            terms.append(" + %d*%s" % (c, m))
        else:
            terms.append(draw(st.sampled_from(
                [" - %d*%s" % (-c, m)] * 2 + [" + (%d)*%s" % (c, m), " + %d*%s" % (c, m)])))
    return "".join(terms)


def monomial(names, exps):
    return "*".join("%s^%d" % (v, e) for v, e in zip(names, exps) if e) or "1"


def coprime_enough(picks):
    """The exponent vectors less their common part beyond a first power, so
    that a sum of them has no repeated monomial factor; one weight class
    (or one weighted degree) stays one."""
    common = [max(min(e) - 1, 0) for e in zip(*picks)]
    return [tuple(x - c for x, c in zip(e, common)) for e in picks]


@st.composite
def germ_argv(draw):
    """qres germ on X(d;a,b), d <= 5, normalized or not: 2-4 monomials of
    one weight class with exponents up to 8, the sum sometimes squared
    plus a monomial, sometimes --mode strong or a --weights pair."""
    d = draw(st.integers(1, 5))
    units = [u for u in range(d) if math.gcd(u, d) == 1]
    a, b = (draw(st.sampled_from(units) if draw(st.integers(0, 2)) else st.integers(0, d - 1))
            for _ in range(2))
    exps = [(i, j) for i in range(9) for j in range(9) if i + j]
    cls = (a * draw(st.integers(0, 8)) + b * draw(st.integers(0, 8))) % d
    same = [e for e in exps if (a * e[0] + b * e[1]) % d == cls]
    picks = draw(st.lists(st.sampled_from(same), min_size=2, max_size=4, unique=True)
                 if len(same) > 1 else st.just(same))
    poly = signed_sum(draw, [monomial("xy", e) for e in coprime_enough(picks)])
    if draw(st.booleans()):
        poly = "(%s)^2 + %s" % (poly, monomial("xy", draw(st.sampled_from(exps))))
    argv = ["germ", poly, "--type", "X(%d;%d,%d)" % (d, a, b)]
    option = draw(st.sampled_from([(), ("--mode", "strong"), ("--weights",)]))
    if option == ("--weights",):
        option += ("(%d,%d)" % (draw(st.integers(1, 4)), draw(st.integers(1, 4))),)
    return argv + list(option)


@st.composite
def curve_argv(draw):
    """qres curve on P(w), weights up to 4 with common factors allowed:
    1-5 monomials of one weighted degree up to 12, sometimes a product of
    two such sums, sometimes with --points."""
    w = [draw(st.integers(1, 4)) for _ in range(3)]

    def form():
        deg = draw(st.integers(1, 12))
        mons = [(i, j, k) for i in range(13) for j in range(13) for k in range(13)
                if w[0] * i + w[1] * j + w[2] * k == deg]
        if not mons:
            return None
        picks = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=5, unique=True))
        return signed_sum(draw, [monomial(("x0", "x1", "x2"), e)
                                 for e in coprime_enough(picks)])
    parts = [p for p in (form(), form() if draw(st.booleans()) else None) if p]
    poly = "*".join("(%s)" % p for p in parts) if len(parts) > 1 else (parts or ["x0"])[0]
    argv = ["curve", poly, "--w", "%d,%d,%d" % tuple(w)]
    if not draw(st.integers(0, 3)):
        point = [draw(st.integers(-2, 2)) for _ in range(3)]
        argv += ["--points", "%d,%d,%d" % tuple(point)]
    return argv


@st.composite
def resolve_argv(draw):
    """qres resolve on a draw of germ_argv, its tree written to stdout by
    --json - or --dot -."""
    argv = draw(germ_argv())
    return ["resolve"] + argv[1:] + [draw(st.sampled_from(["--json", "--dot"])), "-"]


@settings(max_examples=60)
@seed(20261020)
@given(st.one_of(germ_argv(), curve_argv(), resolve_argv()),
       st.sampled_from((None, "1", "2")))
def test_random_command_lines_end_in_a_documented_exit_code(argv, bound):
    """Every run ends in 0, 2 or 3 with no traceback, and a nonzero exit
    writes exactly one "error:" line to stderr.  QRES_EXT_BOUND is unset,
    1 or 2, so that some runs exceed the tower bound and exit 3."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if bound is None:
            mp.delenv("QRES_EXT_BOUND", raising=False)
        else:
            mp.setenv("QRES_EXT_BOUND", bound)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 2, 3), argv
    if rc:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
