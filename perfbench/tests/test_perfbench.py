"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_carries_exactly_the_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(workload):
    ref = wl.load_reference()

    def corpus(seed):
        return json.dumps(wl.build_corpus(workload, seed, ref)).encode()
    assert corpus(5) == corpus(5)
    assert corpus(5) != corpus(6)


def _bindings():
    return {(name, attr): val for name, mod in sys.modules.items()
            if name == "qres" or name.startswith("qres.")
            for attr, val in vars(mod).items() if callable(val)}


def test_traced_run_restores_every_wrapped_attribute():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    prog = wl.Program()
    from qres.exactnum import SplitEvent
    before = _bindings()
    split_init = SplitEvent.__init__
    item = {"kind": "germ", "args": ["(y^2 - 2*x^2)^2 + x^5", "X(1;0,0)"]}
    with Tracer() as tracer:
        patched = list(tracer._patches)
        assert any(attr == "resultant" for _, attr, _ in patched)
        assert SplitEvent.__init__ is not split_init
        prog.call(item)
    assert tracer.spans and tracer._patches == []
    for obj, attr, orig in patched:
        assert getattr(obj, attr) is orig
    assert SplitEvent.__init__ is split_init
    after = _bindings()
    assert all(after[key] is val for key, val in before.items())


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "germ-report", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracles_and_generated_text():
    for d in range(1, 9):
        assert wl.baker_genus((1, 1, 1), d) == (d - 1) * (d - 2) // 2
    assert wl.baker_genus((2, 3, 5), 30) == 11      # smooth, d divisible
    assert wl.poly_text([((1, 0), 1), ((0, 1), -3)], ("x", "y")) == "x - 3*y"
    corpus = wl.build_corpus("curve-genus", 2, wl.load_reference())
    assert not any("+ -" in item["args"][0] for item in corpus)


class _Stub:
    """Stands in for the package: every op runs `behave`."""

    def __init__(self, behave):
        self.behave = behave

    def certify(self, text):
        pass

    def call(self, item):
        return self.behave(item)


def _raise_inconsistency(item):
    from qres.errors import InternalInconsistency
    raise InternalInconsistency("stub")


def _wrong(item):
    return 0, '{"invariants": {"delta": "1"}}'


def _unreadable(item):
    return 0, "not json"


def _slow(item):
    time.sleep(1)


@pytest.mark.parametrize("behave, wrong", [
    (_raise_inconsistency, 1), (_wrong, 1), (_unreadable, 1), (_slow, 0)])
def test_only_ops_over_budget_fail_without_a_wrong_answer(behave, wrong):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    item = {"kind": "germ", "args": ["x + y^2", "X(1;0,0)"],
            "expect": {"rc": 0, "delta": "0"}}
    tally = bench.Tally()
    bench.run_passes(_Stub(behave), [item], 0.05, 0, tally)
    assert (tally.failed, tally.wrong) == (1, wrong)


def test_a_raising_program_makes_the_run_incorrect(monkeypatch, capsys):
    monkeypatch.setattr(wl, "Program", lambda: _Stub(_raise_inconsistency))
    status = bench.main(["--workload", "germ-report", "--seed", "3",
                         "--seconds", "0", "--trace", "0", "--tiny"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1 and last["correct"] is False
    assert last["failed"] == last["attempted"] >= 1


def test_scaling_keeps_ops_over_budget_at_their_wall_time():
    tally = bench.Tally()
    tally.latencies = [0.01, 1.0, 0.02]
    tally.over = [False, True, False]
    tally.slices = [2 * speed.NOMINAL_S] * 3     # half the nominal speed
    assert bench.scaled_latencies(tally) == [0.005, 1.0, 0.01]
