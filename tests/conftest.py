import pytest
from hypothesis import settings

from qres.exactnum import ExtField
from qres.poly import parse_poly

settings.register_profile("qres", database=None, max_examples=50,
                          deadline=None)
settings.load_profile("qres")

QQ = ExtField(())


def germ(text):
    return parse_poly(text, ("x", "y"))


def curve(text):
    return parse_poly(text, ("x0", "x1", "x2"))


def spy(monkeypatch, module, name):
    """Record the arguments of every call of module.name."""
    calls, orig = [], getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return orig(*args)
    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture(name="germ")
def germ_fixture():
    return germ


@pytest.fixture(name="curve")
def curve_fixture():
    return curve
