import pytest
from hypothesis import settings

from qres.exactnum import ExtField
from qres.poly import SparsePoly, parse_poly, poly_gcd

settings.register_profile("qres", database=None, max_examples=50,
                          deadline=None)
settings.load_profile("qres")

QQ = ExtField(())


def germ(text):
    return parse_poly(text, ("x", "y"))


def curve(text):
    return parse_poly(text, ("x0", "x1", "x2"))


def qgcd(u, v):
    """poly_gcd over Q of the rational lists u and v (low to high), as a
    list."""
    f, g = (SparsePoly.from_univariate(QQ, "y", c) for c in (u, v))
    return poly_gcd(f, g).coeff_list()


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
