import pytest

from gainbalance import classify, minors
from gainbalance.graphcore import Graph, build_named, parse_graph_spec
from minor_reference import realizes_minor


def named(tag: str) -> Graph:
    return build_named(parse_graph_spec(tag))


@pytest.fixture
def w4():
    return named("W4")


@pytest.fixture
def c332():
    return named("C3(3,3,2)")


@pytest.fixture
def g2c4():
    return named("2C4")


@pytest.fixture
def k4dd():
    return named("K4dd")


def triangle() -> Graph:
    return Graph({"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "a")})


@pytest.fixture
def realized_witnesses(monkeypatch):
    """While a test runs, every minor witness the library's
    ``verify_minor_witness`` accepts must also realize its target by deletion,
    contraction and isomorphism; each accepted (host, target, witness) is
    collected."""
    accepted = []
    verify = minors.verify_minor_witness

    def checked(g, target, w):
        ok = verify(g, target, w)
        if ok:
            assert realizes_minor(g, target, w), w.to_json()
            accepted.append((g, target, w))
        return ok

    monkeypatch.setattr(minors, "verify_minor_witness", checked)
    monkeypatch.setattr(classify, "verify_minor_witness", checked)
    return accepted
