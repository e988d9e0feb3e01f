import math
from fractions import Fraction

import numpy as np
import pytest

from lojex.errors import InputError
from lojex.parser import parse_text
from lojex.taylor import RemainderDescriptor, TaylorModel, support

from .oracles import euler_field_value, evaluate, gradient


def test_eval_examples():
    f = parse_text("x^2 + y^2")
    assert evaluate(f, (0.0, 0.0)) == 0.0
    assert evaluate(f, (1.0, 1.0)) == 2.0
    g = parse_text("x1^4 + x1*x2 + x2^4 + x1^4*x3^6")
    assert evaluate(g, (1.0, 1.0, 1.0)) == 4.0


def test_gradient_examples():
    f = parse_text("x^2 + y^2")
    assert gradient(f, (1.0, 0.0)) == (2.0, 0.0)
    assert gradient(f, (0.0, 0.0)) == (0.0, 0.0)
    m = parse_text("x^2*y^2")
    gx, gy = gradient(m, (1.0, 1.0))
    assert math.isclose(gx, 2.0) and math.isclose(gy, 2.0)


def test_euler_field_examples():
    m = parse_text("x^2*y^2")
    assert euler_field_value(m, (1.0, 1.0)) == 4.0
    f = parse_text("x^2 + y^2")
    assert euler_field_value(f, (1.0, 2.0)) == 10.0
    assert euler_field_value(f, (0.0, 0.0)) == 0.0
    assert euler_field_value(parse_text("x^3 + y^2"), (0.0, 0.0)) == 0.0


def test_support_with_remainders():
    m = TaylorModel.from_dict(
        2, {(2, 2): 1}, [RemainderDescriptor((2, 0), frozenset({1}), False)]
    )
    assert support(m) == frozenset({(2, 2)})
    mu = TaylorModel.from_dict(
        2, {(2, 2): 1}, [RemainderDescriptor((3, 1), frozenset(), True)]
    )
    assert support(mu) == frozenset({(2, 2), (3, 1)})
    assert support(parse_text("x^2 + y^2")) == frozenset({(2, 0), (0, 2)})


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    models = [
        parse_text("x^2 + y^2"),
        parse_text("x^4 + x^2*y^2"),
        parse_text("x1^4 + x1*x2 + x2^4 + x1^4*x3^6"),
        parse_text("2*x^3 - 1/2*x*y^2 + y^4"),
    ]
    h = 1e-6
    for model in models:
        pts = rng.uniform(-1.0, 1.0, size=(250, model.n))
        for p in pts:
            g = np.array(gradient(model, tuple(p)))
            fd = np.zeros(model.n)
            for i in range(model.n):
                up, dn = p.copy(), p.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (evaluate(model, tuple(up)) - evaluate(model, tuple(dn))) / (2 * h)
            scale = max(np.linalg.norm(g), 1.0)
            assert np.linalg.norm(g - fd) <= 1e-5 * scale


def test_dimension_mismatch_errors():
    model = parse_text("x^2 + y^2")
    with pytest.raises(InputError):
        evaluate(model, (1.0,))
    with pytest.raises(InputError):
        gradient(model, (1.0, 2.0, 3.0))
    with pytest.raises(InputError):
        euler_field_value(model, (1.0,))


def test_model_validation():
    with pytest.raises(InputError):
        TaylorModel.from_dict(2, {(0, 0): 1})  # constant breaks origin-criticality
    with pytest.raises(InputError):
        TaylorModel.from_dict(2, {(1, 0): 1})  # gradient at 0 nonzero
    with pytest.raises(InputError):
        Term = __import__("lojex.taylor", fromlist=["Term"]).Term
        Term(Fraction(0), (2, 0))
    with pytest.raises(InputError):
        RemainderDescriptor((1, 0))  # neither unit nor flat
    with pytest.raises(InputError):
        RemainderDescriptor((1, 0), frozenset({0}), True)  # both
    with pytest.raises(InputError):
        TaylorModel.from_dict(2, {(2, -1): 1})
