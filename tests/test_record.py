import dataclasses
import pickle

import pytest

from lojex.errors import InputError
from lojex.polyhedron import NewtonPolyhedron, build_polyhedron
from lojex.record import record, replace
from lojex.taylor import Term


class _Point:
    x: int
    y: tuple
    label: str = "p"
    weight: int = 1

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("negative weight")
        object.__setattr__(self, "y", tuple(self.y))


def _both():
    """The same class body built as a record and as a frozen dataclass."""
    body = {k: v for k, v in vars(_Point).items() if k not in ("__dict__", "__weakref__")}
    rec = record(type("_Point", (), dict(body)))
    ref = dataclasses.dataclass(frozen=True)(type("_Point", (), dict(body)))
    return rec, ref


def _instances(cls):
    return [
        cls(1, [2, 3]),
        cls(1, (2, 3), "p", 1),
        cls(y=[2], x=0),
        cls(0, (2,), weight=5),
        cls(-1, (), label="q"),
        cls(0, ((1, 2), frozenset({3}))),
    ]


def test_record_agrees_with_frozen_dataclass():
    rec, ref = _both()
    got, want = _instances(rec), _instances(ref)
    for a, b in zip(got, want):
        assert repr(a) == repr(b)
        assert hash(a) == hash(b)
        assert a.__eq__(object()) is NotImplemented is b.__eq__(object())
        assert (a == ref(a.x, a.y)) is (b == rec(b.x, b.y)) is False
        for c, d in zip(got, want):
            assert (a == c) is (b == d) and (a != c) is (b != d), (a, c)
        for action in (lambda o: setattr(o, "x", 5), lambda o: setattr(o, "new", 5),
                       lambda o: delattr(o, "label")):
            for obj in (a, b):
                with pytest.raises(AttributeError):
                    action(obj)
        assert (a.x, a.y, a.label, a.weight) == (b.x, b.y, b.label, b.weight)
    assert {rec(1, [2, 3]), rec(1, (2, 3))} == {rec(1, (2, 3))}
    for cls in (rec, ref):
        for args, kwargs in [((), {}), ((1,), {}), ((1, 2, "a", 1, "extra"), {}),
                             ((1, 2), {"z": 3}), ((1, 2), {"x": 1})]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
        with pytest.raises(ValueError, match="negative weight"):
            cls(0, (), weight=-1)


def test_post_init_validators_run():
    with pytest.raises(InputError, match="zero coefficient"):
        Term(0, (2, 0))
    assert Term(3, [2, 0]).exp == (2, 0)


def test_uncompared_fields_stay_out_of_equality_hash_and_repr():
    @record(uncompared=("cache",))
    class Keyed:
        key: int
        cache: dict
        tag: str = ""

    @record(uncompared=("cache",))
    class Single:
        key: int
        cache: dict

    a, b = Keyed(1, {"a": 1}), Keyed(1, {"b": 2})
    assert a == b and hash(a) == hash(b) == hash((1, ""))
    assert repr(a) == "test_uncompared_fields_stay_out_of_equality_hash_and_repr.<locals>.Keyed(key=1, tag='')"
    assert a.cache == {"a": 1}
    assert Keyed(1, {}) != Keyed(2, {}) and Keyed(1, {}) != Keyed(1, {}, "t")
    c = Single(1, {"c": 3})
    assert c == Single(1, {}) and hash(c) == hash((1,)) and c != a
    assert repr(c).endswith("Single(key=1)")
    with pytest.raises(TypeError):
        record(uncompared=("missing",))(type("Bad", (), {"__annotations__": {"key": "int"}}))


def test_newton_polyhedron_survives_a_pickle_round_trip():
    poly = build_polyhedron({(4, 0), (0, 4), (1, 2), (2, 2)})
    back = pickle.loads(pickle.dumps(poly))
    assert back == poly and hash(back) == hash(poly)
    assert (back.point_masks, back.axis_masks) == (poly.point_masks, poly.axis_masks)
    assert isinstance(back, NewtonPolyhedron) and "point_masks" not in repr(back)


def test_replace_builds_a_new_record_through_init():
    rec, _ = _both()
    p = rec(1, (2,), "a")
    q = replace(p, label="b", y=[3])
    assert (q.x, q.y, q.label, q.weight) == (1, (3,), "b", 1)
    assert p == rec(1, (2,), "a")
    with pytest.raises(ValueError):
        replace(p, weight=-1)
    with pytest.raises(TypeError):
        replace(p, z=1)


def test_a_non_default_field_after_a_default_one_is_rejected():
    with pytest.raises(TypeError, match="non-default field 'b'"):
        @record
        class Bad:
            a: int = 0
            b: int
