"""Systems: point/clopen dynamics, exact measures, minimality evidence."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cantordyn.errors import InputFormatError, UnsupportedSystemError
from cantordyn.space import Clopen, Point, cylinder
from cantordyn.systems import (
    BVDiagram,
    BVSystem,
    Odometer,
    invariant_measure,
    load_system,
    minimality_evidence,
)
from cantordyn.towers import KRSequence

o2 = Odometer((), (2,))
o3 = Odometer((), (3,))


def bv_stationary_11() -> BVSystem:
    edges = [
        (0, 1, 0), (0, 2, 0),
        (1, 3, 0), (2, 3, 1),
        (1, 4, 0), (2, 4, 1),
    ]
    return BVSystem(BVDiagram([2, 2], edges, 2))


# three levels, in-degree 3, incoming orders that cross the source order
BV3 = {"bv": {
    "vertices": [2, 2, 2],
    "edges": [[0, 1, 0], [0, 2, 0], [1, 3, 0], [2, 3, 1], [1, 3, 2], [2, 4, 0],
              [1, 4, 1], [3, 5, 0], [4, 5, 1], [3, 6, 0], [4, 6, 1], [4, 6, 2]],
    "period_start": 2,
}}


def random_point(space, rng) -> Point:
    head = tuple(rng.randrange(space.size_at(i)) for i in range(rng.randint(0, 3)))
    k = len(head)
    tail = tuple(
        rng.randrange(space.size_at(k + i)) for i in range(rng.randint(1, 3))
    )
    try:
        return Point(space, head, tail)
    except InputFormatError:
        return Point(space, (), (0,))


def random_clopen(space, rng, max_depth=5) -> Clopen:
    d = rng.randint(0, max_depth)
    words = [w for w in space.words_at_depth(d) if rng.random() < 0.5]
    return Clopen.make(space, d, words)


# -- point dynamics -----------------------------------------------------------


def test_successor_of_zero():
    zero = Point(o2.space, (), (0,))
    assert o2.image_point(zero, 1) == Point(o2.space, (1,), (0,))


def test_carry_propagates_through_periodic_tail():
    ones = Point(o2.space, (), (1,))
    assert o2.image_point(ones, 1) == Point(o2.space, (), (0,))


def test_zero_power_is_identity():
    rng = random.Random(3)
    for sys_ in (o2, o3):
        for _ in range(10):
            x = random_point(sys_.space, rng)
            assert sys_.image_point(x, 0) == x


def test_image_point_inverse_round_trip():
    rng = random.Random(11)
    bv = bv_stationary_11()
    for sys_ in (o2, o3, bv):
        for _ in range(25):
            if sys_ is bv:
                x = sys_.image_point(sys_.min_point(), rng.randint(-40, 40))
            else:
                x = random_point(sys_.space, rng)
            k = rng.randint(-64, 64)
            assert sys_.image_point(sys_.image_point(x, k), -k) == x


def test_eventually_periodic_closed_under_successor():
    rng = random.Random(13)
    for _ in range(40):
        x = random_point(o2.space, rng)
        y = o2.image_point(x, 1)
        assert isinstance(y, Point)  # construction enforces periodicity


def test_step_word_follows_vershik_order():
    for sys_, pairs in ((bv_stationary_11(), 114), (load_system(BV3), 275)):
        seq = KRSequence(sys_)
        seen = 0
        for level in range(1, 7):
            for v in range(sys_.diagram.count_at(level)):
                paths = list(seq._paths_into(level, v))
                for p, q in zip(paths, paths[1:]):
                    assert sys_._step_word(p, True) == q
                    assert sys_._step_word(q, False) == p
                    seen += 1
                assert sys_._step_word(paths[-1], True) is None
                assert sys_._step_word(paths[0], False) is None
        assert seen == pairs


# -- clopen dynamics ------------------------------------------------------------


def test_image_of_first_cylinder():
    n0, n1 = cylinder(o2.space, (0,)), cylinder(o2.space, (1,))
    assert o2.image_clopen(n0, 1) == n1


def test_image_with_carry_splits_depth_two():
    n1 = cylinder(o2.space, (1,))
    img = o2.image_clopen(n1, 1)
    n0 = cylinder(o2.space, (0,))
    assert img == n0
    assert o2.image_clopen(cylinder(o2.space, (1, 0)), 1) == cylinder(
        o2.space, (0, 1)
    )
    assert o2.image_clopen(cylinder(o2.space, (1, 1)), 1) == cylinder(
        o2.space, (0, 0)
    )


def test_image_clopen_zero_power():
    rng = random.Random(17)
    for _ in range(20):
        a = random_clopen(o2.space, rng)
        assert o2.image_clopen(a, 0) == a


def test_image_clopen_respects_boolean_structure():
    rng = random.Random(19)
    for _ in range(40):
        a = random_clopen(o2.space, rng)
        b = random_clopen(o2.space, rng)
        k = rng.randint(-5, 5)
        assert o2.image_clopen(a.union(b), k) == o2.image_clopen(a, k).union(
            o2.image_clopen(b, k)
        )
        assert o2.image_clopen(a.complement(), k) == o2.image_clopen(
            a, k
        ).complement()


def test_point_clopen_consistency():
    rng = random.Random(23)
    for _ in range(40):
        a = random_clopen(o2.space, rng)
        x = random_point(o2.space, rng)
        k = rng.randint(-6, 6)
        assert a.contains_point(x) == o2.image_clopen(a, k).contains_point(
            o2.image_point(x, k)
        )


# -- invariant measure ------------------------------------------------------------


def test_measure_of_depth2_cylinder():
    assert invariant_measure(o2, cylinder(o2.space, (0, 1))) == Fraction(1, 4)


def test_measure_of_full_space():
    for sys_ in (o2, o3):
        assert invariant_measure(sys_, Clopen.full(sys_.space)) == 1


def test_measure_of_union_over_base3():
    a = cylinder(o3.space, (0,)).union(cylinder(o3.space, (1,)))
    assert invariant_measure(o3, a) == Fraction(2, 3)


def test_measure_invariance_to_depth5():
    rng = random.Random(29)
    for _ in range(40):
        a = random_clopen(o2.space, rng, max_depth=5)
        assert invariant_measure(o2, o2.image_clopen(a, 1)) == invariant_measure(
            o2, a
        )


def test_measure_rejects_bv_systems():
    bv = bv_stationary_11()
    with pytest.raises(UnsupportedSystemError):
        invariant_measure(bv, Clopen.full(bv.space))


# -- minimality evidence ------------------------------------------------------------


def test_odometer_is_certified():
    assert minimality_evidence(o2)["verdict"] == "certified"


def test_primitive_bv_evidence():
    rep = minimality_evidence(bv_stationary_11(), horizon=16)
    assert rep["verdict"] == "evidence-to-horizon"


def test_reducible_bv_fails():
    edges = [
        (0, 1, 0), (0, 2, 0),
        (1, 3, 0),
        (2, 4, 0),
    ]
    with pytest.raises(InputFormatError):
        # two incomparable vertical lines cannot give a properly ordered
        # minimal diagram; construction or evidence must reject it
        sys_ = BVSystem(BVDiagram([2, 2], edges, 2))
        rep = minimality_evidence(sys_, horizon=16)
        if rep["verdict"] != "failed":
            raise AssertionError(rep)
        raise InputFormatError("failed as expected")


def test_two_level_period_bv_evidence():
    # the period spans levels 2 and 3, so the telescoped matrix is a product
    rep = minimality_evidence(load_system(BV3))
    assert rep["verdict"] == "evidence-to-horizon"
    assert "positive at power 1" in rep["detail"]


def test_two_maximal_paths_rejected():
    edges = [[0, 1, 0], [0, 2, 0], [1, 3, 0], [2, 3, 1], [1, 3, 2], [1, 4, 0], [2, 4, 1]]
    with pytest.raises(InputFormatError) as err:
        load_system({"bv": {"vertices": [2, 2], "edges": edges, "period_start": 2}})
    assert str(err.value) == (
        "bv: diagram is not properly ordered: two distinct maximal paths pass "
        "through level-1 vertices 0 and 1"
    )


# -- descriptors ------------------------------------------------------------


def test_load_system_round_trip():
    sys_ = load_system({"odometer": {"prefix": [2], "period": [3, 4]}})
    assert isinstance(sys_, Odometer)
    assert load_system(sys_.to_json()).space.signature() == sys_.space.signature()
    bv = bv_stationary_11()
    again = load_system(bv.to_json())
    assert again.space.signature() == bv.space.signature()


def test_load_system_rejects_malformed():
    with pytest.raises(InputFormatError):
        load_system({"odometer": {"prefix": []}})
    with pytest.raises(InputFormatError):
        load_system({"mystery": {}})
