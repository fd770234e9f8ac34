"""Clopen algebra: canonical forms, Boolean laws, comparisons, literals."""

from __future__ import annotations

import random
import re

import pytest

from cantordyn.errors import InadmissibleWordError, InputFormatError, SpaceMismatchError
from cantordyn.space import (
    Clopen,
    Point,
    ProductSpace,
    boolean_op,
    cylinder,
    cylinder_at,
)
from cantordyn.systems import Odometer

o2 = Odometer((), (2,))
o3 = Odometer((), (3,))
SP2 = o2.space
SP3 = o3.space
SP12 = Odometer((), (12,)).space
SP2_12 = ProductSpace((2,), (12,))
SP22_12 = ProductSpace((2, 2), (12,))


def random_clopen(space, rng, max_depth=6) -> Clopen:
    d = rng.randint(0, max_depth)
    words = [w for w in space.words_at_depth(d) if rng.random() < 0.5]
    return Clopen.make(space, d, words)


# -- cylinders ---------------------------------------------------------------


def test_cylinder_basic():
    a = cylinder(SP2, (0,))
    assert a.depth == 1
    assert a.word_list() == [(0,)]


def test_cylinder_empty_word_is_full_space():
    assert cylinder(SP2, ()).is_full()


def test_cylinder_depth2_over_base3():
    a = cylinder(SP3, (0, 2))
    assert a.depth == 2
    assert a.word_list() == [(0, 2)]


def test_cylinder_rejects_inadmissible_word():
    with pytest.raises(InadmissibleWordError) as err:
        cylinder(SP2, (0, 2))
    assert "1" in str(err.value)  # failing junction index


# -- boolean operations ------------------------------------------------------


def test_union_of_sibling_cylinders_is_full():
    n0, n1 = cylinder(SP2, (0,)), cylinder(SP2, (1,))
    assert n0.union(n1).is_full()


def test_intersection_of_disjoint_cylinders_is_empty():
    n0, n1 = cylinder(SP2, (0,)), cylinder(SP2, (1,))
    assert n0.intersection(n1).is_empty()


def test_complement_of_depth2_cylinder():
    n00 = cylinder(SP2, (0, 0))
    comp = n00.complement()
    assert comp.depth == 2
    assert comp.word_list() == [(0, 1), (1, 0), (1, 1)]


def test_boolean_op_function_mirror():
    n0, n1 = cylinder(SP2, (0,)), cylinder(SP2, (1,))
    assert boolean_op("union", n0, n1).is_full()
    assert boolean_op("intersection", n0, n1).is_empty()
    assert boolean_op("complement", n0) == n1
    assert boolean_op("difference", n0, n1) == n0


def test_space_mismatch_rejected():
    with pytest.raises(SpaceMismatchError):
        cylinder(SP2, (0,)).union(cylinder(SP3, (0,)))


# -- canonical form ----------------------------------------------------------


def test_canonicalization_merges_complete_sibling_families():
    words = [(0, 0), (0, 1), (1, 0)]
    a = Clopen.make(SP2, 2, words)
    b = cylinder(SP2, (0,)).union(cylinder(SP2, (1, 0)))
    assert a == b
    full = Clopen.make(SP2, 3, SP2.words_at_depth(3))
    assert full.is_full() and full.depth == 0


def test_canonicalization_idempotent_on_random_clopens():
    rng = random.Random(2024)
    for _ in range(100):
        a = random_clopen(SP2, rng)
        again = Clopen.make(SP2, a.depth, a.word_list())
        assert again == a
        assert again.depth == a.depth and again.words == a.words


def test_deeper_presentation_recanonicalizes():
    rng = random.Random(5)
    for _ in range(60):
        a = random_clopen(SP3, rng, max_depth=3)
        deeper = Clopen.make(SP3, a.depth + 2, a.refined_words(a.depth + 2))
        assert deeper == a


def test_empty_clopen_normal_form():
    e = Clopen.make(SP2, 3, [])
    assert e.is_empty() and e.depth == 0 and not e.words


# -- boolean algebra laws (random) --------------------------------------------


def test_boolean_laws_random():
    rng = random.Random(77)
    for _ in range(60):
        a = random_clopen(SP2, rng)
        b = random_clopen(SP2, rng)
        c = random_clopen(SP2, rng)
        assert a.union(b.union(c)) == a.union(b).union(c)
        assert a.intersection(b.intersection(c)) == a.intersection(b).intersection(c)
        assert a.union(b).complement() == a.complement().intersection(b.complement())
        assert a.intersection(b).complement() == a.complement().union(b.complement())
        assert a.complement().complement() == a
        assert a.difference(b) == a.intersection(b.complement())


# -- compare ------------------------------------------------------------------


def brute_compare(a: Clopen, b: Clopen) -> str:
    d = max(a.depth, b.depth)
    wa, wb = set(a.refined_words(d)), set(b.refined_words(d))
    if wa == wb:
        return "equal"
    if wa <= wb:
        return "subset"
    if wb <= wa:
        return "superset"
    if not (wa & wb):
        return "disjoint"
    return "incomparable"


def test_compare_examples():
    n0 = cylinder(SP2, (0,))
    n00 = cylinder(SP2, (0, 0))
    n1 = cylinder(SP2, (1,))
    assert n0.compare(n0) == "equal"
    assert n00.compare(n0) == "subset"
    assert n0.compare(n00) == "superset"
    assert n0.compare(n1) == "disjoint"


def test_compare_matches_brute_force():
    rng = random.Random(31)
    for _ in range(200):
        a = random_clopen(SP2, rng, max_depth=4)
        b = random_clopen(SP2, rng, max_depth=4)
        assert a.compare(b) == brute_compare(a, b)


# -- membership ----------------------------------------------------------------


def test_contains_point_examples():
    zero = Point(SP2, (), (0,))
    n0, n1 = cylinder(SP2, (0,)), cylinder(SP2, (1,))
    assert n0.contains_point(zero)
    assert not n1.contains_point(zero)
    x = Point(SP2, (0,), (1,))
    assert cylinder(SP2, (0, 1)).contains_point(x)


# -- literals -------------------------------------------------------------------


def test_literal_round_trip():
    rng = random.Random(8)
    for _ in range(50):
        a = random_clopen(SP2, rng, max_depth=5)
        assert Clopen.parse(SP2, a.render()) == a


def test_word_literal_round_trip():
    # alphabets above 10: a rendered symbol 10 must not split into digits
    for space, word in (
        (SP12, (10,)),
        (SP12, (11,)),
        (SP12, (1, 1)),
        (SP12, (1, 1, 10)),
        (SP12, (0, 11, 3)),
        (SP22_12, (1, 0)),
        (SP22_12, (1, 1)),
        (SP22_12, (1, 1, 10)),
        (SP22_12, (0, 1, 5, 11)),
    ):
        c = cylinder(space, word)
        assert space.parse_word(space.render_word(word)) == word
        assert Clopen.parse(space, c.render()) == c
    rng = random.Random(12)
    for space in (SP12, SP22_12):
        for _ in range(20):
            c = random_clopen(space, rng, max_depth=3)
            assert Clopen.parse(space, c.render()) == c


def test_word_literal_dotless_runs():
    # narrow levels read one digit per symbol, as before
    assert SP22_12.parse_word("11") == (1, 1)
    assert SP2.parse_word("0110") == (0, 1, 1, 0)
    # over a wide level the run is one symbol, unless only digits are admissible
    assert SP12.parse_word("10") == (10,)
    assert SP12.parse_word("12") == (1, 2)
    assert SP22_12.parse_word("011") == (0, 1, 1)
    # a leading zero never starts a one-symbol run
    assert SP12.parse_word("01") == (0, 1)
    with pytest.raises(InadmissibleWordError):
        SP2_12.parse_word("22")


def test_special_literals():
    assert Clopen.parse(SP2, "X").is_full()
    assert Clopen.parse(SP2, "EMPTY").is_empty()
    assert Clopen.parse(SP2, "00+11").word_list() == [(0, 0), (1, 1)]


def test_point_literal_round_trip():
    x = Point(SP2, (0,), (1,))
    assert Point.parse(SP2, x.render()) == x
    zero = Point(SP2, (), (0,))
    assert Point.parse(SP2, zero.render()) == zero
    # alphabets above 10: symbols 10 and 11 must not split into digits
    for space, head, tail in (
        (SP12, (10,), (11,)),
        (SP12, (1, 0), (1, 1, 0)),
        (SP12, (), (0, 11)),
        (SP2_12, (0,), (11,)),
        (SP2_12, (1, 10), (0, 11)),
        (SP2_12, (), (1,)),
    ):
        p = Point(space, head, tail)
        assert Point.parse(space, p.render()) == p


def test_point_literal_narrow_alphabets_unchanged():
    assert Point.parse(SP2, "0.1") == Point(SP2, (0,), (1,))
    assert Point.parse(SP2, ".0") == Point(SP2, (), (0,))
    assert Point.parse(SP3, "01.12") == Point(SP3, (0, 1), (1, 2))
    assert Point.parse(SP3, "0.1.2") == Point(SP3, (0, 1), (2,))
    assert Point(SP3, (0, 1), (1, 2)).render() == "01.12"
    # the colon form is accepted on every space
    assert Point.parse(SP3, "0,1:1,2") == Point(SP3, (0, 1), (1, 2))


def test_point_literal_ambiguity_rejected():
    for space, text in (
        (SP12, "0.11"),
        (SP12, "10.1"),
        (SP12, "10.3.11"),
        (SP2_12, "1.10"),
    ):
        with pytest.raises(InputFormatError, match=re.escape(repr(text))):
            Point.parse(space, text)
    # single-digit runs read one way only
    assert Point.parse(SP12, "0.1") == Point(SP12, (0,), (1,))
    assert Point.parse(SP12, "10.3.5") == Point(SP12, (10, 3), (5,))
    assert Point.parse(SP12, "0:11") == Point(SP12, (0,), (11,))
    for text in ("x:1", ":", "1:", "1:2:3", "-1:0"):
        with pytest.raises(InputFormatError):
            Point.parse(SP12, text)


# -- canonical cylinder enumeration ---------------------------------------------


def test_cylinder_at_is_length_lex():
    words = [cylinder_at(SP2, n).word_list()[0] for n in range(1, 7)]
    assert words == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_point_normalization():
    a = Point(SP2, (0,), (0,))
    b = Point(SP2, (), (0,))
    assert a == b
    c = Point(SP2, (), (1, 1))
    d = Point(SP2, (), (1,))
    assert c == d
