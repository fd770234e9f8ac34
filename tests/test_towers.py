"""Kakutani-Rokhlin partitions: construction, refinement, stacking, invariants."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantordyn import (
    BVDiagram,
    BVSystem,
    Clopen,
    KRPartition,
    Odometer,
    Point,
    Tower,
    atom_at,
    count_vector,
    invariant_measure,
    kr_from_clopen,
    kr_sequence,
    refine_with_clopen,
    stacking_map_between,
)
from cantordyn.errors import InputFormatError
from cantordyn.errors import CapExceededError

o2 = Odometer((), (2,))
o3 = Odometer((), (3,))


def bv_stationary_11() -> BVSystem:
    edges = [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 1), (1, 4, 0), (2, 4, 1)]
    return BVSystem(BVDiagram([2, 2], edges, 2))


def random_clopen(space, rng: random.Random, max_depth: int = 5) -> Clopen:
    d = rng.randint(1, max_depth)
    words = [w for w in space.words_at_depth(d) if rng.random() < 0.5]
    return Clopen.make(space, d, words)


# ---------------------------------------------------------------- kr_from_clopen

def test_kr_from_half_cylinder_two_adic():
    xi = kr_from_clopen(o2, Clopen.parse(o2.space, "0"))
    assert len(xi.towers) == 1
    t = xi.towers[0]
    assert [f.render() for f in t.atoms] == ["0", "1"]
    assert xi.heights() == [2]


def test_kr_from_third_cylinder():
    xi = kr_from_clopen(o3, Clopen.parse(o3.space, "0"))
    assert xi.heights() == [3]
    assert [f.render() for f in xi.towers[0].atoms] == ["0", "1", "2"]


def test_kr_from_full_space_is_trivial():
    xi = kr_from_clopen(o2, Clopen.full(o2.space))
    assert xi.heights() == [1]
    assert xi.towers[0].atoms[0] == Clopen.full(o2.space)


def test_kr_from_union_base_two_towers():
    # base {00, 01, 10}: cylinders group by first-return time
    base = Clopen.parse(o2.space, "00+01+10")
    xi = kr_from_clopen(o2, base)
    assert sorted(xi.heights()) == [1, 2]
    assert xi.base_union() == base
    xi.validate(o2)


def test_kr_from_empty_base_rejected():
    with pytest.raises(Exception):
        kr_from_clopen(o2, Clopen.empty(o2.space))


def test_kr_return_cap():
    # a tiny cap forces the first-return scan to give up
    with pytest.raises(CapExceededError):
        kr_from_clopen(o2, Clopen.parse(o2.space, "000000"), cap=3)


# ---------------------------------------------------------------- validity

def check_kr_validity(sys_, xi: KRPartition) -> None:
    """The dynamical tower conditions, checked against image_clopen."""
    xi.validate(sys_)
    for t in xi.towers:
        for j in range(1, len(t.atoms)):
            assert sys_.image_clopen(t.atoms[j - 1], 1) == t.atoms[j]
    # tops map back onto the union of bases
    tops = None
    for t in xi.towers:
        img = sys_.image_clopen(t.atoms[-1], 1)
        tops = img if tops is None else tops.union(img)
    assert tops == xi.base_union()


def check_partition_properties(sys_, xi: KRPartition) -> None:
    # (i) atoms are pairwise disjoint and cover the space
    atoms = [a for _, _, a in xi.all_atoms()]
    whole = Clopen.empty(sys_.space)
    for k, a in enumerate(atoms):
        assert not a.is_empty()
        for b in atoms[k + 1:]:
            assert a.is_disjoint(b)
        whole = whole.union(a)
    assert whole == Clopen.full(sys_.space)
    # (ii) each tower's floors share a common depth ceiling
    assert xi.max_depth() >= 0
    # (iii) base union and top union are complementary images
    assert sys_.image_clopen(xi.top_union(), 1) == xi.base_union()


def test_validity_examples():
    for sys_, lit in ((o2, "0"), (o3, "0"), (o2, "00+01+10")):
        xi = kr_from_clopen(sys_, Clopen.parse(sys_.space, lit))
        check_kr_validity(sys_, xi)
        check_partition_properties(sys_, xi)


def test_validate_names_the_first_overlap_and_a_gap():
    n0, n1, n00 = (Clopen.parse(o2.space, lit) for lit in ("0", "1", "00"))
    overlapping = KRPartition(1, [Tower([n1]), Tower([n0, n00])], o2.space)
    with pytest.raises(InputFormatError, match="^atoms overlap at tower 1 floor 1$"):
        overlapping.validate(o2)
    gapped = KRPartition(1, [Tower([n00]), Tower([n1])], o2.space)
    with pytest.raises(InputFormatError, match="^atoms do not cover the space$"):
        gapped.validate(o2)


def test_validity_random_bases():
    rng = random.Random(1009)
    for _ in range(25):
        sys_ = rng.choice((o2, o3))
        a = random_clopen(sys_.space, rng, max_depth=4)
        if a.is_empty():
            continue
        xi = kr_from_clopen(sys_, a)
        check_kr_validity(sys_, xi)


# ---------------------------------------------------------------- refinement

def test_refine_splits_base():
    xi = kr_from_clopen(o2, Clopen.parse(o2.space, "0"))
    a = Clopen.parse(o2.space, "00")
    xi2 = refine_with_clopen(o2, xi, a)
    assert xi2.contains_clopen(a)
    check_kr_validity(o2, xi2)
    # the refined partition also still contains every original atom's trace
    for _, _, orig in xi.all_atoms():
        assert xi2.contains_clopen(orig)


def test_refine_with_full_space_is_noop():
    xi = kr_from_clopen(o2, Clopen.parse(o2.space, "0"))
    xi2 = refine_with_clopen(o2, xi, Clopen.full(o2.space))
    assert xi2.heights() == xi.heights()
    assert list(xi2.all_atoms()) == list(xi.all_atoms())


def test_refine_with_already_contained_clopen_is_noop():
    xi = kr_from_clopen(o2, Clopen.parse(o2.space, "0"))
    a = xi.towers[0].atoms[1]  # the atom "1" is already in the algebra
    xi2 = refine_with_clopen(o2, xi, a)
    assert list(xi2.all_atoms()) == list(xi.all_atoms())


def test_refine_random_targets_become_visible():
    rng = random.Random(4111)
    for _ in range(20):
        sys_ = rng.choice((o2, o3))
        xi = kr_from_clopen(sys_, Clopen.parse(sys_.space, "0"))
        a = random_clopen(sys_.space, rng, max_depth=3)
        xi2 = refine_with_clopen(sys_, xi, a)
        assert xi2.contains_clopen(a)
        check_kr_validity(sys_, xi2)


# ---------------------------------------------------------------- atom unions

@functools.cache
def atom_union_partitions() -> list:
    bv = bv_stationary_11()
    seqs = [
        kr_sequence(o2, levels=3),
        kr_sequence(o3, levels=3),
        kr_sequence(Odometer((), (2, 3)), levels=3),
        kr_sequence(bv, levels=3),
        # a shifted base point takes the generic first-return towers
        kr_sequence(bv, bv.image_point(bv.min_point(), 1), levels=3),
    ]
    parts = [seq.level(n) for seq in seqs for n in (1, 2, 3)]
    # atoms of depths 1 and 2
    mixed = [Clopen.parse(o2.space, lit) for lit in ("0", "10", "11")]
    parts.append(KRPartition(0, [Tower([atom]) for atom in mixed], o2.space))
    return parts


def brute_floors_inside(xi: KRPartition, a: Clopen):
    """Reference atom-union test: one subset test per atom, then a union."""
    floors = [[j for j, atom in enumerate(t.atoms) if atom.is_subset(a)] for t in xi.towers]
    union = Clopen.empty(xi.space)
    for t, inside in zip(xi.towers, floors):
        for j in inside:
            union = union.union(t.atoms[j])
    return floors if union == a else None


@st.composite
def partitions_and_clopens(draw):
    """A partition, a random union of its atoms and a random clopen."""
    xi = draw(st.sampled_from(atom_union_partitions()))
    chosen = [[draw(st.booleans()) for _ in t.atoms] for t in xi.towers]
    union = Clopen.empty(xi.space)
    for t, picks in zip(xi.towers, chosen):
        for atom, pick in zip(t.atoms, picks):
            if pick:
                union = union.union(atom)
    floors = [[j for j, pick in enumerate(picks) if pick] for picks in chosen]
    depth = draw(st.integers(0, xi.max_depth() + 1))
    words = xi.space.words_at_depth(depth)
    picks = draw(st.lists(st.booleans(), min_size=len(words), max_size=len(words)))
    clopen = Clopen.make(xi.space, depth, [w for w, pick in zip(words, picks) if pick])
    return xi, union, floors, clopen


@settings(max_examples=150, deadline=None)
@given(partitions_and_clopens())
def test_floors_inside_matches_brute_force(case):
    xi, union, floors, clopen = case
    assert xi.floors_inside(union) == floors
    assert brute_floors_inside(xi, union) == floors
    assert xi.contains_clopen(union)
    expected = brute_floors_inside(xi, clopen)
    assert xi.floors_inside(clopen) == expected
    assert xi.contains_clopen(clopen) == (expected is not None)


# ---------------------------------------------------------------- sequences

def test_sequence_two_adic_heights_and_bases():
    seq = kr_sequence(o2, levels=3)
    assert seq.level(1).heights() == [2]
    assert seq.level(2).heights() == [4]
    assert seq.level(3).heights() == [8]
    assert seq.level(1).base_union() == Clopen.parse(o2.space, "0")
    assert seq.level(2).base_union() == Clopen.parse(o2.space, "00")
    assert seq.level(3).base_union() == Clopen.parse(o2.space, "000")


def test_sequence_level_zero_is_trivial():
    seq = kr_sequence(o2, levels=1)
    xi0 = seq.level(0)
    assert xi0.heights() == [1]
    assert xi0.towers[0].atoms[0] == Clopen.full(o2.space)


def test_sequence_three_adic():
    seq = kr_sequence(o3, levels=2)
    assert seq.level(1).heights() == [3]
    assert seq.level(2).heights() == [9]


def test_sequence_bv_stationary():
    sys_ = bv_stationary_11()
    seq = kr_sequence(sys_, levels=3)
    assert sorted(seq.level(1).heights()) == [2, 2]
    assert sorted(seq.level(2).heights()) == [4, 4]
    assert sorted(seq.level(3).heights()) == [8, 8]
    for n in (1, 2, 3):
        check_kr_validity(sys_, seq.level(n))


def test_sequence_bases_nest():
    for sys_ in (o2, o3, bv_stationary_11()):
        seq = kr_sequence(sys_, levels=4)
        for n in range(1, 4):
            hi = seq.level(n + 1).base_union()
            lo = seq.level(n).base_union()
            assert hi.is_subset(lo)
            assert min(seq.level(n + 1).heights()) > min(seq.level(n).heights())


def test_sequence_refines_downward():
    seq = kr_sequence(o2, levels=3)
    for n in range(1, 3):
        finer = seq.level(n + 1)
        for _, _, a in seq.level(n).all_atoms():
            assert finer.contains_clopen(a)


# ---------------------------------------------------------------- stacking maps

def test_stacking_two_adic():
    seq = kr_sequence(o2, levels=2)
    sm = seq.map(1)
    assert sm.order == [[0, 0]]
    assert sm.mult == [[2]]


def test_stacking_three_adic():
    seq = kr_sequence(o3, levels=2)
    sm = seq.map(1)
    assert sm.order == [[0, 0, 0]]
    assert sm.mult == [[3]]


def test_stacking_identity():
    xi = kr_from_clopen(o2, Clopen.parse(o2.space, "0"))
    sm = stacking_map_between(xi, xi)
    assert sm.order == [[0]]
    assert sm.mult == [[1]]


def test_stacking_bv_matrix():
    sys_ = bv_stationary_11()
    seq = kr_sequence(sys_, levels=2)
    sm = seq.map(1)
    # every level-2 tower stacks one copy of each level-1 tower
    assert sorted(sorted(row) for row in sm.mult) == [[1, 1], [1, 1]]


def test_stacking_height_additivity():
    for sys_ in (o2, o3, bv_stationary_11()):
        seq = kr_sequence(sys_, levels=3)
        for n in (1, 2):
            lo, hi, sm = seq.level(n), seq.level(n + 1), seq.map(n)
            for k, row in enumerate(sm.mult):
                assert hi.heights()[k] == sum(
                    m * lo.heights()[i] for i, m in enumerate(row)
                )


def test_count_additivity():
    # atom counts compose through the stacking multiplicities
    rng = random.Random(2203)
    checked = 0
    for sys_ in (o2, o3):
        seq = kr_sequence(sys_, levels=4)
        for _ in range(10):
            a = random_clopen(sys_.space, rng, max_depth=2)
            for n in (1, 2, 3):
                sm = seq.map(n)
                try:
                    lo = count_vector(seq.level(n), a).counts
                    hi = count_vector(seq.level(n + 1), a).counts
                except InputFormatError:
                    continue  # not a union of atoms at this level
                for k, row in enumerate(sm.mult):
                    assert hi[k] == sum(m * lo[i] for i, m in enumerate(row))
                checked += 1
    assert checked >= 10


# ---------------------------------------------------------------- atom_at

def test_atom_at_level_two():
    seq = kr_sequence(o2, levels=2)
    xi = seq.level(2)
    zero = o2.min_point()
    assert atom_at(xi, zero) == (0, 0)
    assert atom_at(xi, o2.image_point(zero, 1)) == (0, 1)
    ones = Point(o2.space, (), (1,))
    assert atom_at(xi, ones) == (0, 3)


def test_atom_at_tracks_dynamics():
    rng = random.Random(907)
    for sys_ in (o2, o3):
        seq = kr_sequence(sys_, levels=3)
        xi = seq.level(3)
        x = sys_.image_point(sys_.min_point(), rng.randint(0, 50))
        for _ in range(40):
            i, j = atom_at(xi, x)
            x2 = sys_.image_point(x, 1)
            i2, j2 = atom_at(xi, x2)
            if j + 1 < xi.heights()[i]:
                assert (i2, j2) == (i, j + 1)
            else:
                assert j2 == 0
            x = x2


def test_atom_at_agrees_with_membership():
    rng = random.Random(31)
    seq = kr_sequence(o2, levels=3)
    xi = seq.level(3)
    for _ in range(30):
        x = o2.image_point(o2.min_point(), rng.randint(-100, 100))
        i, j = atom_at(xi, x)
        assert xi.atom(i, j).contains_point(x)


# ---------------------------------------------------------------- measures

def test_height_measure_identity():
    # sum of H_i * mu(base_i) = 1 over every level
    for sys_ in (o2, o3):
        seq = kr_sequence(sys_, levels=4)
        for n in (1, 2, 3, 4):
            xi = seq.level(n)
            total = sum(
                h * invariant_measure(sys_, t.atoms[0])
                for h, t in zip(xi.heights(), xi.towers)
            )
            assert total == Fraction(1)
