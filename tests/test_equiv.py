"""Orbit and strong-orbit comparison engines."""

from __future__ import annotations

import random
from fractions import Fraction
from math import inf

import pytest

from cantordyn import (
    BVDiagram,
    BVSystem,
    Clopen,
    KRPartition,
    Odometer,
    PartialIso,
    PiecewisePower,
    Stuck,
    Tower,
    TowerPermutation,
    count_vector,
    base_point_witness,
    gamma_element,
    invariant_measure,
    kr_sequence,
    orbit_decide,
    piecewise_merge,
    soe_backandforth,
    soe_cocycle_report,
    soe_decide,
    supernatural_valuations,
)
from cantordyn.errors import (
    CapExceededError,
    InputFormatError,
    PiecewiseValidationError,
    RefinementDepthError,
    UnsupportedSystemError,
)

o2 = Odometer((), (2,))
o3 = Odometer((), (3,))
o4 = Odometer((), (4,))
o6 = Odometer((), (6,))
o10 = Odometer((), (10,))
o12 = Odometer((), (12,))
o23 = Odometer((), (2, 3))


def random_clopen(space, rng: random.Random, max_depth: int = 4) -> Clopen:
    d = rng.randint(1, max_depth)
    words = [w for w in space.words_at_depth(d) if rng.random() < 0.5]
    return Clopen.make(space, d, words)


# ---------------------------------------------------------------- count vectors

def test_count_vector_basic():
    seq = kr_sequence(o2, levels=2)
    xi = seq.level(2)
    n0 = Clopen.parse(o2.space, "0")
    cv = count_vector(xi, n0)
    assert cv.level == 2 and cv.counts == (2,)
    assert count_vector(xi, Clopen.empty(o2.space)).counts == (0,)
    assert count_vector(xi, Clopen.full(o2.space)).counts == (4,)
    assert cv.to_json() == {"level": 2, "counts": [2]}


def test_count_vector_rejects_non_union():
    seq = kr_sequence(o2, levels=1)
    with pytest.raises(InputFormatError):
        count_vector(seq.level(1), Clopen.parse(o2.space, "01"))


def test_count_vector_mixed_depth_atoms():
    # atoms of depths 1 and 2: each half is a union of atoms
    atoms = [Clopen.parse(o2.space, lit) for lit in ("0", "10", "11")]
    xi = KRPartition(0, [Tower([atom]) for atom in atoms], o2.space)
    xi.validate(o2)
    zero, one = Clopen.parse(o2.space, "0"), Clopen.parse(o2.space, "1")
    assert xi.contains_clopen(zero)
    assert count_vector(xi, zero).counts == (1, 0, 0)
    assert count_vector(xi, one).counts == (0, 1, 1)


def test_count_vector_additive_on_disjoint():
    rng = random.Random(88)
    seq = kr_sequence(o3, levels=3)
    xi = seq.level(3)
    for _ in range(10):
        words = list(o3.space.words_at_depth(3))
        rng.shuffle(words)
        cut = rng.randint(0, len(words))
        a = Clopen.make(o3.space, 3, words[:cut])
        b = Clopen.make(o3.space, 3, words[cut:])
        ca, cb = count_vector(xi, a).counts, count_vector(xi, b).counts
        cu = count_vector(xi, a.union(b)).counts
        assert tuple(x + y for x, y in zip(ca, cb)) == cu


# ---------------------------------------------------------------- orbit_decide

def test_orbit_decide_halves():
    seq = kr_sequence(o2, levels=1)
    a = Clopen.parse(o2.space, "0")
    b = Clopen.parse(o2.space, "1")
    st = orbit_decide(seq, a, b, max_level=3)
    assert st.verdict == "equivalent" and st.level == 1
    assert st.witness.perms == ((1, 0),)


def test_orbit_decide_measure_gap():
    seq = kr_sequence(o2, levels=1)
    st = orbit_decide(seq, Clopen.parse(o2.space, "00"), Clopen.parse(o2.space, "1"), 4)
    assert st.verdict == "distinct"
    assert st.measures == (Fraction(1, 4), Fraction(1, 2))
    assert st.to_json() == {"verdict": "CertifiedDistinct", "measures": ["1/4", "1/2"]}


def test_orbit_decide_identity_pair():
    seq = kr_sequence(o2, levels=1)
    a = Clopen.parse(o2.space, "0")
    st = orbit_decide(seq, a, a, 2)
    assert st.verdict == "equivalent"
    assert st.witness.is_identity()


def test_orbit_decide_not_yet_then_found():
    seq = kr_sequence(o2, levels=1)
    a = Clopen.parse(o2.space, "000+111")
    b = Clopen.parse(o2.space, "00")
    early = orbit_decide(seq, a, b, max_level=2)
    assert early.verdict == "not-yet" and early.scanned == 2
    data = early.to_json()
    assert data["verdict"] == "NotYetEquivalent" and data["scanned_level"] == 2
    late = orbit_decide(seq, a, b, max_level=4)
    assert late.verdict == "equivalent" and late.level == 3


def test_orbit_witness_soundness():
    rng = random.Random(2024)
    for sys_ in (o2, o3):
        seq = kr_sequence(sys_, levels=4)
        found = 0
        while found < 12:
            a = random_clopen(sys_.space, rng, max_depth=3)
            b = random_clopen(sys_.space, rng, max_depth=3)
            if a.is_empty() or b.is_empty():
                continue
            st = orbit_decide(seq, a, b, max_level=5)
            if st.verdict != "equivalent":
                continue
            g = gamma_element(sys_, seq.level(st.level), st.witness)
            assert g.image_of(a) == b
            found += 1


def test_orbit_decide_brute_force_cross_check():
    # level-2 clopens of the 2-adic odometer against the 24-element group
    import itertools

    seq = kr_sequence(o2, levels=2)
    xi = seq.level(2)
    words = sorted(o2.space.words_at_depth(2))
    gammas = [
        gamma_element(o2, xi, TowerPermutation(2, [perm]))
        for perm in itertools.permutations(range(4))
    ]
    rng = random.Random(7)
    for _ in range(40):
        wa = [w for w in words if rng.random() < 0.5]
        wb = [w for w in words if rng.random() < 0.5]
        a = Clopen.make(o2.space, 2, wa)
        b = Clopen.make(o2.space, 2, wb)
        st = orbit_decide(seq, a, b, max_level=2)
        brute = any(g.image_of(a) == b for g in gammas)
        assert (st.verdict == "equivalent") == brute
        assert brute == (len(wa) == len(wb))


# ---------------------------------------------------------------- base point witness

def test_base_point_witness_halves():
    seq1 = kr_sequence(o2, levels=1)
    seq2 = kr_sequence(o2, levels=1)
    a = Clopen.parse(o2.space, "0")
    b = Clopen.parse(o2.space, "1")
    tp = base_point_witness(seq1, seq2, a, b, level=1)
    g = gamma_element(o2, seq2.level(tp.level), tp)
    assert g.image_of(a) == b
    assert g.image_of(b) == a
    assert g.compose(g).is_identity()


def test_base_point_witness_equal_clopens_identity():
    seq1 = kr_sequence(o2, levels=1)
    seq2 = kr_sequence(o2, levels=1)
    a = Clopen.parse(o2.space, "0")
    tp = base_point_witness(seq1, seq2, a, a, level=1)
    assert tp.is_identity()


def test_base_point_witness_three_adic():
    seq1 = kr_sequence(o3, levels=1)
    seq2 = kr_sequence(o3, levels=1)
    a = Clopen.parse(o3.space, "0")
    b = Clopen.parse(o3.space, "2")
    tp = base_point_witness(seq1, seq2, a, b, level=1)
    g = gamma_element(o3, seq2.level(tp.level), tp)
    assert g.image_of(a) == b and g.image_of(b) == a
    assert g.compose(g).is_identity()


def test_base_point_witness_rejects_unequal_counts():
    seq1 = kr_sequence(o2, levels=1)
    seq2 = kr_sequence(o2, levels=1)
    with pytest.raises(InputFormatError):
        base_point_witness(
            seq1, seq2, Clopen.parse(o2.space, "00"), Clopen.parse(o2.space, "1"), 1
        )


def test_base_point_witness_random_pairs():
    rng = random.Random(4242)
    seq1 = kr_sequence(o2, levels=1)
    seq2 = kr_sequence(o2, levels=1)
    found = 0
    while found < 8:
        a = random_clopen(o2.space, rng, max_depth=2)
        b = random_clopen(o2.space, rng, max_depth=2)
        if a.is_empty() or b.is_empty():
            continue
        st = orbit_decide(seq1, a, b, max_level=3)
        if st.verdict != "equivalent":
            continue
        tp = base_point_witness(seq1, seq2, a, b, level=st.level)
        g = gamma_element(o2, seq2.level(tp.level), tp)
        assert g.image_of(a) == b and g.image_of(b) == a
        assert g.compose(g).is_identity()
        found += 1


# ---------------------------------------------------------------- piecewise merge

def test_piecewise_merge_single_part_backtrack():
    seq = kr_sequence(o2, levels=2)
    xi = seq.level(2)
    cyc = TowerPermutation(2, [[1, 2, 3, 0]])
    f = gamma_element(o2, xi, cyc)
    a = xi.atom(0, 0)
    merged = piecewise_merge(seq, f, [(a, cyc)], level=2)
    assert merged.perms == ((1, 0, 2, 3),)
    g = gamma_element(o2, xi, merged)
    assert g.image_of(a) == f.image_of(a)


def test_piecewise_merge_identity_outside():
    seq = kr_sequence(o2, levels=3)
    xi = seq.level(3)
    cyc = TowerPermutation(3, [[1, 2, 3, 4, 5, 6, 7, 0]])
    f = gamma_element(o2, xi, cyc)
    a = xi.atom(0, 2)
    merged = piecewise_merge(seq, f, [(a, cyc)], level=3)
    g = gamma_element(o2, xi, merged)
    assert g.image_of(a) == f.image_of(a)
    touched = a.union(f.image_of(a))
    for _, _, atom in xi.all_atoms():
        if atom.is_disjoint(touched):
            assert g.image_of(atom) == atom


def test_piecewise_merge_two_parts_different_witnesses():
    seq = kr_sequence(o2, levels=2)
    xi = seq.level(2)
    swap01 = TowerPermutation(2, [[1, 0, 2, 3]])
    swap23 = TowerPermutation(2, [[0, 1, 3, 2]])
    f = gamma_element(o2, xi, TowerPermutation(2, [[1, 0, 3, 2]]))
    a0, a2 = xi.atom(0, 0), xi.atom(0, 2)
    merged = piecewise_merge(seq, f, [(a0, swap01), (a2, swap23)], level=2)
    g = gamma_element(o2, xi, merged)
    assert g.image_of(a0) == f.image_of(a0)
    assert g.image_of(a2) == f.image_of(a2)


def test_piecewise_merge_rejects_overlap():
    seq = kr_sequence(o2, levels=2)
    xi = seq.level(2)
    tp = TowerPermutation(2, [[1, 0, 3, 2]])
    f = gamma_element(o2, xi, tp)
    n0 = Clopen.parse(o2.space, "0")
    n00 = Clopen.parse(o2.space, "00")
    with pytest.raises(PiecewiseValidationError):
        piecewise_merge(seq, f, [(n0, tp), (n00, tp)], level=2)


def test_piecewise_merge_overlap_message_and_witness():
    seq = kr_sequence(o2, levels=2)
    xi = seq.level(2)
    tp = TowerPermutation(2, [[1, 0, 3, 2]])
    f = gamma_element(o2, xi, tp)
    n0, n00, n1 = (Clopen.parse(o2.space, lit) for lit in ("0", "00", "1"))
    with pytest.raises(PiecewiseValidationError, match="^parts overlap$") as exc:
        piecewise_merge(seq, f, [(n1, tp), (n0, tp), (n00, tp)], level=2)
    assert exc.value.witness == n00
    # a bad witness on an earlier part is reported before a later overlap
    bad = TowerPermutation(2, [[2, 1, 0, 3]])
    a0 = xi.atom(0, 0)
    with pytest.raises(PiecewiseValidationError, match="^part witness disagrees") as exc:
        piecewise_merge(seq, f, [(a0, bad), (n0, tp)], level=2)
    assert exc.value.witness == a0


def test_piecewise_merge_rejects_bad_witness():
    seq = kr_sequence(o2, levels=2)
    xi = seq.level(2)
    f = gamma_element(o2, xi, TowerPermutation(2, [[1, 0, 3, 2]]))
    bad = TowerPermutation(2, [[2, 1, 0, 3]])  # moves atom 0 somewhere else
    with pytest.raises(PiecewiseValidationError):
        piecewise_merge(seq, f, [(xi.atom(0, 0), bad)], level=2)


def test_piecewise_merge_rejects_straddling_part():
    seq = kr_sequence(o2, levels=2)
    xi = seq.level(2)
    tp = TowerPermutation(2, [[1, 0, 3, 2]])
    f = gamma_element(o2, xi, tp)
    deep = Clopen.parse(o2.space, "000")  # half of a level-2 atom
    with pytest.raises(PiecewiseValidationError):
        piecewise_merge(seq, f, [(deep, tp)], level=2)


def test_piecewise_merge_randomized():
    rng = random.Random(31337)
    for sys_ in (o2, o3):
        seq = kr_sequence(sys_, levels=3)
        for _ in range(12):
            level = rng.randint(2, 3)
            xi = seq.level(level)
            perm = list(range(xi.towers[0].height))
            rng.shuffle(perm)
            tp = TowerPermutation(level, [perm])
            f = gamma_element(sys_, xi, tp)
            floors = rng.sample(range(xi.towers[0].height), rng.randint(1, 3))
            parts = [(xi.atom(0, j), tp) for j in floors]
            merged = piecewise_merge(seq, f, parts, level=level)
            g = gamma_element(sys_, xi, merged)
            for a_i, _ in parts:
                assert g.image_of(a_i) == f.image_of(a_i)
            union = parts[0][0]
            for a_i, _ in parts[1:]:
                union = union.union(a_i)
            assert g.image_of(union) == f.image_of(union)


# ---------------------------------------------------------------- valuations

def test_supernatural_valuations():
    assert supernatural_valuations(o2) == {2: inf}
    assert supernatural_valuations(o6) == {2: inf, 3: inf}
    assert supernatural_valuations(o23) == {2: inf, 3: inf}
    mixed = Odometer((12,), (5,))
    assert supernatural_valuations(mixed) == {2: 2, 3: 1, 5: inf}


def test_supernatural_valuations_rejects_non_odometer():
    edges = [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 1), (1, 4, 0), (2, 4, 1)]
    bv = BVSystem(BVDiagram([2, 2], edges, 2))
    with pytest.raises(UnsupportedSystemError):
        supernatural_valuations(bv)


# ---------------------------------------------------------------- soe_decide

def test_soe_decide_powers_of_two():
    v = soe_decide(o2, o4)
    assert v.equivalent and v.obstruction is None
    assert v.to_json() == {"verdict": "Equivalent"}


def test_soe_decide_two_vs_three():
    v = soe_decide(o2, o3)
    assert not v.equivalent
    ob = v.obstruction
    assert (ob.kind, ob.prime, ob.val1, ob.val2) == ("prime-valuation", 2, inf, 0)
    assert v.to_json() == {
        "verdict": "Distinct",
        "obstruction": {
            "kind": "prime-valuation",
            "prime": 2,
            "valuations": ["inf", 0],
        },
    }


def test_soe_decide_self_and_multiples():
    for sys_ in (o2, o3, o4, o6, o10, o12, o23):
        assert soe_decide(sys_, sys_).equivalent
    assert soe_decide(o6, o12).equivalent
    assert soe_decide(o6, o23).equivalent
    assert not soe_decide(o2, o23).equivalent
    assert soe_decide(o2, o23).obstruction.prime == 3
    assert not soe_decide(o10, o2).equivalent
    assert soe_decide(o10, o2).obstruction.prime == 5


def test_soe_decide_obstruction_soundness():
    # a distinct verdict's prime really does divide one side's towers only
    systems = (o2, o3, o4, o6, o10, o12, o23)
    for s1 in systems:
        for s2 in systems:
            v = soe_decide(s1, s2)
            if v.equivalent:
                continue
            p = v.obstruction.prime
            v1 = supernatural_valuations(s1).get(p, 0)
            v2 = supernatural_valuations(s2).get(p, 0)
            assert v1 != v2
            assert (v.obstruction.val1, v.obstruction.val2) == (v1, v2)


def test_soe_decide_rejects_non_odometer():
    edges = [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 1), (1, 4, 0), (2, 4, 1)]
    bv = BVSystem(BVDiagram([2, 2], edges, 2))
    with pytest.raises(UnsupportedSystemError):
        soe_decide(o2, bv)


# ---------------------------------------------------------------- back-and-forth

def test_backandforth_identity_ladder():
    pi = soe_backandforth(kr_sequence(o2), kr_sequence(o2), depth=3)
    assert isinstance(pi, PartialIso)
    assert len(pi.rungs) == 6
    assert [r.direction for r in pi.rungs] == [
        "forward", "backward", "forward", "backward", "forward", "backward"
    ]
    n0 = Clopen.parse(o2.space, "0")
    assert pi.map_of(n0) == n0
    for p, q in pi.pairs():
        assert invariant_measure(o2, p) == invariant_measure(o2, q)


def test_backandforth_two_vs_four():
    pi = soe_backandforth(kr_sequence(o2), kr_sequence(o4), depth=5)
    assert isinstance(pi, PartialIso)
    n0 = Clopen.parse(o2.space, "0")
    img = pi.map_of(n0)
    assert img.space.signature() == o4.space.signature()
    assert invariant_measure(o4, img) == Fraction(1, 2)
    for p, q in pi.pairs():
        assert invariant_measure(o2, p) == invariant_measure(o4, q)


def test_backandforth_two_vs_three_stuck():
    st = soe_backandforth(kr_sequence(o2), kr_sequence(o3), depth=4)
    assert isinstance(st, Stuck)
    assert st.level == 1
    assert st.reason.kind == "value-gap"
    assert st.reason.value == Fraction(1, 2)
    assert st.to_json() == {
        "verdict": "Stuck",
        "level": 1,
        "reason": {"kind": "value-gap", "value": "1/2"},
    }


def test_backandforth_agrees_with_decide():
    systems = (o2, o3, o4, o6, o10, o12, o23)
    for s1 in systems:
        for s2 in systems:
            v = soe_decide(s1, s2)
            bf = soe_backandforth(kr_sequence(s1), kr_sequence(s2), depth=3)
            assert v.equivalent == isinstance(bf, PartialIso)


def test_backandforth_bad_inputs():
    with pytest.raises(InputFormatError):
        soe_backandforth(kr_sequence(o2), kr_sequence(o2), depth=0)
    edges = [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 1), (1, 4, 0), (2, 4, 1)]
    bv = BVSystem(BVDiagram([2, 2], edges, 2))
    with pytest.raises(UnsupportedSystemError):
        soe_backandforth(kr_sequence(o2), kr_sequence(bv), depth=2)


def test_backandforth_replay_cap():
    pi = soe_backandforth(kr_sequence(o6), kr_sequence(o12), depth=7)
    assert isinstance(pi, PartialIso)  # the verdict itself is arithmetic
    with pytest.raises(CapExceededError):
        pi.pairs()


def test_map_of_rejects_unmatched_clopen():
    pi = soe_backandforth(kr_sequence(o2), kr_sequence(o2), depth=2)
    too_deep = Clopen.parse(o2.space, "0" * 12)
    with pytest.raises(InputFormatError):
        pi.map_of(too_deep)


# ---------------------------------------------------------------- cocycle report

def test_cocycle_report_identity_ladder():
    pi = soe_backandforth(kr_sequence(o2), kr_sequence(o2), depth=3)
    rep = soe_cocycle_report(pi)
    assert rep["shrinking"] is True
    measures = [Fraction(r["exceptional_measure"]) for r in rep["rungs"]]
    assert measures == [
        Fraction(1, 2), Fraction(1, 2),
        Fraction(1, 4), Fraction(1, 4),
        Fraction(1, 8), Fraction(1, 8),
    ]
    last = rep["rungs"][-1]
    # off the top chain the cocycle is constantly the successor itself
    assert all(j == 1 for _, j in last["constant_pieces"])
    assert last["exceptional"] == ["111"]


def test_cocycle_report_coverage_grows():
    pi = soe_backandforth(kr_sequence(o2), kr_sequence(o4), depth=5)
    rep = soe_cocycle_report(pi)
    assert rep["shrinking"] is True
    covered = [Fraction(r["covered_measure"]) for r in rep["rungs"]]
    assert covered[-1] >= 1 - Fraction(1, 2) ** 4
    assert covered == sorted(covered)


def test_cocycle_report_rejects_stuck():
    st = soe_backandforth(kr_sequence(o2), kr_sequence(o3), depth=2)
    with pytest.raises(InputFormatError):
        soe_cocycle_report(st)
