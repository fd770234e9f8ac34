"""Topological full group machinery: piecewise powers, tower permutations,
membership, signs, commutators, dense approximation, involutions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from _oracle import (
    reference_compose,
    reference_image_of,
    reference_inverse,
    reference_make,
    reference_support,
)
from cantordyn import (
    BVDiagram,
    BVSystem,
    Clopen,
    Odometer,
    PiecewisePower,
    TowerPermutation,
    as_level_permutation,
    derived_approx,
    embed_level,
    embed_to,
    gamma_element,
    in_commutator,
    involution_in,
    kr_sequence,
    membership_gamma,
    perm_sign,
    propagate_signs,
    sign_vector,
    validate_piecewise,
)
from cantordyn.errors import InputFormatError, PiecewiseValidationError

o2 = Odometer((), (2,))
o3 = Odometer((), (3,))
o23 = Odometer((), (2, 3))
bv11 = BVSystem(
    BVDiagram([2, 2], [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 1), (1, 4, 0), (2, 4, 1)], 2)
)


def swap_level1(sys_) -> TowerPermutation:
    """Transpose the two lowest floors of the single level-1 tower."""
    seq = kr_sequence(sys_, levels=1)
    h = seq.level(1).heights()[0]
    perm = list(range(h))
    perm[0], perm[1] = 1, 0
    return TowerPermutation(1, [perm])


def random_tower_perm(seq, level: int, rng: random.Random) -> TowerPermutation:
    xi = seq.level(level)
    perms = []
    for t in xi.towers:
        p = list(range(t.height))
        rng.shuffle(p)
        perms.append(p)
    return TowerPermutation(level, perms)


# ---------------------------------------------------------------- perm_sign

def test_perm_sign_examples():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    assert perm_sign((1, 0, 3, 2)) == 1
    assert perm_sign((3, 2, 1, 0)) == 1
    assert perm_sign((0, 2, 1, 3)) == -1


def test_perm_sign_multiplicative():
    rng = random.Random(5)
    for _ in range(50):
        p = list(range(6))
        q = list(range(6))
        rng.shuffle(p)
        rng.shuffle(q)
        pq = [p[q[i]] for i in range(6)]
        assert perm_sign(pq) == perm_sign(p) * perm_sign(q)


# ---------------------------------------------------------------- tower perms

def test_tower_perm_rejects_non_permutation():
    with pytest.raises(InputFormatError):
        TowerPermutation(1, [[0, 0]])


def test_tower_perm_validate_against():
    seq = kr_sequence(o2, levels=2)
    tp = TowerPermutation(1, [[1, 0]])
    tp.validate_against(seq.level(1))
    with pytest.raises(InputFormatError):
        tp.validate_against(seq.level(2))
    with pytest.raises(InputFormatError):
        TowerPermutation(2, [[0, 1]]).validate_against(seq.level(2))


# ---------------------------------------------------------------- piecewise algebra

def test_identity_element():
    e = PiecewisePower.identity(o2)
    assert e.is_identity()
    assert e.pieces == ((Clopen.full(o2.space), 0),)
    x = o2.min_point()
    assert e.apply_point(x) == x


def test_make_merges_by_power_and_orders_zigzag():
    n0 = Clopen.parse(o2.space, "0")
    n10 = Clopen.parse(o2.space, "10")
    n11 = Clopen.parse(o2.space, "11")
    el = PiecewisePower.make(o2, [(n10, -1), (n0, 1), (n11, -1)], validate=False)
    assert [k for _, k in el.pieces] == [1, -1]
    assert el.pieces[1][0] == Clopen.parse(o2.space, "1")
    # a split description of the shift merges back into a single piece
    n1 = Clopen.parse(o2.space, "1")
    sigma = PiecewisePower.make(o2, [(n1, 1), (n0, 1)], validate=False)
    assert sigma.pieces == ((Clopen.full(o2.space), 1),)


def test_validate_piecewise_overlap_witness():
    n0 = Clopen.parse(o2.space, "0")
    n00 = Clopen.parse(o2.space, "00")
    with pytest.raises(PiecewiseValidationError) as exc:
        validate_piecewise(o2, [(n0, 0), (n00, 1)])
    assert exc.value.witness == n00


def test_validate_piecewise_cover_witness():
    n0 = Clopen.parse(o2.space, "0")
    with pytest.raises(PiecewiseValidationError) as exc:
        validate_piecewise(o2, [(n0, 0)])
    assert exc.value.witness == Clopen.parse(o2.space, "1")


def test_validate_piecewise_image_overlap():
    # both pieces land inside N_1: domains partition, images collide
    n0 = Clopen.parse(o2.space, "0")
    n1 = Clopen.parse(o2.space, "1")
    with pytest.raises(PiecewiseValidationError):
        validate_piecewise(o2, [(n0, 1), (n1, 0)])


def test_swap_element_action():
    seq = kr_sequence(o2, levels=1)
    g = gamma_element(o2, seq.level(1), swap_level1(o2))
    n0 = Clopen.parse(o2.space, "0")
    n1 = Clopen.parse(o2.space, "1")
    assert g.pieces == ((n0, 1), (n1, -1))
    assert g.image_of(n0) == n1
    assert g.image_of(n1) == n0
    assert g.compose(g).is_identity()
    assert g.inverse() == g
    assert g.support() == Clopen.full(o2.space)


def test_three_adic_gamma_pieces():
    seq = kr_sequence(o3, levels=1)
    g = gamma_element(o3, seq.level(1), TowerPermutation(1, [[1, 0, 2]]))
    n0 = Clopen.parse(o3.space, "0")
    n1 = Clopen.parse(o3.space, "1")
    n2 = Clopen.parse(o3.space, "2")
    assert g.pieces == ((n2, 0), (n0, 1), (n1, -1))
    assert g.support() == n0.union(n1)


def test_compose_cocycle_additivity():
    rng = random.Random(23)
    seq = kr_sequence(o2, levels=3)
    for _ in range(15):
        f = gamma_element(o2, seq.level(2), random_tower_perm(seq, 2, rng))
        g = gamma_element(o2, seq.level(3), random_tower_perm(seq, 3, rng))
        fg = f.compose(g)
        for k in range(12):
            x = o2.image_point(o2.min_point(), k)
            assert fg.cocycle_at(x) == f.cocycle_at(g.apply_point(x)) + g.cocycle_at(x)
            assert fg.apply_point(x) == f.apply_point(g.apply_point(x))


def test_inverse_round_trip():
    rng = random.Random(71)
    for sys_ in (o2, o3):
        seq = kr_sequence(sys_, levels=2)
        for _ in range(10):
            g = gamma_element(sys_, seq.level(2), random_tower_perm(seq, 2, rng))
            assert g.compose(g.inverse()).is_identity()
            assert g.inverse().compose(g).is_identity()


def test_json_round_trip():
    rng = random.Random(9)
    seq = kr_sequence(o3, levels=2)
    for _ in range(8):
        g = gamma_element(o3, seq.level(2), random_tower_perm(seq, 2, rng))
        assert PiecewisePower.from_json(o3, g.to_json()) == g


# ---------------------------------------------------------------- against the running union

SEQS = {sys_: kr_sequence(sys_, levels=3) for sys_ in (o2, o3, o23, bv11)}


@st.composite
def clopens(draw, space, max_depth: int = 3) -> Clopen:
    d = draw(st.integers(0, max_depth))
    words = space.words_at_depth(d)
    picks = draw(st.lists(st.booleans(), min_size=len(words), max_size=len(words)))
    return Clopen.make(space, d, [w for w, pick in zip(words, picks) if pick])


@st.composite
def piece_lists(draw, sys_):
    """Domains that partition, leave a gap or overlap, with powers in [-3, 3].

    Random powers make many partitions image-overlapping.
    """
    space = sys_.space
    d = draw(st.integers(0, 3))
    words = space.words_at_depth(d)
    labels = draw(st.lists(st.integers(0, 3), min_size=len(words), max_size=len(words)))
    pieces = [
        (Clopen.make(space, d, [w for w, lab in zip(words, labels) if lab == i]),
         draw(st.integers(-3, 3)))
        for i in sorted(set(labels))
    ]
    kind = draw(st.sampled_from(["partition", "gapped", "overlapping"]))
    if kind == "gapped":
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    elif kind == "overlapping":
        pieces.append((draw(clopens(space)), draw(st.integers(-3, 3))))
    return draw(st.permutations(pieces))


@st.composite
def gamma_elements(draw, sys_):
    seq = SEQS[sys_]
    level = draw(st.integers(1, 3))
    perms = [draw(st.permutations(range(t.height))) for t in seq.level(level).towers]
    return gamma_element(sys_, seq.level(level), TowerPermutation(level, perms))


def make_outcome(make, sys_, pieces):
    try:
        return make(sys_, pieces), None
    except PiecewiseValidationError as exc:
        return None, (str(exc), exc.witness)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_piecewise_matches_running_union(data):
    sys_ = data.draw(st.sampled_from([o2, o3, o23, bv11]))
    pieces = data.draw(piece_lists(sys_))
    assert PiecewisePower.make(sys_, pieces, validate=False) == reference_make(
        sys_, pieces, validate=False
    )
    el, error = make_outcome(PiecewisePower.make, sys_, pieces)
    assert (el, error) == make_outcome(reference_make, sys_, pieces)
    f = el if el is not None else data.draw(gamma_elements(sys_))
    g = data.draw(gamma_elements(sys_))
    for x, y in ((f, g), (g, f), (f, f), (f, f.inverse())):
        assert x.compose(y) == reference_compose(x, y)
    assert f.inverse() == reference_inverse(f)
    a = data.draw(clopens(sys_.space))
    assert f.image_of(a) == reference_image_of(f, a)
    assert f.support() == reference_support(f)


def test_gamma_element_is_a_homomorphism():
    rng = random.Random(17)
    for sys_, seq in SEQS.items():
        for level in (1, 2, 3):
            xi = seq.level(level)
            for _ in range(20):
                p = random_tower_perm(seq, level, rng)
                q = random_tower_perm(seq, level, rng)
                assert gamma_element(sys_, xi, p.compose(q)) == gamma_element(
                    sys_, xi, p
                ).compose(gamma_element(sys_, xi, q))
                assert gamma_element(sys_, xi, p.inverse()) == gamma_element(
                    sys_, xi, p
                ).inverse()


# ---------------------------------------------------------------- gamma / embed

def test_embed_swap_one_level():
    seq = kr_sequence(o2, levels=2)
    emb = embed_level(swap_level1(o2), seq.map(1))
    assert emb.level == 2
    assert emb.perms == ((1, 0, 3, 2),)


def test_embed_three_adic():
    seq = kr_sequence(o3, levels=2)
    emb = embed_level(TowerPermutation(1, [[1, 0, 2]]), seq.map(1))
    assert emb.perms == ((1, 0, 2, 4, 3, 5, 7, 6, 8),)


def test_embed_preserves_homeomorphism():
    rng = random.Random(101)
    for sys_ in (o2, o3):
        seq = kr_sequence(sys_, levels=4)
        for _ in range(10):
            lvl = rng.randint(1, 2)
            tp = random_tower_perm(seq, lvl, rng)
            g = gamma_element(sys_, seq.level(lvl), tp)
            emb = embed_to(seq, tp, lvl + 2)
            assert gamma_element(sys_, seq.level(lvl + 2), emb) == g


def test_embed_to_rejects_downward():
    seq = kr_sequence(o2, levels=3)
    tp = TowerPermutation(3, [list(range(8))])
    with pytest.raises(InputFormatError):
        embed_to(seq, tp, 2)


def test_as_level_permutation_round_trip():
    rng = random.Random(333)
    for sys_ in (o2, o3):
        seq = kr_sequence(sys_, levels=3)
        for lvl in (1, 2):
            for _ in range(6):
                tp = random_tower_perm(seq, lvl, rng)
                g = gamma_element(sys_, seq.level(lvl), tp)
                rec = as_level_permutation(seq, g)
                back = gamma_element(sys_, seq.level(rec.level), rec)
                assert back == g


# ---------------------------------------------------------------- membership

def test_membership_yes_for_gamma_elements():
    rng = random.Random(404)
    for sys_ in (o2, o3):
        seq = kr_sequence(sys_, levels=3)
        x0 = sys_.min_point()
        for _ in range(10):
            lvl = rng.randint(1, 3)
            g = gamma_element(sys_, seq.level(lvl), random_tower_perm(seq, lvl, rng))
            res = membership_gamma(sys_, x0, g)
            assert res.member
            assert res.witness is None
            for _, k, m, mb in res.bounds:
                assert -m <= k <= -mb - 1


def test_membership_no_for_shift():
    x0 = o2.min_point()
    sigma = PiecewisePower.make(o2, [(Clopen.full(o2.space), 1)])
    res = membership_gamma(o2, x0, sigma)
    assert not res.member
    dom, k, m, mb = res.witness
    assert (k, [-m, -mb - 1]) == (1, [0, 0])
    data = res.to_json()
    assert data["witness"]["allowed"] == [0, 0]

    inv = PiecewisePower.make(o2, [(Clopen.full(o2.space), -1)])
    assert not membership_gamma(o2, x0, inv).member
    sq = PiecewisePower.make(o2, [(Clopen.full(o2.space), 2)])
    assert not membership_gamma(o2, x0, sq).member


def test_membership_no_for_shifted_gamma():
    rng = random.Random(555)
    sigma = PiecewisePower.make(o2, [(Clopen.full(o2.space), 1)])
    seq = kr_sequence(o2, levels=2)
    x0 = o2.min_point()
    for _ in range(10):
        g = gamma_element(o2, seq.level(2), random_tower_perm(seq, 2, rng))
        assert not membership_gamma(o2, x0, sigma.compose(g)).member
        assert not membership_gamma(o2, x0, g.compose(sigma)).member


def test_members_permute_forward_orbit():
    # spot check: members send the first 32 orbit points into the forward orbit
    rng = random.Random(616)
    seq = kr_sequence(o3, levels=3)
    x0 = o3.min_point()
    for _ in range(5):
        g = gamma_element(o3, seq.level(3), random_tower_perm(seq, 3, rng))
        assert membership_gamma(o3, x0, g).member
        seen = set()
        for k in range(32):
            x = o3.image_point(x0, k)
            j = k + g.cocycle_at(x)
            assert j >= 0
            assert g.apply_point(x) == o3.image_point(x0, j)
            seen.add(j)
        assert len(seen) == 32


# ---------------------------------------------------------------- signs

def test_sign_vector_swap():
    sv = sign_vector(swap_level1(o2))
    assert sv.level == 1 and sv.signs == (-1,)
    assert not sv.all_even()


def test_propagate_signs_two_adic():
    seq = kr_sequence(o2, levels=3)
    sv = sign_vector(swap_level1(o2))
    up = propagate_signs(sv, seq.map(1))
    assert up.level == 2 and up.signs == (1,)


def test_propagate_signs_three_adic_stays_odd():
    # odd number of stacked copies keeps the sign alive forever
    seq = kr_sequence(o3, levels=6)
    sv = sign_vector(TowerPermutation(1, [[1, 0, 2]]))
    for n in range(1, 6):
        assert sv.signs == (-1,)
        sv = propagate_signs(sv, seq.map(n))
    assert sv.signs == (-1,)


def test_propagate_matches_embedding():
    rng = random.Random(808)
    for sys_ in (o2, o3):
        seq = kr_sequence(sys_, levels=4)
        for _ in range(10):
            lvl = rng.randint(1, 3)
            tp = random_tower_perm(seq, lvl, rng)
            direct = sign_vector(embed_level(tp, seq.map(lvl)))
            propagated = propagate_signs(sign_vector(tp), seq.map(lvl))
            assert direct.signs == propagated.signs
            assert direct.level == propagated.level


# ---------------------------------------------------------------- commutator

def test_in_commutator_swap():
    x0 = o2.min_point()
    st = in_commutator(o2, x0, swap_level1(o2), depth=3)
    assert st.member and st.level == 2
    assert st.to_json() == {"in_commutator": True, "level": 2}


def test_in_commutator_three_adic_open():
    x0 = o3.min_point()
    st = in_commutator(o3, x0, TowerPermutation(1, [[1, 0, 2]]), depth=8)
    assert not st.member
    assert st.to_json() == {"in_commutator": "not-up-to-depth", "depth": 8}


def test_in_commutator_depth_below_level_rejected():
    seq = kr_sequence(o2, levels=2)
    tp = random_tower_perm(seq, 2, random.Random(0))
    with pytest.raises(InputFormatError):
        in_commutator(o2, o2.min_point(), tp, depth=1, seq=seq)


# ---------------------------------------------------------------- derived approx

def test_derived_approx_swap():
    seq = kr_sequence(o2, levels=2)
    out = derived_approx(swap_level1(o2), 2, seq)
    assert out.level == 2
    assert out.sign_vector().all_even()
    # same action on the level-1 atoms
    g = gamma_element(o2, seq.level(1), swap_level1(o2))
    fixed = gamma_element(o2, seq.level(2), out)
    for _, _, a in seq.level(1).all_atoms():
        assert fixed.image_of(a) == g.image_of(a)


def test_derived_approx_random_odd():
    rng = random.Random(1212)
    for sys_ in (o2, o3):
        seq = kr_sequence(sys_, levels=4)
        done = 0
        while done < 10:
            lvl = rng.randint(1, 2)
            tp = random_tower_perm(seq, lvl, rng)
            if tp.sign_vector().all_even():
                continue
            out = derived_approx(tp, lvl + 1, seq)
            assert out.level == lvl + 1
            assert out.sign_vector().all_even()
            g = gamma_element(sys_, seq.level(lvl), tp)
            fixed = gamma_element(sys_, seq.level(lvl + 1), out)
            for _, _, a in seq.level(lvl).all_atoms():
                assert fixed.image_of(a) == g.image_of(a)
            done += 1


def test_derived_approx_even_input_unchanged():
    seq = kr_sequence(o2, levels=3)
    tp = TowerPermutation(2, [[1, 0, 3, 2]])
    assert derived_approx(tp, 3, seq) is tp


# ---------------------------------------------------------------- involutions

def test_involution_full_space():
    seq = kr_sequence(o2, levels=1)
    g = involution_in(seq, Clopen.full(o2.space))
    assert g.level == 2
    assert g.perms == ((1, 0, 3, 2),)


def test_involution_in_small_cylinder():
    seq = kr_sequence(o2, levels=1)
    c = Clopen.parse(o2.space, "00")
    tp = involution_in(seq, c)
    assert tp.level == 4
    perm = tp.perms[0]
    assert perm[0] == 4 and perm[4] == 0 and perm[8] == 12 and perm[12] == 8
    g = gamma_element(o2, seq.level(4), tp)
    assert g.compose(g).is_identity()
    assert g.support().is_subset(c)
    assert tp.sign_vector().all_even()


def test_involution_three_adic():
    seq = kr_sequence(o3, levels=1)
    c = Clopen.parse(o3.space, "0")
    tp = involution_in(seq, c)
    g = gamma_element(o3, seq.level(tp.level), tp)
    assert g.compose(g).is_identity()
    assert g.support().is_subset(c)
    assert tp.sign_vector().all_even()
    assert not g.is_identity()


def test_involution_empty_rejected():
    seq = kr_sequence(o2, levels=1)
    with pytest.raises(InputFormatError):
        involution_in(seq, Clopen.empty(o2.space))


def test_involution_random_clopens():
    rng = random.Random(321)
    for sys_ in (o2, o3):
        seq = kr_sequence(sys_, levels=1)
        for _ in range(8):
            d = rng.randint(1, 3)
            words = [w for w in sys_.space.words_at_depth(d) if rng.random() < 0.6]
            if not words:
                continue
            c = Clopen.make(sys_.space, d, words)
            tp = involution_in(seq, c)
            g = gamma_element(sys_, seq.level(tp.level), tp)
            assert g.compose(g).is_identity()
            assert g.support().is_subset(c)


# ---------------------------------------------------------------- small census

def test_level_two_gamma_census():
    # the 4!-element level-2 group of the 2-adic odometer: 24 distinct, 12 even
    import itertools

    seq = kr_sequence(o2, levels=2)
    xi = seq.level(2)
    x0 = o2.min_point()
    elements = set()
    even = 0
    for perm in itertools.permutations(range(4)):
        tp = TowerPermutation(2, [perm])
        g = gamma_element(o2, xi, tp)
        elements.add(g)
        assert membership_gamma(o2, x0, g).member
        if tp.sign_vector().all_even():
            even += 1
    assert len(elements) == 24
    assert even == 12
