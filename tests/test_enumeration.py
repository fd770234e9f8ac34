"""Canonical integer codes for clopens and piecewise elements, and the
element streams built on top of them."""

from __future__ import annotations

import json
import random

import pytest

from cantordyn import (
    Clopen,
    Odometer,
    PiecewisePower,
    TupleCoder,
    as_level_permutation,
    clopen_at_index,
    clopen_index,
    cylinder,
    enum_dgamma,
    enum_gamma,
    enum_tfg,
    in_commutator,
    is_in_gamma,
    kr_sequence,
    load_system,
    membership_gamma,
)
from cantordyn.errors import CapExceededError, RefinementDepthError
from test_space import DESCRIPTORS

o2 = Odometer((), (2,))
o23 = Odometer((), (2, 3))
sp = o2.space


# ---------------------------------------------------------------- clopen codes

def test_clopen_index_frozen_values():
    assert clopen_index(Clopen.empty(sp)) == 0
    assert clopen_index(Clopen.full(sp)) == 1
    assert clopen_index(cylinder(sp, (0,))) == 2
    assert clopen_index(cylinder(sp, (1,))) == 3
    assert clopen_at_index(sp, 2) == cylinder(sp, (0,))
    assert clopen_at_index(sp, 3) == cylinder(sp, (1,))


def test_clopen_index_depth_bands():
    # proper depth-2 clopens occupy [4, 16), depth 3 starts at 16
    assert clopen_at_index(sp, 4).depth == 2
    assert clopen_at_index(sp, 15).depth == 2
    assert clopen_at_index(sp, 16).depth == 3


def test_clopen_round_trip_prefix():
    for n in range(300):
        a = clopen_at_index(sp, n)
        assert clopen_index(a) == n


def test_clopen_round_trip_random():
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randint(1, 4)
        chosen = [w for w in sp.words_at_depth(d) if rng.random() < 0.5]
        a = Clopen.make(sp, d, chosen)
        assert clopen_at_index(sp, clopen_index(a)) == a


def test_clopen_codes_alternating_base():
    sp23 = o23.space
    for n in range(200):
        a = clopen_at_index(sp23, n)
        assert clopen_index(a) == n


# ---------------------------------------------------------------- tuple codes

def test_tuple_code_frozen_values():
    coder = TupleCoder(o2)
    c0 = coder.decode(0)
    assert c0.powers == (0, 0)
    assert PiecewisePower.make(o2, c0.pieces()).is_identity()

    c4 = coder.decode(4)
    assert c4.powers == (1, -1)
    assert c4.clopens == (cylinder(sp, (0,)), cylinder(sp, (1,)))
    swap = PiecewisePower.make(o2, c4.pieces())
    assert coder.encode(list(swap.pieces)) == 4

    c5 = coder.decode(5)
    assert c5.powers == (0,) and c5.clopens[0].is_full()
    assert coder.encode([(Clopen.full(sp), 0)]) == 5


def test_tuple_code_round_trip_prefix():
    coder = TupleCoder(o2)
    for n in range(2000):
        code = coder.decode(n)
        assert coder.encode(code.pieces()) == n


def test_tuple_code_round_trip_alternating():
    coder = TupleCoder(o23)
    for n in range(600):
        code = coder.decode(n)
        assert coder.encode(code.pieces()) == n


def test_tuple_code_round_trip_odo3():
    coder = TupleCoder(Odometer((), (3,)))
    for n in range(600):
        code = coder.decode(n)
        assert coder.encode(code.pieces()) == n


def test_tuple_code_round_trip_bv11():
    coder = TupleCoder(load_system(json.loads((DESCRIPTORS / "bv11.json").read_text())))
    for n in range(600):
        code = coder.decode(n)
        assert coder.encode(code.pieces()) == n


def test_random_elements_round_trip_canonically():
    coder = TupleCoder(o2)
    seq = kr_sequence(o2, levels=1)
    rng = random.Random(11)
    for _ in range(50):
        m = rng.randint(1, 3)
        part = seq.level(m)
        pieces = []
        for t in part.towers:
            perm = list(range(t.height))
            rng.shuffle(perm)
            for j, atom in enumerate(t.atoms):
                pieces.append((atom, perm[j] - j))
        el = PiecewisePower.make(o2, pieces)
        idx = coder.encode(list(el.pieces))
        assert PiecewisePower.make(o2, coder.decode(idx).pieces()) == el


def test_to_json_shape():
    coder = TupleCoder(o2)
    data = coder.decode(4).to_json()
    assert data == {"index": 4, "powers": [1, -1], "clopens": ["0", "1"]}


# ---------------------------------------------------------------- streams

def test_enum_tfg_head():
    got = dict(enum_tfg(o2, 6))
    assert sorted(got) == [0, 1, 2, 3, 4, 5]
    assert got[0].is_identity()
    assert got[2].is_identity()  # in-range tuple that is not a valid element
    assert got[5].is_identity()
    nonid = [n for n, e in got.items() if not e.is_identity()]
    assert nonid == [4]
    n0, n1 = cylinder(sp, (0,)), cylinder(sp, (1,))
    assert got[4].pieces == ((n0, 1), (n1, -1))


def test_enum_tfg_start_and_dedup():
    tail = dict(enum_tfg(o2, 4, start=2))
    assert sorted(tail) == [2, 3, 4, 5]
    deduped = list(enum_tfg(o2, 5, dedup=True))
    els = [e for _, e in deduped]
    assert len({e for e in els}) == len(els)
    assert any(not e.is_identity() for e in els)


def test_is_in_gamma_contract():
    x0 = o2.min_point()
    ident = PiecewisePower.identity(o2)
    assert is_in_gamma(o2, x0, ident) == ident

    sigma = PiecewisePower.make(o2, [(Clopen.full(sp), 1)], validate=False)
    assert is_in_gamma(o2, x0, sigma).is_identity()

    swap = PiecewisePower.make(o2, TupleCoder(o2).decode(4).pieces())
    assert is_in_gamma(o2, x0, swap) == swap

    # a horizon too short to settle the bounds is an error, never the identity
    with pytest.raises(CapExceededError):
        is_in_gamma(o2, x0, swap, horizon=1)


def test_is_in_gamma_matches_membership():
    x0 = o2.min_point()
    for n, e in enum_tfg(o2, 150):
        filtered = is_in_gamma(o2, x0, e)
        member = membership_gamma(o2, x0, e).member
        assert (filtered == e) == member or e.is_identity()


def test_enum_gamma_projects_members():
    x0 = o2.min_point()
    for n, g in enum_gamma(o2, count=40):
        if not g.is_identity():
            assert membership_gamma(o2, x0, g).member


def test_enum_dgamma_head():
    seq = kr_sequence(o2, levels=1)
    x0 = o2.min_point()
    out = list(enum_dgamma(o2, count=30))
    assert out[0][1].is_identity()
    assert len({e for _, e in out}) == 30
    for _, e in out:
        tp = as_level_permutation(seq, e, max_level=8)
        st = in_commutator(o2, x0, tp, depth=tp.level + 3, seq=seq)
        assert st.member
        if not e.is_identity():
            assert membership_gamma(o2, x0, e).member


def test_enum_dgamma_reaches_double_swap():
    # (0 1)(2 3) at level 2 is a commutator and shows up early
    seq = kr_sequence(o2, levels=2)
    t = seq.level(2).towers[0]
    target = [1, 0, 3, 2]
    pieces = [(atom, target[j] - j) for j, atom in enumerate(t.atoms)]
    dbl = PiecewisePower.make(o2, pieces)
    assert any(e == dbl for _, e in enum_dgamma(o2, count=30))


def test_as_level_permutation_rejects_non_level_element():
    seq = kr_sequence(o2, levels=1)
    sigma = PiecewisePower.make(o2, [(Clopen.full(sp), 1)], validate=False)
    with pytest.raises(RefinementDepthError):
        as_level_permutation(seq, sigma, max_level=5)


def test_enum_dgamma_inverts_each_gamma_once(monkeypatch):
    calls = []
    inverse = PiecewisePower.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(PiecewisePower, "inverse", counted)
    out = list(enum_dgamma(o2, count=20))
    assert len(out) == 20
    assert calls
    assert len(calls) == len(set(calls))
