"""Clopens the library builds from its own words skip Clopen.make's word
check; every one of them must still be admissible and canonical, that is
equal to Clopen.make of its own depth and words."""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from _oracle import MaskModel
from cantordyn import (
    Odometer,
    TowerPermutation,
    clopen_at_index,
    gamma_element,
    kr_sequence,
    load_system,
    partition_check,
    refine_with_clopen,
    soe_backandforth,
    union_all,
)
from cantordyn.space import Clopen
from test_space import DESCRIPTORS
from test_systems import BV3

SYSTEMS = [
    Odometer((3,), (2,)),
    Odometer((2, 3), (2,)),
    Odometer((), (12,)),
    load_system(json.loads((DESCRIPTORS / "bv11.json").read_text())),
    load_system(BV3),
]
SEQS = {sys_: kr_sequence(sys_, levels=2) for sys_ in SYSTEMS}


def assert_canonical(c: Clopen) -> None:
    assert c == Clopen.make(c.space, c.depth, c.words)


def max_depth(space) -> int:
    return 2 if space.size_bound(0) > 10 else 4


@st.composite
def clopens(draw, space):
    model = MaskModel(space, draw(st.integers(0, max_depth(space))))
    return model.clopen(draw(st.integers(0, model.full)))


@st.composite
def gamma_elements(draw, sys_):
    seq = SEQS[sys_]
    level = draw(st.integers(1, 2))
    perms = [draw(st.permutations(range(t.height))) for t in seq.level(level).towers]
    return gamma_element(sys_, seq.level(level), TowerPermutation(level, perms))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_library_built_clopens_are_canonical(data):
    sys_ = data.draw(st.sampled_from(SYSTEMS))
    space = sys_.space
    a = data.draw(clopens(space))
    k = data.draw(st.integers(1, 5))
    assert_canonical(sys_.image_clopen(a, k))
    assert_canonical(sys_.image_clopen(a, -k))

    family = data.draw(st.lists(clopens(space), max_size=4))
    assert_canonical(union_all(space, family))
    assert_canonical(partition_check(space, family)[1])
    assert_canonical(clopen_at_index(space, data.draw(st.integers(0, 1 << 40))))

    for level in (1, 2):  # native and odometer towers
        for _, _, atom in SEQS[sys_].level(level).all_atoms():
            assert_canonical(atom)
    refined = refine_with_clopen(sys_, SEQS[sys_].level(1), a)
    for _, _, atom in refined.all_atoms():
        assert_canonical(atom)

    f = data.draw(gamma_elements(sys_))
    g = data.draw(gamma_elements(sys_))
    for el in (f.compose(g), g.compose(f), f.inverse()):
        for dom, _ in el.pieces:
            assert_canonical(dom)
    assert_canonical(f.image_of(a))


def test_matched_value_clopens_are_canonical():
    for b1, b2 in ((2, 4), (6, 6)):
        seqs = (kr_sequence(Odometer((), (b1,))), kr_sequence(Odometer((), (b2,))))
        for p, q in soe_backandforth(*seqs, 2).pairs():
            assert_canonical(p)
            assert_canonical(q)
