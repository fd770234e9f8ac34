"""Brute-force mask oracle: permutation action on floor masks and the sweep."""

from __future__ import annotations

import itertools
import random

import pytest

from _oracle import apply_perm_to_mask, min_image_table


def test_apply_perm_examples():
    assert apply_perm_to_mask((0, 1), 0b01) == 0b01
    assert apply_perm_to_mask((1, 0), 0b01) == 0b10
    assert apply_perm_to_mask((1, 2, 0), 0b011) == 0b110
    assert apply_perm_to_mask((2, 0, 1), 0b101) == 0b110


def test_apply_perm_is_bit_bijection():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(1, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        mask = rng.randrange(1 << n)
        img = apply_perm_to_mask(perm, mask)
        assert bin(img).count("1") == bin(mask).count("1")
        back = [perm.index(i) for i in range(n)]
        assert apply_perm_to_mask(back, img) == mask


def test_min_image_popcount_oracle():
    # the minimum over all relabelings packs the bits to the bottom
    for n in (1, 2, 3, 4, 5, 6):
        table = min_image_table(n)
        assert len(table) == 1 << n
        for m in range(1 << n):
            assert table[m] == (1 << bin(m).count("1")) - 1


def test_min_image_matches_brute_force():
    for n in (2, 3, 4):
        table = min_image_table(n)
        for m in range(1 << n):
            brute = min(
                apply_perm_to_mask(p, m) for p in itertools.permutations(range(n))
            )
            assert table[m] == brute


def test_min_image_eight_floors():
    table = min_image_table(8)
    assert table[0b10010001] == 0b111
    assert table[0xFF] == 0xFF
    assert table[0] == 0


def test_min_image_rejects_bad_sizes():
    with pytest.raises(ValueError):
        min_image_table(0)
    with pytest.raises(ValueError):
        min_image_table(17)
