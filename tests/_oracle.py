"""Brute-force mask oracle for the orbit tests.

Reference implementation of the exhaustive permutation sweeps.  The
half-mask tables below only speed up applying a permutation to a mask —
every permutation is still applied to every mask.
"""

from __future__ import annotations

from itertools import permutations


def apply_perm_to_mask(perm, mask: int) -> int:
    """Image of a floor mask under a floor permutation (bit j -> bit perm[j])."""
    out = 0
    for j, p in enumerate(perm):
        if mask >> j & 1:
            out |= 1 << p
    return out


def min_image_table(n: int) -> list[int]:
    """Smallest image of every n-floor mask over all n! floor permutations."""
    if not 1 <= n <= 16:
        raise ValueError("floor count out of range")
    size = 1 << n
    half = n >> 1
    lo_size = 1 << half
    hi_size = 1 << (n - half)
    best = [size] * size
    for perm in permutations(range(n)):
        lo_tab = [apply_perm_to_mask(perm[:half], m) for m in range(lo_size)]
        hi_tab = [apply_perm_to_mask(perm[half:], m) for m in range(hi_size)]
        for m in range(size):
            img = lo_tab[m & (lo_size - 1)] | hi_tab[m >> half]
            if img < best[m]:
                best[m] = img
    return best
