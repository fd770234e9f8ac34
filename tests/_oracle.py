"""Reference implementations the fast paths are checked against.

The brute-force mask oracle for the orbit tests: exhaustive permutation
sweeps.  The half-mask tables below only speed up applying a permutation to
a mask — every permutation is still applied to every mask.

Word admissibility by walking next_symbols, the running-union piecewise
powers and a bitmask model of the clopen algebra: see the sections at the
end.
"""

from __future__ import annotations

from itertools import permutations

from cantordyn.errors import (
    InadmissibleWordError,
    PiecewiseValidationError,
    SpaceMismatchError,
)
from cantordyn.fullgroup import PiecewisePower, _zigzag
from cantordyn.space import Clopen, ProductSpace


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


# ---------------------------------------------------------------------------
# running-union piecewise powers
#
# PiecewisePower.make, _validate, image_of, compose and support as they were
# when each folded a running clopen union with one Boolean operation per
# piece.  The library now refines every piece once to a common depth; these
# copies are the reference its results are checked against.


def reference_make(sys, pieces, validate: bool = True):
    by_power: dict = {}
    for dom, k in pieces:
        if dom.space.signature() != sys.space.signature():
            raise SpaceMismatchError("piece domain lives over a different space")
        k = int(k)
        if k in by_power:
            by_power[k] = by_power[k].union(dom)
        else:
            by_power[k] = dom
    merged = tuple(
        (by_power[k], k)
        for k in sorted(by_power, key=_zigzag)
        if not by_power[k].is_empty()
    )
    el = PiecewisePower(sys, merged, _canonical=True)
    if validate:
        reference_validate(el)
    return el


def reference_validate(self) -> None:
    space = self.sys.space
    dom_union = Clopen.empty(space)
    for dom, k in self.pieces:
        overlap = dom_union.intersection(dom)
        if not overlap.is_empty():
            raise PiecewiseValidationError(
                f"domains overlap near power {k}", witness=overlap
            )
        dom_union = dom_union.union(dom)
    if not dom_union.is_full():
        raise PiecewiseValidationError(
            "domains do not cover the space", witness=dom_union.complement()
        )
    img_union = Clopen.empty(space)
    for dom, k in self.pieces:
        img = self.sys.image_clopen(dom, k)
        overlap = img_union.intersection(img)
        if not overlap.is_empty():
            raise PiecewiseValidationError(
                f"images overlap near power {k}", witness=overlap
            )
        img_union = img_union.union(img)
    if not img_union.is_full():
        raise PiecewiseValidationError(
            "images do not cover the space", witness=img_union.complement()
        )


def reference_image_of(self, a):
    out = Clopen.empty(self.sys.space)
    for dom, k in self.pieces:
        part = a.intersection(dom)
        if not part.is_empty():
            out = out.union(self.sys.image_clopen(part, k))
    return out


def reference_compose(self, other):
    """self after other."""
    pieces = []
    for dom_g, l in other.pieces:
        shifted = self.sys.image_clopen(dom_g, l)
        for dom_f, k in self.pieces:
            hit = shifted.intersection(dom_f)
            if not hit.is_empty():
                pieces.append((self.sys.image_clopen(hit, -l), k + l))
    return reference_make(self.sys, pieces, validate=False)


def reference_inverse(self):
    pieces = [(self.sys.image_clopen(dom, k), -k) for dom, k in self.pieces]
    return reference_make(self.sys, pieces, validate=False)


def reference_support(self):
    out = Clopen.empty(self.sys.space)
    for dom, k in self.pieces:
        if k != 0:
            out = out.union(dom)
    return out


# ---------------------------------------------------------------------------
# admissibility by walking next_symbols
#
# check_word and extensions as SpacePresentation defined them for every space
# when both called next_symbols once per prefix.  ProductSpace and PathSpace
# now check and extend a word in one pass; these are the reference.  Their
# next_symbols is checked against reference_next_symbols, which tries every
# symbol of the level.


def reference_admissible(space, word) -> bool:
    """Whether word is a word of the space, straight from its definition:
    a product word has every symbol in its level's alphabet; a path word's
    first edge leaves the root and each edge leaves the vertex the one
    before it enters."""
    if isinstance(space, ProductSpace):
        return all(s in range(space.size_at(i)) for i, s in enumerate(word))
    v = 0
    for i, s in enumerate(word):
        edges = space.diagram.level_edges(i + 1)
        if s not in range(len(edges)) or edges[s][0] != v:
            return False
        v = edges[s][1]
    return True


def reference_next_symbols(space, word) -> tuple:
    n = len(word)
    return tuple(s for s in range(space.size_bound(n)) if reference_admissible(space, word + (s,)))


def reference_check_word(space, word) -> tuple:
    w = tuple(word)
    for i in range(len(w)):
        if w[i] not in space.next_symbols(w[:i]):
            raise InadmissibleWordError(w, junction=i)
    return w


def reference_extensions(space, word: tuple, depth: int) -> list[tuple]:
    out = [word]
    for _ in range(depth - len(word)):
        out = [w + (s,) for w in out for s in space.next_symbols(w)]
    return out


# ---------------------------------------------------------------------------
# bitmask clopen model
#
# The clopen algebra of a space at one fixed depth, on integers: bit r of a
# mask is set when the r-th admissible word of that depth, in lexicographic
# order, lies in the clopen.  Boolean operations are bit operations and the
# n-ary folds are loops over masks; clopens come back through the checked
# Clopen.make.


class MaskModel:
    def __init__(self, space, depth: int):
        self.space = space
        self.depth = depth
        self.words = space.words_at_depth(depth)
        self.rank = {w: r for r, w in enumerate(self.words)}
        self.full = (1 << len(self.words)) - 1

    def mask(self, c) -> int:
        out = 0
        for w in c.refined_words(self.depth):
            out |= 1 << self.rank[w]
        return out

    def clopen(self, mask: int):
        chosen = [w for r, w in enumerate(self.words) if mask >> r & 1]
        return Clopen.make(self.space, self.depth, chosen)

    def compare(self, a: int, b: int) -> str:
        if a == b:
            return "equal"
        if not a & ~b:
            return "subset"
        if not b & ~a:
            return "superset"
        if not a & b:
            return "disjoint"
        return "incomparable"

    def union_all(self, masks) -> int:
        out = 0
        for m in masks:
            out |= m
        return out

    def partition_check(self, masks):
        """(i, overlap mask) for the first mask meeting the ones before it,
        else (None, uncovered mask)."""
        seen = 0
        for i, m in enumerate(masks):
            if seen & m:
                return i, seen & m
            seen |= m
        return None, self.full & ~seen
