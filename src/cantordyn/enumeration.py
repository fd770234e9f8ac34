"""Streams realizing the countable reduction plumbing.

A fixed bijection pairs every natural number with a finite tuple of
(power, clopen) pieces.  Tuples that spell out a level of the refining
partition sequence with floor-wise displacements are pulled to the front
lanes so that honest group elements appear densely: indices divisible by
four enumerate the level permutations themselves, indices congruent to two
mod four the remaining in-range displacement tuples, odd indices everything
else.  Filtering through validity, orbit-preservation, and commutators then
yields streams of the full group, its orbit subgroup, and the derived
subgroup.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import (
    CapExceededError,
    InputFormatError,
    PiecewiseValidationError,
)
from .fullgroup import PiecewisePower, _zigzag, membership_gamma
from .space import Clopen, Point, SpacePresentation, _merge
from .systems import System
from .towers import kr_sequence

_GF_ENUM_CAP = 100000  # largest displacement space counted by enumeration
_LEVEL_CAP = 64        # hard stop for level scans


def _unzigzag(z: int) -> int:
    return (z + 1) // 2 if z % 2 else -(z // 2)


# ---------------------------------------------------------------------------
# canonical clopen enumeration: depth-major, mask order within a depth


def _sibling_sizes(space: SpacePresentation, depth: int) -> list[int]:
    """Run lengths of same-parent words inside the lex word list."""
    return [
        len(space.next_symbols(p)) for p in space.words_at_depth(depth - 1)
    ]


def _block_constant_upto(mask: int, sizes: list[int]) -> int:
    """How many masks <= mask are constant on every sibling block."""
    if mask < 0:
        return 0
    offsets = []
    pos = 0
    for s in sizes:
        offsets.append(pos)
        pos += s
    count = 0
    for j in reversed(range(len(sizes))):
        seg = (mask >> offsets[j]) & ((1 << sizes[j]) - 1)
        ones = (1 << sizes[j]) - 1
        below = (1 if seg > 0 else 0) + (1 if ones < seg else 0)
        count += below << j
        if seg != 0 and seg != ones:
            return count
    return count + 1


def clopen_index(a: Clopen) -> int:
    """Position of a clopen in the canonical depth-major enumeration."""
    if a.is_empty():
        return 0
    if a.is_full():
        return 1
    d = a.depth
    words = a.space.words_at_depth(d)
    pos = {w: i for i, w in enumerate(words)}
    mask = 0
    for w in a.words:
        mask |= 1 << pos[w]
    sizes = _sibling_sizes(a.space, d)
    rank = mask - _block_constant_upto(mask - 1, sizes)
    return (1 << a.space.word_count(d - 1)) + rank


def clopen_at_index(space: SpacePresentation, n: int) -> Clopen:
    """Inverse of clopen_index."""
    if n < 0:
        raise InputFormatError("clopen indices are non-negative")
    if n == 0:
        return Clopen.empty(space)
    if n == 1:
        return Clopen.full(space)
    d = 1
    while n >= (1 << space.word_count(d)):
        d += 1
        if d > _LEVEL_CAP:
            raise CapExceededError("clopen index beyond depth cap")
    r = n - (1 << space.word_count(d - 1))
    sizes = _sibling_sizes(space, d)
    lo, hi = 0, (1 << space.word_count(d)) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid + 1 - _block_constant_upto(mid, sizes) >= r + 1:
            hi = mid
        else:
            lo = mid + 1
    words = space.words_at_depth(d)
    return _merge(space, d, {w for i, w in enumerate(words) if lo >> i & 1})


# ---------------------------------------------------------------------------
# base bijection over all tuples: piece count by trailing ones, payload by
# bit interleaving of (clopen index, displacement code) coordinates


def _morton(coords: list[int]) -> int:
    n = len(coords)
    r = 0
    for i, x in enumerate(coords):
        b = 0
        while x:
            if x & 1:
                r |= 1 << (b * n + i)
            x >>= 1
            b += 1
    return r


def _unmorton(r: int, n: int) -> list[int]:
    out = [0] * n
    t = 0
    while r:
        if r & 1:
            out[t % n] |= 1 << (t // n)
        r >>= 1
        t += 1
    return out


def _tuple_to_m(zs, cs) -> int:
    k = len(zs)
    coords = []
    for c, z in zip(cs, zs):
        coords.append(c)
        coords.append(z)
    return _morton(coords) * (1 << k) + ((1 << (k - 1)) - 1)


def _m_to_tuple(m: int):
    k = 1
    while (m >> (k - 1)) & 1:
        k += 1
    coords = _unmorton(m >> k, 2 * k)
    return coords[1::2], coords[0::2]


class TupleCode:
    """One decoded entry of the tuple bijection."""

    __slots__ = ("index", "powers", "clopens")

    def __init__(self, index: int, powers, clopens):
        self.index = index
        self.powers = tuple(powers)
        self.clopens = tuple(clopens)

    def pieces(self):
        return list(zip(self.clopens, self.powers))

    def to_json(self):
        return {
            "index": self.index,
            "powers": list(self.powers),
            "clopens": [a.render() for a in self.clopens],
        }


class TupleCoder:
    """The fixed bijection between naturals and piece tuples for one system.

    Level tuples (the atoms of partition level m in tower-major floor order,
    displacements staying inside their towers) occupy the even lanes: actual
    floor permutations at indices 0 mod 4, level-major and ranked per tower
    in one-line lexicographic order; displacement tuples that are not
    permutations at 2 mod 4.  All other tuples sit at odd indices in
    interleaved-bit order, skipping the level tuples.
    """

    def __init__(self, sys: System, x0: Point | None = None):
        self.sys = sys
        self.seq = kr_sequence(sys, x0, levels=1)
        self._levels: dict[int, dict] = {}

    # -- per-level data ------------------------------------------------------

    def _level(self, m: int) -> dict:
        if m in self._levels:
            return self._levels[m]
        part = self.seq.level(m)
        atoms = []
        slots = []  # (tower, floor, height) per atom position
        for i, t in enumerate(part.towers):
            for j, a in enumerate(t.atoms):
                atoms.append(a)
                slots.append((i, j, t.height))
        c_vec = tuple(clopen_index(a) for a in atoms)
        zsets = [
            sorted(_zigzag(p - j) for p in range(h)) for _, j, h in slots
        ]
        heights = [t.height for t in part.towers]
        perm_count = math.prod(math.factorial(h) for h in heights)
        all_count = math.prod(len(zs) for zs in zsets)
        data = {
            "atoms": atoms,
            "slots": slots,
            "c_vec": c_vec,
            "zsets": zsets,
            "heights": heights,
            "perm_count": perm_count,
            "all_count": all_count,
        }
        self._levels[m] = data
        return data

    def _zvec_of_perms(self, m: int, perms) -> list[int]:
        data = self._level(m)
        return [_zigzag(perms[i][j] - j) for i, j, _ in data["slots"]]

    # -- permutation (zone P) ranking -----------------------------------------

    @staticmethod
    def _lehmer_rank(perm) -> int:
        n = len(perm)
        rank = 0
        for i, v in enumerate(perm):
            smaller = sum(1 for u in perm[i + 1 :] if u < v)
            rank += smaller * math.factorial(n - 1 - i)
        return rank

    @staticmethod
    def _lehmer_unrank(rank: int, n: int):
        avail = list(range(n))
        out = []
        for i in range(n):
            f = math.factorial(n - 1 - i)
            d, rank = divmod(rank, f)
            out.append(avail.pop(d))
        return tuple(out)

    def _perm_rank(self, m: int, perms) -> int:
        data = self._level(m)
        rank = 0
        for h, p in zip(data["heights"], perms):
            rank = rank * math.factorial(h) + self._lehmer_rank(p)
        return rank

    def _perm_unrank(self, m: int, rank: int):
        data = self._level(m)
        digits = []
        for h in reversed(data["heights"]):
            f = math.factorial(h)
            rank, d = divmod(rank, f)
            digits.append(d)
        return tuple(
            self._lehmer_unrank(d, h)
            for d, h in zip(reversed(digits), data["heights"])
        )

    # -- zone membership -------------------------------------------------------

    def _match_level(self, zs, cs) -> int | None:
        """The level these tuples spell out, if any."""
        k = len(zs)
        m = 1
        while m <= _LEVEL_CAP:
            data = self._level(m)
            size = len(data["c_vec"])
            if size > k:
                return None
            if size == k and data["c_vec"] == tuple(cs):
                if all(z in zset for z, zset in zip(zs, data["zsets"])):
                    return m
                return None
            m += 1
        raise CapExceededError("level scan cap hit while matching a tuple")

    @staticmethod
    def _perms_from_zvec(data, zs):
        """Per-tower target lists; None when some displacement escapes."""
        towers: dict[int, list[int]] = {}
        for (i, j, h), z in zip(data["slots"], zs):
            towers.setdefault(i, []).append(j + _unzigzag(z))
        return [towers[i] for i in sorted(towers)]

    # -- zone I (in-range non-permutations) ------------------------------------

    def _perms_below(self, m: int, zs) -> int:
        """Permutations whose displacement vector precedes zs lexicographically."""
        data = self._level(m)
        count = 0
        # factor for the towers after the current one
        suffix_perm = [1] * (len(data["heights"]) + 1)
        for i in reversed(range(len(data["heights"]))):
            suffix_perm[i] = suffix_perm[i + 1] * math.factorial(
                data["heights"][i]
            )
        pos = 0
        for ti, h in enumerate(data["heights"]):
            used: set[int] = set()
            alive = True
            for j in range(h):
                z_t = zs[pos]
                for z in self._level(m)["zsets"][pos]:
                    if z >= z_t:
                        break
                    v = j + _unzigzag(z)
                    if 0 <= v < h and v not in used:
                        count += (
                            math.factorial(h - j - 1) * suffix_perm[ti + 1]
                        )
                v_t = j + _unzigzag(z_t)
                if not (0 <= v_t < h) or v_t in used:
                    alive = False
                    pos += h - j
                    break
                used.add(v_t)
                pos += 1
            if not alive:
                return count
        return count

    def _zone_i_rank(self, m: int, zs) -> int:
        data = self._level(m)
        rank_all = 0
        for z, zset in zip(zs, data["zsets"]):
            rank_all = rank_all * len(zset) + zset.index(z)
        return rank_all - self._perms_below(m, zs)

    def _zone_i_unrank(self, m: int, rank: int):
        data = self._level(m)
        zsets = data["zsets"]
        heights = data["heights"]
        suffix_all = [1] * (len(zsets) + 1)
        for t in reversed(range(len(zsets))):
            suffix_all[t] = suffix_all[t + 1] * len(zsets[t])
        suffix_perm = [1] * (len(heights) + 1)
        for i in reversed(range(len(heights))):
            suffix_perm[i] = suffix_perm[i + 1] * math.factorial(heights[i])
        zs: list[int] = []
        used: set[int] = set()
        prefix_perm_ok = True
        pos = 0
        for ti, h in enumerate(heights):
            for j in range(h):
                zset = zsets[pos]
                for z in zset:
                    v = j + _unzigzag(z)
                    block = suffix_all[pos + 1]
                    if prefix_perm_ok and 0 <= v < h and v not in used:
                        rest = (
                            math.factorial(h - j - 1) * suffix_perm[ti + 1]
                        )
                        block -= rest
                    if rank < block:
                        zs.append(z)
                        if prefix_perm_ok:
                            if 0 <= v < h and v not in used:
                                used.add(v)
                            else:
                                prefix_perm_ok = False
                        break
                    rank -= block
                else:
                    raise InputFormatError("displacement rank out of range")
                pos += 1
            if pos < len(zsets) and prefix_perm_ok:
                used = set()
        return zs

    # -- zone B (everything else) ----------------------------------------------

    def _gamma_forms_upto(self, n: int) -> int:
        """Level tuples whose base code is at most n."""
        if n < 0:
            return 0
        total = 0
        m = 1
        while m <= _LEVEL_CAP:
            data = self._level(m)
            k = len(data["c_vec"])
            if n < (1 << (k - 1)) - 1:
                break
            r_cap = (n - ((1 << (k - 1)) - 1)) >> k
            base = _morton(
                [x for c in data["c_vec"] for x in (c, 0)]
            )
            if base > r_cap:
                break
            if data["all_count"] > _GF_ENUM_CAP:
                raise CapExceededError(
                    "too many level tuples to count at this index"
                )
            coords = [0] * (2 * k)
            for t, c in enumerate(data["c_vec"]):
                coords[2 * t] = c

            def walk(pos: int):
                if pos == k:
                    return 1 if _morton(coords) <= r_cap else 0
                hits = 0
                for z in data["zsets"][pos]:
                    coords[2 * pos + 1] = z
                    hits += walk(pos + 1)
                coords[2 * pos + 1] = 0
                return hits

            total += walk(0)
            m += 1
        return total

    # -- public encode/decode ----------------------------------------------------

    def decode(self, index: int) -> TupleCode:
        if index < 0:
            raise InputFormatError("tuple indices are non-negative")
        if index % 2 == 1:
            b = (index - 1) // 2
            n = b
            for _ in range(100000):
                n2 = b + self._gamma_forms_upto(n)
                if n2 == n:
                    break
                n = n2
            else:
                raise CapExceededError("rank adjustment did not settle")
            zs, cs = _m_to_tuple(n)
            clopens = [clopen_at_index(self.sys.space, c) for c in cs]
            return TupleCode(index, [_unzigzag(z) for z in zs], clopens)
        if index % 4 == 0:
            rank = index // 4
            m = 1
            while True:
                data = self._level(m)
                if rank < data["perm_count"]:
                    break
                rank -= data["perm_count"]
                m += 1
                if m > _LEVEL_CAP:
                    raise CapExceededError("tuple index beyond level cap")
            perms = self._perm_unrank(m, rank)
            zs = self._zvec_of_perms(m, perms)
            return TupleCode(
                index, [_unzigzag(z) for z in zs], list(self._level(m)["atoms"])
            )
        rank = (index - 2) // 4
        m = 1
        while True:
            data = self._level(m)
            block = data["all_count"] - data["perm_count"]
            if rank < block:
                break
            rank -= block
            m += 1
            if m > _LEVEL_CAP:
                raise CapExceededError("tuple index beyond level cap")
        zs = self._zone_i_unrank(m, rank)
        return TupleCode(
            index, [_unzigzag(z) for z in zs], list(self._level(m)["atoms"])
        )

    def encode(self, pieces) -> int:
        """Index of the tuple listing these (clopen, power) pieces in order."""
        if not pieces:
            raise InputFormatError("tuples have at least one piece")
        zs = [_zigzag(k) for _, k in pieces]
        cs = [clopen_index(a) for a, _ in pieces]
        m = self._match_level(zs, cs)
        if m is None:
            mm = _tuple_to_m(zs, cs)
            return 2 * (mm - self._gamma_forms_upto(mm)) + 1
        data = self._level(m)
        perms = self._perms_from_zvec(data, zs)
        if all(sorted(p) == list(range(len(p))) for p in perms):
            rank = self._perm_rank(m, tuple(tuple(p) for p in perms))
            for lvl in range(1, m):
                rank += self._level(lvl)["perm_count"]
            return 4 * rank
        rank = self._zone_i_rank(m, zs)
        for lvl in range(1, m):
            d = self._level(lvl)
            rank += d["all_count"] - d["perm_count"]
        return 4 * rank + 2


# ---------------------------------------------------------------------------
# streams


def enum_tfg(sys: System, count: int, start: int = 0, dedup: bool = False,
             x0: Point | None = None, coder: TupleCoder | None = None):
    """Scan `count` codes from `start`, yielding (index, element).

    Pieces with equal powers are unioned first (PiecewisePower.make), so
    raw pieces that share a power may overlap.  When the merged pieces
    partition the space and their images partition it again, the code
    yields that element; every other code yields the identity.  With
    dedup, repeated elements are skipped (the scan budget stays `count`).
    """
    if count < 1:
        raise InputFormatError("count must be at least 1")
    coder = coder or TupleCoder(sys, x0)
    seen = set()
    for n in range(start, start + count):
        code = coder.decode(n)
        try:
            elem = PiecewisePower.make(sys, code.pieces(), validate=True)
        except PiecewiseValidationError:
            elem = PiecewisePower.identity(sys)
        if dedup:
            if elem in seen:
                continue
            seen.add(elem)
        yield n, elem


def is_in_gamma(sys: System, x0: Point, f: PiecewisePower, horizon: int = 100000):
    """f when it preserves the forward orbit of x0, identity otherwise.

    When the orbit scan exhausts the horizon, its CapExceededError propagates:
    a cap is never turned into an answer.
    """
    res = membership_gamma(sys, x0, f, cap=horizon)
    return f if res.member else PiecewisePower.identity(sys)


def enum_gamma(sys: System, x0: Point | None = None, count: int = 100,
               start: int = 0, dedup: bool = False, horizon: int = 100000):
    """Full-group stream filtered through orbit preservation at x0."""
    if x0 is None:
        x0 = sys.min_point()
    coder = TupleCoder(sys, x0)
    seen = set()
    for n, elem in enum_tfg(sys, count, start=start, coder=coder):
        g = elem if elem.is_identity() else is_in_gamma(sys, x0, elem, horizon)
        if dedup:
            if g in seen:
                continue
            seen.add(g)
        yield n, g


def enum_dgamma(sys: System, x0: Point | None = None, count: int = 100,
                code_budget: int = 500000, horizon: int = 100000):
    """First `count` distinct members of the derived orbit subgroup.

    Commutators of the deduplicated orbit stream are produced along
    anti-diagonals of the pair grid; a breadth-first product closure over
    everything already emitted interleaves with them, so the output is
    closed under the group operations up to the requested length.
    """
    if count < 1:
        raise InputFormatError("count must be at least 1")
    if x0 is None:
        x0 = sys.min_point()
    coder = TupleCoder(sys, x0)
    gammas: list[PiecewisePower] = []
    inverses: list[PiecewisePower] = []  # inverses[i] is gammas[i].inverse()
    gamma_seen = set()
    source = enum_tfg(sys, code_budget, coder=coder)

    def gamma_at(i: int) -> PiecewisePower:
        while len(gammas) <= i:
            try:
                _, elem = next(source)
            except StopIteration:
                raise CapExceededError(
                    "code budget exhausted before the stream filled"
                ) from None
            if elem.is_identity():
                continue
            g = is_in_gamma(sys, x0, elem, horizon)
            if g.is_identity() or g in gamma_seen:
                continue
            gamma_seen.add(g)
            gammas.append(g)
            inverses.append(g.inverse())
        return gammas[i]

    def diagonal():
        s = 0
        while True:
            for i in range(s + 1):
                yield i, s - i
            s += 1

    pair_iter = diagonal()
    emitted: list[PiecewisePower] = []
    seen = set()
    products: deque = deque()
    out = 0
    while out < count:
        candidate = None
        if products:
            a, b = products.popleft()
            candidate = a.compose(b)
        else:
            i, j = next(pair_iter)
            g, h = gamma_at(i), gamma_at(j)
            candidate = g.compose(h).compose(inverses[i]).compose(inverses[j])
        if candidate in seen:
            continue
        seen.add(candidate)
        for prior in emitted:
            products.append((candidate, prior))
            products.append((prior, candidate))
        emitted.append(candidate)
        yield out, candidate
        out += 1
