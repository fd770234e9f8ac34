"""Topological-full-group machinery.

Elements are piecewise powers: finitely many clopen domains, each moved by
a fixed power of the map. Level groups collect the elements that permute
the floors of a Kakutani-Rokhlin partition tower by tower; they embed into
the next level blockwise along the stacking data.
"""

from __future__ import annotations

from .errors import (
    CapExceededError,
    InputFormatError,
    PiecewiseValidationError,
    RefinementDepthError,
    SpaceMismatchError,
)
from .space import (
    Clopen,
    Point,
    _check_same_space,
    _int_list,
    _is_int,
    _merge,
    partition_check,
    union_all,
)
from .systems import System
from .towers import KRPartition, KRSequence, StackingMap, atom_at


def perm_sign(perm) -> int:
    """Signature via cycle decomposition."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def perm_cycles(perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each rotated to start at its minimum."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        j = start
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        if len(cyc) > 1:
            cycles.append(tuple(cyc))
    return cycles


def _check_perm(perm, height: int, where: str) -> None:
    if len(perm) != height or sorted(perm) != list(range(height)):
        raise InputFormatError(f"{where}: not a permutation of 0..{height - 1}")


class SignVector:
    __slots__ = ("level", "signs")

    def __init__(self, level: int, signs):
        self.level = level
        self.signs = tuple(signs)

    def all_even(self) -> bool:
        return all(s == 1 for s in self.signs)

    def to_json(self):
        return {"level": self.level, "signs": list(self.signs)}

    def __repr__(self):
        return f"SignVector(level={self.level}, signs={list(self.signs)})"


class TowerPermutation:
    """Floor permutation of each tower of a fixed-level partition."""

    __slots__ = ("level", "perms")

    def __init__(self, level: int, perms):
        self.level = level
        self.perms = tuple(tuple(p) for p in perms)
        for i, p in enumerate(self.perms):
            _check_perm(p, len(p), f"tower {i}")

    def validate_against(self, xi: KRPartition) -> None:
        if self.level != xi.level:
            raise InputFormatError(
                f"permutation level {self.level} != partition level {xi.level}"
            )
        if len(self.perms) != len(xi.towers):
            raise InputFormatError("tower count mismatch")
        for i, (p, t) in enumerate(zip(self.perms, xi.towers)):
            _check_perm(p, t.height, f"tower {i}")

    def is_identity(self) -> bool:
        return all(p == tuple(range(len(p))) for p in self.perms)

    def sign_vector(self) -> SignVector:
        return SignVector(self.level, [perm_sign(p) for p in self.perms])

    def compose(self, other: "TowerPermutation") -> "TowerPermutation":
        """self after other, towerwise."""
        if self.level != other.level or len(self.perms) != len(other.perms):
            raise InputFormatError("composition needs matching levels")
        return TowerPermutation(
            self.level,
            [tuple(p[q[j]] for j in range(len(q))) for p, q in zip(self.perms, other.perms)],
        )

    def inverse(self) -> "TowerPermutation":
        out = []
        for p in self.perms:
            inv = [0] * len(p)
            for j, v in enumerate(p):
                inv[v] = j
            out.append(tuple(inv))
        return TowerPermutation(self.level, out)

    def to_json(self):
        return {"level": self.level, "perms": [list(p) for p in self.perms]}

    @staticmethod
    def from_json(data) -> "TowerPermutation":
        try:
            level, perms = data["level"], data["perms"]
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"bad tower permutation data: {exc}") from exc
        if not _is_int(level):
            raise InputFormatError("bad tower permutation data: 'level' must be an integer")
        if not isinstance(perms, list):
            raise InputFormatError("bad tower permutation data: 'perms' must be a list")
        where = "bad tower permutation data: perms"
        return TowerPermutation(level, [_int_list(p, f"{where}[{i}]") for i, p in enumerate(perms)])

    def __eq__(self, other):
        return (
            isinstance(other, TowerPermutation)
            and self.level == other.level
            and self.perms == other.perms
        )

    def __hash__(self):
        return hash((self.level, self.perms))


def _zigzag(k: int) -> int:
    return 2 * k - 1 if k > 0 else -2 * k


def _split(table: tuple[int, dict], a: Clopen) -> tuple[int, dict]:
    """The words of a at depth max(a.depth, top), grouped by power.

    table is PiecewisePower._power_table(): top and the power of each
    depth-top domain word.  Words outside every domain go under None.
    """
    top, power_of = table
    d = max(a.depth, top)
    groups: dict = {}
    for w in a.refined_words(d):
        groups.setdefault(power_of.get(w[:top]), set()).add(w)
    return d, groups


def _check_partition(space, parts, what: str) -> None:
    """Raise unless the clopens of parts, (clopen, power) pairs, partition
    space; the witness is partition_check's overlap or uncovered rest."""
    i, witness = partition_check(space, [c for c, _ in parts])
    if i is not None:
        raise PiecewiseValidationError(f"{what} overlap near power {parts[i][1]}", witness=witness)
    if not witness.is_empty():
        raise PiecewiseValidationError(f"{what} do not cover the space", witness=witness)


class PiecewisePower:
    """Homeomorphism equal to a fixed power of the map on each clopen piece.

    Canonical form: pieces merged by power, empty pieces dropped, ordered by
    power as 0, +1, -1, +2, -2, ...
    """

    __slots__ = ("sys", "pieces")

    def __init__(self, sys: System, pieces, _canonical: bool = False):
        if not _canonical:
            raise InputFormatError("use PiecewisePower.make or identity")
        self.sys = sys
        self.pieces = pieces

    @staticmethod
    def make(sys: System, pieces, validate: bool = True) -> "PiecewisePower":
        by_power: dict = {}
        for dom, k in pieces:
            if dom.space.signature() != sys.space.signature():
                raise SpaceMismatchError("piece domain lives over a different space")
            by_power.setdefault(int(k), []).append(dom)
        merged = []
        for k in sorted(by_power, key=_zigzag):
            dom = union_all(sys.space, by_power[k])
            if not dom.is_empty():
                merged.append((dom, k))
        el = PiecewisePower(sys, tuple(merged), _canonical=True)
        if validate:
            el._validate()
        return el

    @staticmethod
    def identity(sys: System) -> "PiecewisePower":
        return PiecewisePower(
            sys, ((Clopen.full(sys.space), 0),), _canonical=True
        )

    def _validate(self) -> None:
        space = self.sys.space
        _check_partition(space, self.pieces, "domains")
        images = [(self.sys.image_clopen(dom, k), k) for dom, k in self.pieces]
        _check_partition(space, images, "images")

    def _power_table(self) -> tuple[int, dict]:
        """Every domain word at the deepest domain depth, mapped to its power."""
        top = max((dom.depth for dom, _ in self.pieces), default=0)
        power_of = {}
        for dom, k in self.pieces:
            power_of.update(dict.fromkeys(dom.refined_words(top), k))
        return top, power_of

    # -- action -------------------------------------------------------------

    def cocycle_at(self, x: Point) -> int:
        for dom, k in self.pieces:
            if dom.contains_point(x):
                return k
        raise InputFormatError("point escapes all pieces (invalid element)")

    def apply_point(self, x: Point) -> Point:
        return self.sys.image_point(x, self.cocycle_at(x))

    def image_of(self, a: Clopen) -> Clopen:
        _check_same_space(a, self.sys)
        space = self.sys.space
        d, groups = _split(self._power_table(), a)
        images = [
            self.sys.image_clopen(_merge(space, d, ws), k)
            for k, ws in groups.items()
            if k is not None
        ]
        return union_all(space, images)

    # -- group structure ------------------------------------------------------

    def compose(self, other: "PiecewisePower") -> "PiecewisePower":
        """self after other; self's domains must be disjoint."""
        if self.sys is not other.sys and (
            self.sys.signature() != other.sys.signature()
        ):
            raise SpaceMismatchError("composition across different systems")
        space = self.sys.space
        table = self._power_table()
        pieces = []
        for dom_g, l in other.pieces:
            d, groups = _split(table, self.sys.image_clopen(dom_g, l))
            if len(groups) == 1 and None not in groups:
                # dom_g lands inside one domain of self
                pieces.append((dom_g, next(iter(groups)) + l))
                continue
            for k, ws in groups.items():
                if k is not None:
                    hit = _merge(space, d, ws)
                    pieces.append((self.sys.image_clopen(hit, -l), k + l))
        return PiecewisePower.make(self.sys, pieces, validate=False)

    def inverse(self) -> "PiecewisePower":
        pieces = [(self.sys.image_clopen(dom, k), -k) for dom, k in self.pieces]
        return PiecewisePower.make(self.sys, pieces, validate=False)

    def support(self) -> Clopen:
        return union_all(self.sys.space, [dom for dom, k in self.pieces if k != 0])

    def is_identity(self) -> bool:
        return all(k == 0 for _, k in self.pieces)

    def __eq__(self, other):
        return (
            isinstance(other, PiecewisePower)
            and self.sys.signature() == other.sys.signature()
            and tuple((d.depth, d.words, k) for d, k in self.pieces)
            == tuple((d.depth, d.words, k) for d, k in other.pieces)
        )

    def __hash__(self):
        return hash(tuple((d.depth, d.words, k) for d, k in self.pieces))

    def render(self) -> str:
        return ", ".join(
            f"({dom.render()}, {k:+d})" if k else f"({dom.render()}, 0)"
            for dom, k in self.pieces
        )

    def to_json(self):
        return {
            "pieces": [
                {"domain": dom.render(), "power": k} for dom, k in self.pieces
            ]
        }

    @staticmethod
    def from_json(sys: System, data) -> "PiecewisePower":
        try:
            raw = [(p["domain"], p["power"]) for p in data["pieces"]]
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"bad piecewise data: {exc}") from exc
        for i, (dom, k) in enumerate(raw):
            where = f"bad piecewise data: pieces[{i}]"
            if not isinstance(dom, str):
                raise InputFormatError(f"{where}: 'domain' must be a string")
            if not _is_int(k):
                raise InputFormatError(f"{where}: 'power' must be an integer")
        return PiecewisePower.make(sys, [(Clopen.parse(sys.space, dom), k) for dom, k in raw])


def gamma_element(sys: System, xi: KRPartition, tp: TowerPermutation) -> PiecewisePower:
    """The piecewise element moving each floor atom to its permuted floor."""
    tp.validate_against(xi)
    pieces = []
    for i, t in enumerate(xi.towers):
        perm = tp.perms[i]
        for j, atom in enumerate(t.atoms):
            pieces.append((atom, perm[j] - j))
    return PiecewisePower.make(sys, pieces, validate=False)


def as_level_permutation(seq: KRSequence, f: PiecewisePower,
                         max_level: int = 16) -> TowerPermutation:
    """Express a piecewise element as floor permutations of one level.

    A level works iff every domain is a union of its atoms and the floors,
    moved by their pieces' powers, permute each tower.
    """
    for m in range(1, max_level + 1):
        part = seq.level(m)
        targets = [[None] * t.height for t in part.towers]
        for dom, k in f.pieces:
            floors = part.floors_inside(dom)
            if floors is None:
                break
            for tgt, inside in zip(targets, floors):
                for j in inside:
                    tgt[j] = j + k
        else:
            if all(set(tgt) == set(range(len(tgt))) for tgt in targets):
                return TowerPermutation(m, targets)
    raise RefinementDepthError(
        "element is not a floor permutation within the level cap"
    )


def embed_level(tp: TowerPermutation, sm: StackingMap) -> TowerPermutation:
    """Blockwise action on the stacked copies of the lower-level towers."""
    if sm.lower.level != tp.level:
        raise InputFormatError(
            f"stacking starts at level {sm.lower.level}, element is at {tp.level}"
        )
    perms = []
    for lst in sm.order:
        perm = []
        offset = 0
        for i in lst:
            h = sm.lower.towers[i].height
            perm.extend(offset + tp.perms[i][f] for f in range(h))
            offset += h
        perms.append(tuple(perm))
    return TowerPermutation(sm.upper.level, perms)


def embed_to(seq: KRSequence, tp: TowerPermutation, target_level: int) -> TowerPermutation:
    out = tp
    while out.level < target_level:
        out = embed_level(out, seq.map(out.level))
    if out.level != target_level:
        raise InputFormatError("element already above the target level")
    return out


# ---------------------------------------------------------------------------
# membership in the base-point group


class GammaMembership:
    """Outcome of the orbit-bound membership test."""

    __slots__ = ("member", "bounds", "witness")

    def __init__(self, member: bool, bounds, witness=None):
        self.member = member
        self.bounds = bounds  # per piece: (domain, power, m, m_back)
        self.witness = witness  # failing entry of bounds, if any

    def to_json(self):
        data = {
            "member": self.member,
            "bounds": [
                {
                    "domain": dom.render(),
                    "power": k,
                    "first_forward_hit": m,
                    "last_backward_hit": mb,
                }
                for dom, k, m, mb in self.bounds
            ],
        }
        if self.witness is not None:
            dom, k, m, mb = self.witness
            data["witness"] = {
                "domain": dom.render(),
                "power": k,
                "allowed": [-m, -mb - 1],
            }
        return data


def membership_gamma(
    sys: System, x0: Point, h: PiecewisePower, cap: int = 100000
) -> GammaMembership:
    """Decide membership in the group preserving the forward orbit of x0.

    For each piece, m is the first time the forward orbit of x0 enters the
    domain and m_back the last backward time; the piece's power must lie in
    [-m, -m_back - 1].
    """
    n = len(h.pieces)
    first_fwd = [None] * n
    last_back = [None] * n
    y = x0
    for k in range(cap):
        if all(v is not None for v in first_fwd):
            break
        for i, (dom, _) in enumerate(h.pieces):
            if first_fwd[i] is None and dom.contains_point(y):
                first_fwd[i] = k
        y = sys.image_point(y, 1)
    y = sys.image_point(x0, -1)
    for k in range(1, cap + 1):
        if all(v is not None for v in last_back):
            break
        for i, (dom, _) in enumerate(h.pieces):
            if last_back[i] is None and dom.contains_point(y):
                last_back[i] = -k
        y = sys.image_point(y, -1)
    if any(v is None for v in first_fwd) or any(v is None for v in last_back):
        raise CapExceededError(
            f"orbit scan cap {cap} exhausted before meeting every piece; "
            "system may not be minimal or the cap is too small"
        )
    bounds = [
        (dom, k, first_fwd[i], last_back[i])
        for i, (dom, k) in enumerate(h.pieces)
    ]
    for entry in bounds:
        dom, k, m, mb = entry
        if not (-m <= k <= -mb - 1):
            return GammaMembership(False, bounds, witness=entry)
    return GammaMembership(True, bounds)


# ---------------------------------------------------------------------------
# sign analysis


def propagate_signs(sv: SignVector, sm: StackingMap) -> SignVector:
    """Signs one level up: each new tower multiplies copies of old signs."""
    if sm.lower.level != sv.level:
        raise InputFormatError("stacking level mismatch")
    new_signs = []
    for mults in sm.mult:
        s = 1
        for sign, m in zip(sv.signs, mults):
            if sign == -1 and m % 2 == 1:
                s = -s
        new_signs.append(s)
    return SignVector(sm.upper.level, new_signs)


class CommutatorStatus:
    __slots__ = ("member", "level", "depth")

    def __init__(self, member: bool, level: int | None, depth: int):
        self.member = member
        self.level = level
        self.depth = depth

    def to_json(self):
        if self.member:
            return {"in_commutator": True, "level": self.level}
        return {"in_commutator": "not-up-to-depth", "depth": self.depth}


def in_commutator(
    sys: System, x0: Point, tp: TowerPermutation, depth: int, seq: KRSequence | None = None
) -> CommutatorStatus:
    """First level at or below depth where the embedded signs are all even.

    All-even at level m puts the element in the derived subgroup of the
    level-m group; if no level up to depth works the answer is open, not No.
    """
    if depth < tp.level:
        raise InputFormatError("depth must be at least the element's level")
    if seq is None:
        seq = KRSequence(sys, x0)
    sv = tp.sign_vector()
    level = tp.level
    while True:
        if sv.all_even():
            return CommutatorStatus(True, level, depth)
        if level >= depth:
            return CommutatorStatus(False, None, depth)
        sv = propagate_signs(sv, seq.map(level))
        level += 1


def derived_approx(
    tp: TowerPermutation, target_level: int, seq: KRSequence
) -> TowerPermutation:
    """All-even element acting like tp on the source level's atom algebra.

    Embeds blockwise to the target level, then cancels each odd tower sign
    by swapping the base floors of two stacked copies of the same lower
    tower — a transposition that permutes atoms within the same source
    atom, so the action on the coarser algebra is unchanged.
    """
    if tp.sign_vector().all_even():
        return tp
    if target_level <= tp.level:
        raise InputFormatError("target level must exceed the element's level")
    emb = embed_to(seq, tp, target_level)
    sm = seq.map(target_level - 1)
    perms = []
    for k, perm in enumerate(emb.perms):
        if perm_sign(perm) == 1:
            perms.append(perm)
            continue
        lst = sm.order[k]
        chosen = None
        for i in sorted(set(lst)):
            if lst.count(i) >= 2:
                chosen = i
                break
        if chosen is None:
            raise InputFormatError(
                f"target tower {k} stacks no lower tower twice; increase the level"
            )
        offsets = []
        pos = 0
        for i in lst:
            if i == chosen:
                offsets.append(pos)
            pos += sm.lower.towers[i].height
        a, b = offsets[0], offsets[1]
        fixed = list(perm)
        for j in range(len(fixed)):
            if fixed[j] == a:
                fixed[j] = b
            elif fixed[j] == b:
                fixed[j] = a
        perms.append(tuple(fixed))
    return TowerPermutation(target_level, perms)


def involution_in(
    seq: KRSequence, c: Clopen, max_level: int = 64
) -> TowerPermutation:
    """Even double transposition supported inside a nonempty clopen.

    Uses the first level where the tower over the base point has at least
    four floors inside c; swaps the first two such floor pairs.
    """
    if c.is_empty():
        raise InputFormatError("need a nonempty clopen")
    for n in range(1, max_level + 1):
        xi = seq.level(n)
        i0, _ = atom_at(xi, seq.x0)
        tower = xi.towers[i0]
        floors = [j for j, a in enumerate(tower.atoms) if a.is_subset(c)]
        if len(floors) >= 4:
            perm = list(range(tower.height))
            f0, f1, f2, f3 = floors[:4]
            perm[f0], perm[f1] = f1, f0
            perm[f2], perm[f3] = f3, f2
            perms = [
                tuple(perm) if i == i0 else tuple(range(t.height))
                for i, t in enumerate(xi.towers)
            ]
            return TowerPermutation(n, perms)
    raise InputFormatError(f"no level up to {max_level} has four floors inside c")
