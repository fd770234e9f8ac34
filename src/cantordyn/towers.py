"""Kakutani-Rokhlin partitions and stacking data.

A partition is a list of towers; tower floors are clopens, the map sends
each floor onto the next and the union of tops onto the union of bases.
Sequences built here satisfy the four ladder properties: each level is
finer than the previous, bases are nested cylinders around the base point,
the n-th canonical cylinder is a union of level-n atoms, and the minimal
height at level n exceeds n.
"""

from __future__ import annotations

from .errors import (
    CapExceededError,
    InputFormatError,
    RefinementDepthError,
    StackingMismatchError,
    UnsupportedSystemError,
)
from .space import Clopen, Point, _merge, cylinder, cylinder_at, partition_check, union_all
from .systems import BVSystem, Odometer, System


class Tower:
    __slots__ = ("base", "height", "atoms")

    def __init__(self, atoms):
        if not atoms:
            raise InputFormatError("tower needs at least one floor")
        self.atoms = list(atoms)
        self.base = self.atoms[0]
        self.height = len(self.atoms)

    def to_json(self):
        return {"height": self.height, "floors": [a.render() for a in self.atoms]}


class KRPartition:
    """Finite list of towers whose floors partition the space."""

    def __init__(self, level: int, towers, space):
        self.level = level
        self.towers = list(towers)
        self.space = space

    @staticmethod
    def trivial(sys: System) -> "KRPartition":
        return KRPartition(0, [Tower([Clopen.full(sys.space)])], sys.space)

    def heights(self) -> list[int]:
        return [t.height for t in self.towers]

    def min_height(self) -> int:
        return min(t.height for t in self.towers)

    def atom(self, i: int, j: int) -> Clopen:
        return self.towers[i].atoms[j]

    def all_atoms(self):
        """(tower, floor, clopen) triples, tower-major."""
        for i, t in enumerate(self.towers):
            for j, a in enumerate(t.atoms):
                yield i, j, a

    def atom_count(self) -> int:
        return sum(t.height for t in self.towers)

    def max_depth(self) -> int:
        return max(a.depth for _, _, a in self.all_atoms())

    def base_union(self) -> Clopen:
        return union_all(self.space, [t.base for t in self.towers])

    def top_union(self) -> Clopen:
        return union_all(self.space, [t.atoms[-1] for t in self.towers])

    def floors_inside(self, a: Clopen) -> list[list[int]] | None:
        """Floors of the atoms inside a, per tower; None when a is not an atom union.

        Everything is refined once to the common depth of a and the atoms, so
        an atom is inside a iff its words are a subset of a's words, and a is
        a union of atoms iff the inside atoms' words add up to all of a's.
        """
        depth = max(a.depth, self.max_depth())
        words = a.refined_words(depth)
        floors = []
        covered = 0
        for t in self.towers:
            inside = []
            for j, atom in enumerate(t.atoms):
                atom_words = atom.refined_words(depth)
                if atom_words <= words:
                    inside.append(j)
                    covered += len(atom_words)
            floors.append(inside)
        return floors if covered == len(words) else None

    def contains_clopen(self, a: Clopen) -> bool:
        """Whether a is a union of atoms of this partition."""
        return self.floors_inside(a) is not None

    def validate(self, sys: System) -> None:
        """Assert the partition and floor-map structure; raises on failure."""
        atoms = list(self.all_atoms())
        k, rest = partition_check(sys.space, [a for _, _, a in atoms])
        if k is not None:
            i, j, _ = atoms[k]
            raise InputFormatError(f"atoms overlap at tower {i} floor {j}")
        if not rest.is_empty():
            raise InputFormatError("atoms do not cover the space")
        for i, t in enumerate(self.towers):
            for j in range(1, t.height):
                if sys.image_clopen(t.atoms[j - 1], 1) != t.atoms[j]:
                    raise InputFormatError(
                        f"tower {i}: floor {j - 1} does not map onto floor {j}"
                    )
        if sys.image_clopen(self.top_union(), 1) != self.base_union():
            raise InputFormatError("union of tops does not map onto union of bases")

    def to_json(self):
        return {
            "level": self.level,
            "towers": [t.to_json() for t in self.towers],
        }


def atom_at(xi: KRPartition, x: Point) -> tuple[int, int]:
    """Tower and floor of the unique atom containing a point."""
    for i, j, a in xi.all_atoms():
        if a.contains_point(x):
            return (i, j)
    raise InputFormatError("partition does not cover the point (invalid partition)")


# ---------------------------------------------------------------------------
# constructions


def kr_from_clopen(sys: System, a: Clopen, cap: int = 10**6) -> KRPartition:
    """First-return partition: towers indexed by return time to a."""
    if a.is_empty():
        raise InputFormatError("first-return construction needs a nonempty clopen")
    towers = []
    remaining = a  # points of a whose return time is still unknown
    flow = a  # phi^t applied to those points, at current t
    ops = 0
    t = 0
    while not remaining.is_empty():
        t += 1
        flow = sys.image_clopen(flow, 1)
        returned = flow.intersection(a)
        ops += len(flow.words) + len(returned.words)
        if ops > cap:
            raise CapExceededError(
                f"first-return split cap {cap} exceeded at time {t}; "
                "system may not be minimal or the cap is too small"
            )
        if not returned.is_empty():
            base = sys.image_clopen(returned, -t)
            atoms = [base]
            for _ in range(t - 1):
                atoms.append(sys.image_clopen(atoms[-1], 1))
            towers.append(Tower(atoms))
            remaining = remaining.difference(base)
            flow = flow.difference(returned)
    return KRPartition(0, towers, sys.space)


def refine_with_clopen(sys: System, xi: KRPartition, a: Clopen) -> KRPartition:
    """Cut towers so that a becomes a union of atoms.

    Tower bases split into itinerary classes: two base points stay together
    iff their floors agree about membership in a all the way up the tower.
    """
    new_towers = []
    for t in xi.towers:
        pullbacks = [sys.image_clopen(a, -j) for j in range(t.height)]
        depth = max([t.base.depth] + [p.depth for p in pullbacks])
        words = t.base.refined_words(depth)
        classes: dict = {}
        for w in sorted(words):
            pattern = tuple(p.contains_word(w) for p in pullbacks)
            classes.setdefault(pattern, []).append(w)
        for pattern in sorted(classes):
            base = _merge(sys.space, depth, set(classes[pattern]))
            atoms = [base]
            for _ in range(t.height - 1):
                atoms.append(sys.image_clopen(atoms[-1], 1))
            new_towers.append(Tower(atoms))
    return KRPartition(xi.level, new_towers, xi.space)


def stacking_map_between(xi_n: KRPartition, xi_n1: KRPartition) -> "StackingMap":
    """Ordered traversal of old towers along each new tower."""
    depth = xi_n.max_depth()
    base_lookup = {}
    for i, t in enumerate(xi_n.towers):
        for w in t.base.refined_words(depth):
            base_lookup[w] = i
    order = []
    for k, t in enumerate(xi_n1.towers):
        lst = []
        j = 0
        while j < t.height:
            atom = t.atoms[j]
            w = min(atom.refined_words(max(depth, atom.depth)))[:depth]
            i = base_lookup.get(w)
            if i is None or not atom.is_subset(xi_n.towers[i].base):
                raise StackingMismatchError(
                    f"new tower {k} floor {j} does not sit on an old base"
                )
            lst.append(i)
            j += xi_n.towers[i].height
        if j != t.height:
            raise StackingMismatchError(f"new tower {k} height is not a stack of old heights")
        order.append(lst)
    return StackingMap(xi_n, xi_n1, order)


class StackingMap:
    """How level-(n+1) towers stack copies of level-n towers."""

    def __init__(self, xi_n: KRPartition, xi_n1: KRPartition, order):
        self.lower = xi_n
        self.upper = xi_n1
        self.order = [list(lst) for lst in order]
        self.mult = [
            [lst.count(i) for i in range(len(xi_n.towers))] for lst in self.order
        ]
        for k, lst in enumerate(self.order):
            total = sum(xi_n.towers[i].height for i in lst)
            if total != xi_n1.towers[k].height:
                raise StackingMismatchError(
                    f"tower {k}: stacked heights sum to {total}, "
                    f"expected {xi_n1.towers[k].height}"
                )

    def to_json(self):
        return {"order": self.order, "multiplicities": self.mult}


# ---------------------------------------------------------------------------
# canonical sequences


class KRSequence:
    """Lazily extendable ladder of partitions with stacking maps.

    Levels are 1-indexed; level(0) is the trivial one-cell partition.
    """

    def __init__(self, sys: System, x0: Point | None = None):
        self.sys = sys
        self.x0 = x0 if x0 is not None else sys.min_point()
        if self.x0.space.signature() != sys.space.signature():
            raise InputFormatError("base point lives over a different space")
        self._levels: list[KRPartition] = []
        self._maps: list[StackingMap] = []
        self._depth_plan: list[int] = []
        self._bv_depths: list[int] = []
        self._native_bv = isinstance(sys, BVSystem) and self.x0 == sys.min_point()

    def odometer_level_depth(self, n: int) -> int:
        """Cylinder depth of level n, computed without building partitions."""
        if not isinstance(self.sys, Odometer):
            raise UnsupportedSystemError("depth schedule shortcut needs an odometer")
        plan = self._depth_plan
        while len(plan) < n:
            i = len(plan) + 1
            m = (plan[-1] if plan else 0) + 1
            u_depth = cylinder_at(self.sys.space, i).depth
            while self.sys.capacity(m) <= i or m < u_depth:
                m += 1
            plan.append(m)
        return plan[n - 1]

    def level(self, n: int) -> KRPartition:
        if n == 0:
            return KRPartition.trivial(self.sys)
        self.ensure(n)
        return self._levels[n - 1]

    def map(self, n: int) -> StackingMap:
        """Stacking of level n inside level n+1."""
        self.ensure(n + 1)
        return self._maps[n - 1]

    def built(self) -> int:
        return len(self._levels)

    def ensure(self, n: int) -> None:
        while len(self._levels) < n:
            self._build_next()

    def _build_next(self) -> None:
        n = len(self._levels) + 1
        u_n = cylinder_at(self.sys.space, n)
        if isinstance(self.sys, Odometer):
            part = self._next_odometer(n, u_n)
        elif self._native_bv:
            part = self._next_bv(n, u_n)
        else:
            part = self._next_generic(n, u_n)
        part.level = n
        self._levels.append(part)
        if n > 1:
            self._maps.append(stacking_map_between(self._levels[n - 2], part))

    # -- odometer: single tower around the base point's cylinder ------------

    def _next_odometer(self, n: int, u_n: Clopen) -> KRPartition:
        sys: Odometer = self.sys
        m = self.odometer_level_depth(n)
        base = cylinder(sys.space, self.x0.prefix_word(m))
        atoms = [base]
        for _ in range(sys.capacity(m) - 1):
            atoms.append(sys.image_clopen(atoms[-1], 1))
        return KRPartition(n, [Tower(atoms)], sys.space)

    # -- Bratteli-Vershik with minimal base point: native vertex towers -----

    def _paths_into(self, level: int, v: int):
        """Finite paths into a vertex, in successor order."""
        if level == 0:
            yield ()
            return
        d = self.sys.diagram
        for sym in d.incoming(level, v):
            src = d.edge(level, sym)[0]
            for p in self._paths_into(level - 1, src):
                yield p + (sym,)

    def _next_bv(self, n: int, u_n: Clopen) -> KRPartition:
        sys: BVSystem = self.sys
        d = sys.diagram
        L = (self._bv_depths[-1] if self._bv_depths else 0) + 1
        while min(d.path_counts(L)) <= n or L < u_n.depth:
            L += 1
        self._bv_depths.append(L)
        towers = []
        for v in range(d.count_at(L)):
            towers.append(Tower([_merge(sys.space, L, {w}) for w in self._paths_into(L, v)]))
        return KRPartition(n, towers, sys.space)

    # -- generic first-return fallback ----------------------------------------

    def _next_generic(self, n: int, u_n: Clopen) -> KRPartition:
        sys = self.sys
        d = (self._bv_depths[-1] if self._bv_depths else 0) + 1
        prev = self._levels[-1] if self._levels else None
        while True:
            base = cylinder(sys.space, self.x0.prefix_word(d))
            part = kr_from_clopen(sys, base)
            part = refine_with_clopen(sys, part, u_n)
            if prev is not None:
                for _, _, a in prev.all_atoms():
                    part = refine_with_clopen(sys, part, a)
            if part.min_height() > n and d >= u_n.depth:
                self._bv_depths.append(d)
                return part
            d += 1


def kr_sequence(sys: System, x0: Point | None = None, levels: int = 1) -> KRSequence:
    """Canonical ladder of partitions; see KRSequence for the properties."""
    if levels < 1:
        raise InputFormatError("need at least one level")
    seq = KRSequence(sys, x0)
    seq.ensure(levels)
    return seq
