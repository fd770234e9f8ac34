"""Minimal homeomorphisms presented computably.

Two presentations: odometers (add-with-carry over an eventually periodic
base sequence, least significant digit first) and ordered Bratteli-Vershik
diagrams (successor map: flip the first non-maximal edge, reset the prefix
below it to the minimal path).  Both evaluate on eventually periodic points
and on clopens, exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import (
    CapExceededError,
    InadmissibleWordError,
    InputFormatError,
    UnsupportedSystemError,
)
from .space import Clopen, Point, ProductSpace, SpacePresentation, _int_list, _is_int, _merge


class System:
    """Common surface of the two presentations."""

    kind = "abstract"
    space: SpacePresentation

    def signature(self):
        return self.space.signature()

    def min_point(self) -> Point:
        raise NotImplementedError

    def image_point(self, x: Point, k: int) -> Point:
        raise NotImplementedError

    def image_clopen(self, a: Clopen, k: int) -> Clopen:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# odometers


class Odometer(System):
    """Adding machine on a product of finite cyclic alphabets."""

    kind = "odometer"

    def __init__(self, prefix=(), period=(2,)):
        self.space = ProductSpace(prefix, period)

    @property
    def prefix(self):
        return self.space.prefix

    @property
    def period(self):
        return self.space.period

    def capacity(self, depth: int) -> int:
        return self.space.word_count(depth)

    def value(self, word: tuple) -> int:
        v = 0
        mult = 1
        for i, d in enumerate(word):
            v += d * mult
            mult *= self.space.size_at(i)
        return v

    def digits(self, v: int, depth: int) -> tuple:
        out = []
        for i in range(depth):
            b = self.space.size_at(i)
            out.append(v % b)
            v //= b
        return tuple(out)

    def min_point(self) -> Point:
        return Point(self.space, (), (0,))

    def image_point(self, x: Point, k: int) -> Point:
        if k == 0:
            return x
        sp = self.space
        # window deep enough that the leftover carry is -1, 0 or +1
        L = max(len(x.head), len(sp.prefix)) + 1
        while self.capacity(L) <= abs(k):
            L += 1
        w = x.prefix_word(L)
        t = self.value(w) + k
        cap = self.capacity(L)
        carry, r = divmod(t, cap)  # floor division: carry in {-1, 0, +1}
        new_head = self.digits(r, L)
        # tail of x starting at position L, as a rotated cycle
        rot = (L - len(x.head)) % len(x.tail)
        tail = x.tail[rot:] + x.tail[:rot]
        if carry == 0:
            return Point(sp, new_head, tail)
        # scan the periodic tail for the first digit that absorbs the carry
        span = math.lcm(len(tail), len(sp.period))
        expanded = list((tail * (span // len(tail) + 1))[:span])
        hit = None
        for j in range(span):
            b = sp.size_at(L + j)
            if carry > 0 and expanded[j] < b - 1:
                hit = j
                break
            if carry < 0 and expanded[j] > 0:
                hit = j
                break
        if hit is None:
            # all-max tail rolls over to zeros; all-zero tail borrows to max
            if carry > 0:
                return Point(sp, new_head, (0,))
            max_tail = tuple(sp.size_at(L + j) - 1 for j in range(len(sp.period)))
            return Point(sp, new_head, max_tail)
        changed = []
        for j in range(hit):
            changed.append(sp.size_at(L + j) - 1 if carry < 0 else 0)
        changed.append(expanded[hit] + (1 if carry > 0 else -1))
        rot2 = (hit + 1) % len(tail)
        new_tail = tail[rot2:] + tail[:rot2]
        return Point(sp, new_head + tuple(changed), new_tail)

    def image_clopen(self, a: Clopen, k: int) -> Clopen:
        # adding k permutes depth-d words by value shift mod capacity:
        # the carry past depth d is a bijection of tails, so no splitting
        if k == 0 or a.is_empty():
            return a
        d = a.depth
        if d == 0:
            return a
        cap = self.capacity(d)
        return _merge(self.space, d, {self.digits((self.value(w) + k) % cap, d) for w in a.words})

    def to_json(self) -> dict:
        return {"odometer": {"prefix": list(self.prefix), "period": list(self.period)}}

    def __repr__(self):
        return f"Odometer(prefix={self.prefix}, period={self.period})"


def invariant_measure(sys: System, a: Clopen) -> Fraction:
    """Measure of a clopen under the unique invariant measure (odometers only)."""
    if not isinstance(sys, Odometer):
        raise UnsupportedSystemError(
            "exact invariant measure is only available for odometers"
        )
    if a.is_empty():
        return Fraction(0)
    return Fraction(len(a.words), sys.capacity(a.depth))


# ---------------------------------------------------------------------------
# ordered Bratteli-Vershik diagrams


class BVDiagram:
    """Ordered diagram data: vertex counts per level, ordered edges, period.

    Level 0 is a single root vertex.  Described levels are 1..L; levels
    beyond L repeat the patterns of levels period_start..L cyclically.
    Edges are given as (src, dst, order) triples over global vertex ids,
    root = 0, level-l vertices numbered consecutively after all shallower
    ones.  `order` is the position of the edge among the incoming edges of
    dst (the total order defining the Vershik successor).
    """

    def __init__(self, vertices, edges, period_start):
        self.counts = _int_list(vertices, "bv: 'vertices'")
        if not _is_int(period_start):
            raise InputFormatError("bv: 'period_start' must be an integer")
        self.period_start = period_start
        self.described = len(self.counts)
        if self.described < 1:
            raise InputFormatError("bv: need at least one level of vertices")
        if any(n < 1 for n in self.counts):
            raise InputFormatError("bv: every level needs at least one vertex")
        if not (1 <= self.period_start <= self.described):
            raise InputFormatError(
                f"bv: period_start must be in [1, {self.described}]"
            )
        # global id ranges per level
        self.level_start = [0, 1]
        for n in self.counts:
            self.level_start.append(self.level_start[-1] + n)
        # bucket edges by destination level and validate
        per_level = [[] for _ in range(self.described + 1)]  # index by level 1..L
        if not isinstance(edges, (list, tuple)):
            raise InputFormatError("bv: 'edges' must be a list")
        for idx, triple in enumerate(edges):
            if len(_int_list(triple, f"bv: edges[{idx}]")) != 3:
                raise InputFormatError(f"bv: edges[{idx}] must be [src, dst, order]")
            src, dst, order = triple
            lv = self._level_of_vertex(dst, idx)
            if lv < 1:
                raise InputFormatError(f"bv: edges[{idx}]: destination is the root")
            if self._level_of_vertex(src, idx) != lv - 1:
                raise InputFormatError(
                    f"bv: edges[{idx}]: source must be one level above destination"
                )
            per_level[lv].append((src, dst, order))
        # canonical per-level edge lists, sorted by (dst, order)
        self.edges_by_level = [None]
        for lv in range(1, self.described + 1):
            lst = sorted(per_level[lv], key=lambda e: (e[1], e[2]))
            if not lst:
                raise InputFormatError(f"bv: level {lv} has no edges")
            self.edges_by_level.append(lst)
            # incoming orders must be exactly 0..indeg-1
            byd = {}
            for src, dst, order in lst:
                byd.setdefault(dst, []).append(order)
            lo = self.level_start[lv]
            hi = self.level_start[lv + 1]
            for v in range(lo, hi):
                orders = byd.get(v, [])
                if sorted(orders) != list(range(len(orders))) or not orders:
                    raise InputFormatError(
                        f"bv: vertex {v} has incoming orders {sorted(orders)}, "
                        f"expected 0..indeg-1 (nonempty)"
                    )
            # no dead ends: every vertex one level up must have an outgoing edge
            srcs = {src for src, _, _ in lst}
            up_lo = self.level_start[lv - 1]
            up_hi = self.level_start[lv]
            for v in range(up_lo, up_hi):
                if v not in srcs:
                    raise InputFormatError(f"bv: vertex {v} has no outgoing edge")
        self._edge_cache = {}
        self._in_cache = {}
        self._out_cache = {}
        # periodic continuation must chain: counts at the wrap must agree
        if self.counts[self.described - 1] != self.count_at(self.period_start - 1):
            raise InputFormatError(
                "bv: periodic continuation mismatch: last level has "
                f"{self.counts[-1]} vertices but level {self.period_start - 1} has "
                f"{self.count_at(self.period_start - 1)}"
            )

    def _level_of_vertex(self, v, idx):
        if v == 0:
            return 0
        for lv in range(1, self.described + 1):
            if self.level_start[lv] <= v < self.level_start[lv + 1]:
                return lv
        raise InputFormatError(f"bv: edges[{idx}]: vertex id {v} out of range")

    # -- virtual (periodically continued) level structure -------------------

    @property
    def period_len(self) -> int:
        return self.described - self.period_start + 1

    def pattern_level(self, level: int) -> int:
        if level <= self.described:
            return level
        return self.period_start + (level - self.period_start) % self.period_len

    def count_at(self, level: int) -> int:
        if level == 0:
            return 1
        return self.counts[self.pattern_level(level) - 1]

    def level_edges(self, level: int) -> list:
        """Canonical (src_local, dst_local, order) triples for a level."""
        pat = self.pattern_level(level)
        if pat not in self._edge_cache:
            lo_src = self.level_start[pat - 1]
            lo_dst = self.level_start[pat]
            self._edge_cache[pat] = [
                (src - lo_src, dst - lo_dst, order)
                for src, dst, order in self.edges_by_level[pat]
            ]
        return self._edge_cache[pat]

    def incoming(self, level: int, v_local: int) -> list:
        """Edge symbol indices into a local vertex, sorted by order."""
        key = (self.pattern_level(level), v_local)
        if key not in self._in_cache:
            out = []
            for sym, (_, dst, order) in enumerate(self.level_edges(level)):
                if dst == v_local:
                    out.append((order, sym))
            self._in_cache[key] = [sym for _, sym in sorted(out)]
        return self._in_cache[key]

    def outgoing(self, level: int, src_local: int) -> tuple:
        """Edge symbol indices out of a local vertex, ascending."""
        key = (self.pattern_level(level), src_local)
        if key not in self._out_cache:
            self._out_cache[key] = tuple(
                sym for sym, (src, _, _) in enumerate(self.level_edges(level)) if src == src_local
            )
        return self._out_cache[key]

    def edge(self, level: int, sym: int) -> tuple:
        return self.level_edges(level)[sym]

    def path_counts(self, level: int) -> list:
        """Number of finite paths from the root into each level vertex."""
        counts = [1]
        for lv in range(1, level + 1):
            nxt = [0] * self.count_at(lv)
            for src, dst, _ in self.level_edges(lv):
                nxt[dst] += counts[src]
            counts = nxt
        return counts

    def incidence_matrix(self, level: int) -> list:
        """m[u][v] = number of edges from level-(l-1) vertex u to level-l vertex v."""
        m = [[0] * self.count_at(level) for _ in range(self.count_at(level - 1))]
        for src, dst, _ in self.level_edges(level):
            m[src][dst] += 1
        return m


class PathSpace(SpacePresentation):
    """Edge-path tree of a Bratteli diagram; symbols are per-level edge indices."""

    __slots__ = ("diagram", "_sig")

    def __init__(self, diagram: BVDiagram):
        self.diagram = diagram
        d = diagram
        self._sig = (
            "bv",
            tuple(d.counts),
            tuple(tuple(e) for lv in range(1, d.described + 1) for e in d.edges_by_level[lv]),
            d.period_start,
        )

    def signature(self) -> tuple:
        return self._sig

    def _walk(self, word: tuple) -> tuple:
        """(n, v): the longest path prefix of word has n edges and ends at
        the level-n vertex v."""
        v = 0
        level_edges = self.diagram.level_edges
        for i, sym in enumerate(word):
            edges = level_edges(i + 1)
            if not 0 <= sym < len(edges) or edges[sym][0] != v:
                return i, v
            v = edges[sym][1]
        return len(word), v

    def next_symbols(self, word: tuple) -> tuple:
        n, v = self._walk(word)
        return self.diagram.outgoing(n + 1, v) if n == len(word) else ()

    def check_word(self, word) -> tuple:
        w = tuple(word)
        n, _ = self._walk(w)
        if n < len(w):
            raise InadmissibleWordError(w, junction=n)
        return w

    def extensions(self, word: tuple, depth: int) -> list[tuple]:
        if depth <= len(word):
            return [word]
        n, v = self._walk(word)
        if n < len(word):
            return []
        d = self.diagram
        out = [(word, v)]
        for lv in range(n + 1, depth + 1):
            edges = d.level_edges(lv)
            out = [(w + (s,), edges[s][1]) for w, u in out for s in d.outgoing(lv, u)]
        return [w for w, _ in out]

    def word_count(self, depth: int) -> int:
        return sum(self.diagram.path_counts(depth))

    def size_bound(self, depth: int) -> int:
        return len(self.diagram.level_edges(depth + 1))

    def max_size_bound(self) -> int:
        # levels past the described ones repeat described patterns
        return max(self.size_bound(i) for i in range(self.diagram.described))

    def point_probe(self, head_len: int, tail_len: int) -> int:
        return head_len + 2 * math.lcm(tail_len, self.diagram.period_len) + tail_len


class BVSystem(System):
    """Vershik map of a properly ordered Bratteli diagram.

    The inverse is the Vershik map of the reversed edge order, so every step
    below takes a direction: forward moves to the next incoming edge and
    resets to minimal edges, backward to the previous one and maximal edges.
    """

    kind = "bv"

    def __init__(self, diagram: BVDiagram):
        self.diagram = diagram
        self.space = PathSpace(diagram)
        report = self.proper_ordering_report()
        if report["verdict"] != "properly-ordered":
            raise InputFormatError(
                f"bv: diagram is not properly ordered: {report['reason']}"
            )

    # -- extremal paths ------------------------------------------------------

    def _extreme_edge(self, level: int, v_local: int, which: str) -> int:
        """The min or max incoming edge of a vertex."""
        inc = self.diagram.incoming(level, v_local)
        return inc[0] if which == "min" else inc[-1]

    def _extreme_word_into(self, level: int, v_local: int, which: str) -> tuple:
        """The minimal or maximal finite path into a vertex, as symbols."""
        word = []
        v = v_local
        for lv in range(level, 0, -1):
            sym = self._extreme_edge(lv, v, which)
            word.append(sym)
            v = self.diagram.edge(lv, sym)[0]
        return tuple(reversed(word))

    def _thread(self, which: str):
        """Backward-stable vertex thread of the extremal path at each level.

        Returns (verdict, data): verdict "unique" with the per-level vertex
        list over levels 1..settle, or "multiple" with two witness vertices.
        """
        d = self.diagram
        vmax = max(d.count_at(l) for l in range(d.period_start, d.described + 1))
        settle = d.period_start + d.period_len * (vmax + 2)
        # sets of level-k vertices lying on extremal paths from level `deep`
        deep = settle + d.period_len * (vmax + 2)
        sets = {deep: set(range(d.count_at(deep)))}
        for lv in range(deep, 0, -1):
            sets[lv - 1] = {d.edge(lv, self._extreme_edge(lv, v, which))[0] for v in sets[lv]}
        for k in range(d.period_start - 1, d.period_start - 1 + d.period_len):
            if len(sets[k]) > 1:
                return "multiple", (k, sorted(sets[k])[:2])
        thread = [sorted(sets[k])[0] if sets[k] else 0 for k in range(0, settle + 1)]
        return "unique", thread

    def proper_ordering_report(self) -> dict:
        for which, name in (("min", "minimal"), ("max", "maximal")):
            verdict, data = self._thread(which)
            if verdict == "multiple":
                level, pair = data
                return {
                    "verdict": "failed",
                    "reason": f"two distinct {name} paths pass through level-{level} "
                    f"vertices {pair[0]} and {pair[1]}",
                }
        return {"verdict": "properly-ordered", "reason": ""}

    def _extreme_point(self, which: str) -> Point:
        verdict, thread = self._thread(which)
        if verdict != "unique":
            raise InputFormatError("diagram has no unique extremal path")
        # in the periodic regime the thread repeats with the pattern period
        start = self.diagram.period_start
        T = self.diagram.period_len
        syms = [self._extreme_edge(lv, thread[lv], which) for lv in range(1, start + T)]
        return Point(self.space, tuple(syms[: start - 1]), tuple(syms[start - 1 :]))

    def min_point(self) -> Point:
        return self._extreme_point("min")

    # -- one Vershik step, either direction -------------------------------------

    def _step_word(self, word: tuple, forward: bool) -> tuple | None:
        """Vershik successor (forward) or predecessor of a finite path.

        The first edge with a next (previous) incoming edge at its target
        moves to it, and the prefix below becomes the minimal (maximal) path
        into the new source.  None when every edge is maximal (minimal).
        """
        d = self.diagram
        shift, reset = (1, "min") if forward else (-1, "max")
        for j, sym in enumerate(word):
            lv = j + 1
            inc = d.incoming(lv, d.edge(lv, sym)[1])
            at = inc.index(sym) + shift
            if 0 <= at < len(inc):
                src = d.edge(lv, inc[at])[0]
                return self._extreme_word_into(j, src, reset) + (inc[at],) + word[lv:]
        return None

    def _step_point(self, x: Point, forward: bool) -> Point:
        probe = self.space.point_probe(len(x.head), len(x.tail))
        stepped = self._step_word(x.prefix_word(probe), forward)
        if stepped is None:
            # the whole expansion is extremal, hence the point is the extremal path
            return self._extreme_point("min" if forward else "max")
        rot = (probe - len(x.head)) % len(x.tail)
        return Point(self.space, stepped, x.tail[rot:] + x.tail[:rot])

    def image_point(self, x: Point, k: int) -> Point:
        for _ in range(abs(k)):
            x = self._step_point(x, forward=(k > 0))
        return x

    # -- dynamics on clopens -------------------------------------------------------

    def _step_words(self, words: set, depth: int, forward: bool) -> Clopen:
        """Image of a union of depth-d cylinders under the (co)Vershik map.

        A word with a Vershik step maps onto the cylinder of the stepped word.
        The extremal words, which have none, split one level deeper until
        they make up the whole extremal bundle of a depth: one word per vertex.
        """
        d = self.diagram
        out: set = set()
        cur: set = set()
        for w in words:
            stepped = self._step_word(w, forward)
            if stepped is None:
                cur.add(w)
            else:
                out.add(stepped)
        out_depth = depth
        cap = depth + d.period_len * (max(d.count_at(l) for l in range(1, d.described + 1)) + 3) + 4
        D = depth
        while cur:
            if len(cur) == d.count_at(D):
                # image of the full extremal bundle: complement of the
                # stepped images of every non-extremal word (extremal ones give None)
                all_words = self.space.words_at_depth(D)
                out |= set(all_words) - {self._step_word(w, forward) for w in all_words}
                out_depth = D
                break
            if D >= cap:
                raise CapExceededError(
                    "extremal-bundle image did not stabilize; diagram is not "
                    "properly ordered or the cap is too small"
                )
            # split one level deeper: non-extremal extensions step as words,
            # extremal extensions stay in the frontier
            nxt = set()
            for w in cur:
                for u in self.space.extensions(w, D + 1):
                    stepped = self._step_word(u, forward)
                    if stepped is None:
                        nxt.add(u)
                    else:
                        out_depth = D + 1
                        out.add(stepped)
            cur = nxt
            D += 1
        # normalize mixed depths
        final = set()
        for w in out:
            final.update(self.space.extensions(w, out_depth))
        return _merge(self.space, out_depth, final)

    def image_clopen(self, a: Clopen, k: int) -> Clopen:
        if k == 0 or a.is_empty() or a.is_full():
            return a
        cur = a
        for _ in range(abs(k)):
            depth = max(cur.depth, 1)
            cur = self._step_words(cur.refined_words(depth), depth, forward=(k > 0))
        return cur

    def to_json(self) -> dict:
        d = self.diagram
        edges = []
        for lv in range(1, d.described + 1):
            edges.extend([list(e) for e in d.edges_by_level[lv]])
        return {
            "bv": {
                "vertices": list(d.counts),
                "edges": edges,
                "period_start": d.period_start,
            }
        }

    def __repr__(self):
        return f"BVSystem(counts={self.diagram.counts}, period_start={self.diagram.period_start})"


# ---------------------------------------------------------------------------
# minimality evidence


def _matrix_mul(a, b):
    n, mid, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for k in range(mid):
            if a[i][k]:
                aik = a[i][k]
                for j in range(m):
                    out[i][j] += aik * b[k][j]
    return out


def minimality_evidence(sys: System, horizon: int = 64) -> dict:
    """Minimality report: certified for odometers, matrix evidence for BV."""
    if horizon < 1:
        raise InputFormatError("horizon must be >= 1")
    if isinstance(sys, Odometer):
        return {"verdict": "certified", "detail": "odometer: orbit of 0 is dense by carry arithmetic"}
    if not isinstance(sys, BVSystem):
        raise UnsupportedSystemError(f"unknown system kind {sys.kind!r}")
    d = sys.diagram
    # telescoped incidence over one full period of the periodic regime
    prod = None
    for lv in range(d.period_start, d.described + 1):
        m = d.incidence_matrix(lv)
        prod = m if prod is None else _matrix_mul(prod, m)
    n = len(prod)
    if n != len(prod[0]):
        # counts validated to wrap, so this cannot happen; guard anyway
        raise InputFormatError("bv: telescoped incidence is not square")
    wielandt = n * n - 2 * n + 2 if n > 1 else 1
    power = prod
    t = 1
    limit = min(horizon, max(wielandt, 1))
    while t <= limit:
        if all(all(e > 0 for e in row) for row in power):
            order = sys.proper_ordering_report()
            if order["verdict"] != "properly-ordered":
                return {"verdict": "failed", "witness": order["reason"]}
            return {
                "verdict": "evidence-to-horizon",
                "detail": f"telescoped incidence is primitive (positive at power {t}); "
                f"unique minimal and maximal paths verified",
            }
        power = _matrix_mul(power, prod)
        t += 1
    # not primitive within the bound: find an unreachable pair if reducible
    reach = [[1 if i == j or prod[i][j] else 0 for j in range(n)] for i in range(n)]
    for _ in range(n):
        reach = [[1 if reach[i][j] or any(reach[i][k] and reach[k][j] for k in range(n)) else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if not reach[i][j]:
                return {
                    "verdict": "failed",
                    "witness": f"vertex pair ({i}, {j}) unreachable in the telescoped diagram",
                }
    return {
        "verdict": "failed",
        "witness": "telescoped incidence is irreducible but not primitive "
        "(cyclic class structure)",
    }


# ---------------------------------------------------------------------------
# descriptors


def load_system(obj) -> System:
    """Build a system from a JSON-style descriptor dict."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputFormatError(
            "descriptor must be exactly one of {'odometer': ...} or {'bv': ...}"
        )
    ((kind, body),) = obj.items()
    if kind not in ("odometer", "bv"):
        raise InputFormatError(f"unknown system kind {set(obj)!r}")
    if not isinstance(body, dict):
        raise InputFormatError(f"{kind}: body must be an object")
    if kind == "odometer":
        if "period" not in body:
            raise InputFormatError("odometer: missing 'period'")
        prefix = _int_list(body.get("prefix", []), "odometer: 'prefix'")
        return Odometer(prefix, _int_list(body["period"], "odometer: 'period'"))
    for key in ("vertices", "edges", "period_start"):
        if key not in body:
            raise InputFormatError(f"bv: missing {key!r}")
    return BVSystem(BVDiagram(body["vertices"], body["edges"], body["period_start"]))


def system_from_file(path: str) -> System:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return load_system(obj)
