"""Independent finite models used as correctness oracles.

Nothing here imports cantordyn. Every system the benchmark uses is modelled
as an odometer acting on digit words: a depth-d word is a number in
mixed radix, least significant digit first, and the map adds one with
carry, so T^k sends the depth-d cylinder of value v onto the cylinder of
value (v + k) mod capacity(d). Odometer descriptors are modelled directly.
A Bratteli-Vershik descriptor is accepted only in the "complete, ordered by
source" shape (every vertex of a level receives one edge from each vertex
of the level above, ordered by source index); its Vershik map is the n-adic
odometer on the sequence of visited vertices, which this module converts
to and from edge-symbol words.
"""

from __future__ import annotations

from fractions import Fraction


class ModelError(Exception):
    """A descriptor or literal this model does not cover."""


class DigitModel:
    """A system seen as an odometer on digit words.

    `to_digits` and `from_digits` convert between the library's symbol
    words and digit words of the same length.
    """

    def __init__(self, prefix, period, bv_symbols=None):
        self.prefix = tuple(int(b) for b in prefix)
        self.period = tuple(int(b) for b in period)
        # bv_symbols[level] maps a symbol to (src_digit, dst_digit); level 1
        # symbols carry src None.  None for a plain odometer.
        self.bv_symbols = bv_symbols
        self._caps = [1]  # _caps[d] == cap(d), extended on demand

    # -- radix arithmetic ---------------------------------------------------

    def size(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def cap(self, depth: int) -> int:
        caps = self._caps
        while len(caps) <= depth:
            caps.append(caps[-1] * self.size(len(caps) - 1))
        return caps[depth]

    def value(self, digits) -> int:
        v, mult = 0, 1
        for i, d in enumerate(digits):
            if not 0 <= d < self.size(i):
                raise ModelError(f"digit {d} out of range at position {i}")
            v += d * mult
            mult *= self.size(i)
        return v

    def digits(self, v: int, depth: int) -> tuple:
        out = []
        for i in range(depth):
            v, d = divmod(v, self.size(i))
            out.append(d)
        return tuple(out)

    # -- symbol words <-> digit words ------------------------------------------

    def _bv_table(self, level: int) -> dict:
        tables = self.bv_symbols
        return tables[min(level, len(tables) - 1)]

    def to_digits(self, word) -> tuple:
        if self.bv_symbols is None:
            return tuple(word)
        out = []
        for i, sym in enumerate(word):
            table = self._bv_table(i + 1)
            if sym not in table:
                raise ModelError(f"symbol {sym} unknown at level {i + 1}")
            src, dst = table[sym]
            if i > 0 and src != out[-1]:
                raise ModelError(f"word {word!r} is not a path")
            out.append(dst)
        return tuple(out)

    def from_digits(self, digits) -> tuple:
        if self.bv_symbols is None:
            return tuple(digits)
        out = []
        for i, d in enumerate(digits):
            table = self._bv_table(i + 1)
            want = (None if i == 0 else digits[i - 1], d)
            out.append(next(s for s, edge in table.items() if edge == want))
        return tuple(out)

    def word_value(self, word) -> int:
        return self.value(self.to_digits(word))

    # -- value sets ----------------------------------------------------------

    def refine(self, depth: int, values, target: int) -> set:
        """Values at depth `target` of the union of depth-`depth` cylinders."""
        step = self.cap(depth)
        copies = self.cap(target) // step
        return {v + step * j for v in values for j in range(copies)}

    def measure(self, depth: int, values) -> Fraction:
        return Fraction(len(values), self.cap(depth))

    def canonical(self, depth: int, values) -> tuple[int, set]:
        """Least depth at which the value set is a union of cylinders, and
        its values there."""
        values = set(values)
        while depth > 0:
            parents = {v % self.cap(depth - 1) for v in values}
            if self.refine(depth - 1, parents, depth) != values:
                break
            values, depth = parents, depth - 1
        return depth, values

    # -- closed forms -------------------------------------------------------------

    def first_last_hit(self, depth: int, values, v0: int) -> tuple[int, int]:
        """First forward and last backward visit of the orbit of x0.

        x0 has value v0 (mod the capacity) at this depth, so T^t x0 lies in
        the cylinder of value (v0 + t) mod cap.
        """
        cap = self.cap(depth)
        first = min((v - v0) % cap for v in values)
        last = -min(((v0 - v - 1) % cap) + 1 for v in values)
        return first, last


def model_from_descriptor(obj) -> DigitModel:
    """Build the model of a descriptor dict, or raise ModelError."""
    if "odometer" in obj:
        body = obj["odometer"]
        return DigitModel(body.get("prefix", []), body["period"])
    if "bv" not in obj:
        raise ModelError(f"unknown descriptor kind {sorted(obj)!r}")
    body = obj["bv"]
    counts = [int(n) for n in body["vertices"]]
    n = counts[0]
    if any(c != n for c in counts) or int(body["period_start"]) != 2 or len(counts) != 2:
        raise ModelError("only two-level complete diagrams repeating from level 2 are modelled")
    starts = [0, 1, 1 + n, 1 + 2 * n]
    by_level = {1: [], 2: []}
    for src, dst, order in body["edges"]:
        level = 1 if dst < starts[2] else 2
        by_level[level].append((dst, order, src))
    tables = [None]
    for level in (1, 2):
        edges = sorted(by_level[level])
        table = {}
        for sym, (dst, order, src) in enumerate(edges):
            src_local = None if level == 1 else src - starts[level - 1]
            if level == 2 and order != src_local:
                raise ModelError("incoming edges must be ordered by source")
            table[sym] = (src_local, dst - starts[level])
        expected = n if level == 1 else n * n
        if len(set(table.values())) != expected or len(table) != expected:
            raise ModelError("diagram is not complete between levels")
        tables.append(table)
    return DigitModel((), (n,), bv_symbols=tables)


# ---------------------------------------------------------------------------
# clopen literals and piecewise elements


def parse_literal(model: DigitModel, text: str) -> tuple[int, set]:
    """(depth, value set) of a rendered clopen literal."""
    if text == "X":
        return 0, {0}
    if text == "EMPTY":
        return 0, set()
    words = []
    for tok in text.split("+"):
        if "." in tok:
            words.append(tuple(int(p) for p in tok.split(".")))
        elif tok.isdigit():
            words.append(tuple(int(c) for c in tok))
        else:
            raise ModelError(f"bad word {tok!r} in {text!r}")
    depth = max(len(w) for w in words)
    values = set()
    for w in words:
        values |= model.refine(len(w), {model.word_value(w)}, depth)
    return depth, values


def render_literal(model: DigitModel, depth: int, values) -> str:
    """A (not necessarily canonical) literal for a value set."""
    if not values:
        return "EMPTY"
    if depth == 0:
        return "X"
    words = [model.from_digits(model.digits(v, depth)) for v in values]
    sep = "" if all(model.size(i) <= 10 for i in range(depth)) else "."
    return "+".join(sep.join(str(s) for s in w) for w in words)


class Element:
    """A piecewise power as (value set, power) pieces at one common depth."""

    def __init__(self, model: DigitModel, pieces, depth: int = 0):
        """pieces: (depth, value set, power) triples, kept unmerged."""
        self.model = model
        self.depth = max([d for d, _, _ in pieces] + [depth])
        self.pieces = [
            (model.refine(d, vals, self.depth), k) for d, vals, k in pieces
        ]

    def deepened(self, depth: int) -> "Element":
        return Element(self.model, [(self.depth, vals, k) for vals, k in self.pieces], depth)

    def merged(self) -> dict:
        """power -> value set, equal powers unioned, empty pieces dropped."""
        out: dict = {}
        for vals, k in self.pieces:
            out.setdefault(k, set()).update(vals)
        return {k: v for k, v in out.items() if v}

    def overlaps_with_equal_power(self) -> bool:
        seen: dict = {}
        for vals, k in self.pieces:
            if seen.get(k, set()) & vals:
                return True
            seen.setdefault(k, set()).update(vals)
        return False

    def power_map(self) -> dict | None:
        """value -> power when the merged pieces form a homeomorphism."""
        cap = self.model.cap(self.depth)
        powers: dict = {}
        images = set()
        for k, vals in self.merged().items():
            for v in vals:
                if v in powers:
                    return None
                powers[v] = k
                images.add((v + k) % cap)
        if len(powers) != cap or len(images) != cap:
            return None
        return powers


def element_from_json(model: DigitModel, data) -> Element:
    return Element(
        model,
        [parse_literal(model, p["domain"]) + (int(p["power"]),) for p in data["pieces"]],
    )


def zigzag(k: int) -> int:
    return 2 * k - 1 if k > 0 else -2 * k


def is_canonical(model: DigitModel, data) -> bool:
    """Nonempty pieces with distinct powers in zigzag order, each domain
    written at its least depth (the library's canonical form)."""
    powers = [int(p["power"]) for p in data["pieces"]]
    if powers != sorted(powers, key=zigzag) or len(set(powers)) != len(powers):
        return False
    for p in data["pieces"]:
        depth, vals = parse_literal(model, p["domain"])
        if not vals or model.canonical(depth, vals)[0] != depth:
            return False
    return True


def same_element(a: Element, b: Element) -> bool:
    depth = max(a.depth, b.depth)
    return a.deepened(depth).merged() == b.deepened(depth).merged()


def is_member(model: DigitModel, elem: Element, v0_of) -> bool:
    """Closed-form test: each piece's power lies in [-first, -last - 1].

    v0_of(depth) is the value of the base point's prefix at that depth.
    """
    v0 = v0_of(elem.depth)
    for k, vals in elem.merged().items():
        first, last = model.first_last_hit(elem.depth, vals, v0)
        if not -first <= k <= -last - 1:
            return False
    return True
