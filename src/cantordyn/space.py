"""Cantor space presentations, points, and the exact clopen algebra.

A space is presented by a finitely branching admissibility tree: words are
tuples of symbol indices, one per level, and every admissible word extends.
Clopens are canonical pairs (depth, set of admissible words at that depth)
with depth minimal; this makes equality a structural check.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from .errors import InadmissibleWordError, InputFormatError, SpaceMismatchError


class SpacePresentation(ABC):
    """Finitely branching admissibility tree over integer symbols."""

    @abstractmethod
    def signature(self) -> tuple:
        """Structural identity; two spaces interoperate iff signatures match."""

    @abstractmethod
    def next_symbols(self, word: tuple) -> tuple:
        """Symbols s such that word + (s,) is admissible."""

    @abstractmethod
    def word_count(self, depth: int) -> int:
        """Number of admissible words of the given depth."""

    @abstractmethod
    def size_bound(self, depth: int) -> int:
        """Alphabet size at a level (max symbol + 1), for literal rendering."""

    @abstractmethod
    def max_size_bound(self) -> int:
        """Largest alphabet size over all levels."""

    def point_probe(self, head_len: int, tail_len: int) -> int:
        """Depth to expand when validating an eventually periodic point."""
        return head_len + 2 * tail_len + 8

    def check_word(self, word) -> tuple:
        w = tuple(word)
        for i in range(len(w)):
            if w[i] not in self.next_symbols(w[:i]):
                raise InadmissibleWordError(w, junction=i)
        return w

    def words_at_depth(self, depth: int) -> list[tuple]:
        """All admissible words of a depth, in lexicographic order."""
        return self.extensions((), depth)

    def extensions(self, word: tuple, depth: int) -> list[tuple]:
        """All admissible extensions of word to the given total depth."""
        out = [word]
        for _ in range(depth - len(word)):
            out = [w + (s,) for w in out for s in self.next_symbols(w)]
        return out

    # -- word literals ----------------------------------------------------

    def render_word(self, word: tuple) -> str:
        if all(self.size_bound(i) <= 10 for i in range(len(word))):
            return "".join(str(s) for s in word)
        return ".".join(str(s) for s in word)

    def parse_word(self, text: str) -> tuple:
        """Inverse of render_word.

        A dotless run of several digits is one symbol per digit when every
        level it spans has at most 10 symbols, which is how render_word
        writes it.  Otherwise it is one symbol, as render_word writes a
        one-symbol word, unless only the per-digit reading is admissible or
        the run has a leading zero.
        """
        parts = [p for p in text.split(".") if p != ""] if "." in text else text
        if not all(p.isdecimal() for p in parts):
            raise InputFormatError(f"bad word literal {text!r}")
        word = tuple(int(p) for p in parts)
        if (
            parts is text
            and len(word) > 1
            and text[0] != "0"
            and self.max_size_bound() > 10
            and any(self.size_bound(i) > 10 for i in range(len(word)))
        ):
            try:
                return self.check_word((int(text),))
            except InadmissibleWordError as exc:
                try:
                    return self.check_word(word)
                except InadmissibleWordError:
                    raise exc from None
        return self.check_word(word)


class ProductSpace(SpacePresentation):
    """Full product of finite alphabets with eventually periodic sizes."""

    __slots__ = ("prefix", "period")

    def __init__(self, prefix, period):
        self.prefix = tuple(int(b) for b in prefix)
        self.period = tuple(int(b) for b in period)
        if not self.period:
            raise InputFormatError("product space needs a nonempty period")
        if any(b < 2 for b in self.prefix + self.period):
            raise InputFormatError("alphabet sizes must be >= 2")

    def signature(self) -> tuple:
        return ("product", self.prefix, self.period)

    def size_at(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def size_bound(self, depth: int) -> int:
        return self.size_at(depth)

    def max_size_bound(self) -> int:
        return max(self.prefix + self.period)

    def next_symbols(self, word: tuple) -> tuple:
        return tuple(range(self.size_at(len(word))))

    def word_count(self, depth: int) -> int:
        out = 1
        for i in range(depth):
            out *= self.size_at(i)
        return out

    def point_probe(self, head_len: int, tail_len: int) -> int:
        return head_len + len(self.prefix) + 2 * math.lcm(tail_len, len(self.period)) + tail_len

    def __eq__(self, other):
        return isinstance(other, SpacePresentation) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return f"ProductSpace(prefix={self.prefix}, period={self.period})"


def _check_same_space(a, b) -> None:
    if a.space.signature() != b.space.signature():
        raise SpaceMismatchError(
            f"operands over different spaces: {a.space.signature()} vs {b.space.signature()}"
        )


class Point:
    """Eventually periodic point: head followed by tail repeated forever.

    Literals are 'head.tail' with one digit per symbol (`01.1`, `.0`), or
    'head:tail' with comma-separated symbols (`10:11`, `:0,11`).  On a space
    with an alphabet of more than 10 symbols a dotted literal whose head or
    tail is a run of several digits reads two ways and is rejected; render
    uses the colon form there.
    """

    __slots__ = ("space", "head", "tail")

    def __init__(self, space: SpacePresentation, head, tail):
        head = tuple(head)
        tail = tuple(tail)
        if not tail:
            raise InputFormatError("point tail must be nonempty")
        # primitive period
        for p in range(1, len(tail)):
            if len(tail) % p == 0 and tail == tail[:p] * (len(tail) // p):
                tail = tail[:p]
                break
        # absorb trailing head symbols that already match the cycle
        while head and head[-1] == tail[-1]:
            head = head[:-1]
            tail = tail[-1:] + tail[:-1]
        self.space = space
        self.head = head
        self.tail = tail
        self._validate()

    def _validate(self):
        # check admissibility over one full alignment cycle past the head
        probe = self.space.point_probe(len(self.head), len(self.tail))
        w = self.prefix_word(probe)
        self.space.check_word(w)

    def prefix_word(self, depth: int) -> tuple:
        if depth <= len(self.head):
            return self.head[:depth]
        need = depth - len(self.head)
        reps = -(-need // len(self.tail))
        return (self.head + self.tail * reps)[:depth]

    def __eq__(self, other):
        return (
            isinstance(other, Point)
            and self.space.signature() == other.space.signature()
            and self.head == other.head
            and self.tail == other.tail
        )

    def __hash__(self):
        return hash((self.space.signature(), self.head, self.tail))

    def __repr__(self):
        return f"Point({self.space.render_word(self.head)!r}.{self.space.render_word(self.tail)!r}*)"

    def render(self) -> str:
        if self.space.max_size_bound() > 10:
            return f"{','.join(map(str, self.head))}:{','.join(map(str, self.tail))}"
        return f"{self.space.render_word(self.head)}.{self.space.render_word(self.tail)}"

    @staticmethod
    def parse(space: SpacePresentation, text: str) -> "Point":
        if ":" in text:
            head_txt, tail_txt = text.split(":", 1)
            head = tuple(head_txt.split(",")) if head_txt else ()
            tail = tuple(tail_txt.split(","))
            if not all(s.isdecimal() for s in head + tail):
                raise InputFormatError(f"bad point literal {text!r}")
            return Point(space, map(int, head), map(int, tail))
        if "." not in text:
            raise InputFormatError(f"point literal needs 'head.period' form, got {text!r}")
        head_txt, tail_txt = text.rsplit(".", 1)
        runs = [tail_txt] if "." in head_txt else [head_txt, tail_txt]
        if space.max_size_bound() > 10 and any(len(r) > 1 and r.isdecimal() for r in runs):
            raise InputFormatError(
                f"ambiguous point literal {text!r}: over alphabets of more than 10 "
                "symbols write 'head:tail' with comma-separated symbols"
            )
        head = space.parse_word(head_txt) if head_txt else ()
        tail_raw = tuple(int(c) for c in tail_txt) if tail_txt.isdecimal() else None
        if tail_raw is None or not tail_raw:
            raise InputFormatError(f"bad point period in {text!r}")
        return Point(space, head, tail_raw)


class Clopen:
    """Canonical clopen: minimal depth plus the word set at that depth.

    Instances are immutable; build them with Clopen.make or cylinder().
    The empty set is (0, {}) and the full space is (0, {()}).
    """

    __slots__ = ("space", "depth", "words")

    def __init__(self, space, depth, words, _canonical=False):
        if not _canonical:
            raise InputFormatError("use Clopen.make to construct canonical clopens")
        self.space = space
        self.depth = depth
        self.words = words

    @staticmethod
    def make(space: SpacePresentation, depth: int, words) -> "Clopen":
        ws = set(tuple(w) for w in words)
        for w in ws:
            if len(w) != depth:
                raise InputFormatError(f"word {w!r} does not have depth {depth}")
            space.check_word(w)
        # merge complete sibling families until some family is incomplete
        while depth > 0:
            parents = {}
            for w in ws:
                parents.setdefault(w[:-1], set()).add(w[-1])
            if all(got == set(space.next_symbols(p)) for p, got in parents.items()):
                ws = set(parents.keys())
                depth -= 1
            else:
                break
        return Clopen(space, depth, frozenset(ws), _canonical=True)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty(space) -> "Clopen":
        return Clopen(space, 0, frozenset(), _canonical=True)

    @staticmethod
    def full(space) -> "Clopen":
        return Clopen(space, 0, frozenset([()]), _canonical=True)

    # -- basic predicates ---------------------------------------------------

    def is_empty(self) -> bool:
        return not self.words

    def is_full(self) -> bool:
        return self.depth == 0 and () in self.words

    def word_list(self) -> list[tuple]:
        return sorted(self.words)

    def refined_words(self, depth: int) -> set[tuple]:
        """Word set at a depth >= self.depth (pure refinement, no merge)."""
        if depth < self.depth:
            raise InputFormatError("cannot refine to a smaller depth")
        out = set()
        for w in self.words:
            out.update(self.space.extensions(w, depth))
        return out

    def contains_point(self, x: Point) -> bool:
        _check_same_space(self, x)
        return x.prefix_word(self.depth) in self.words

    def contains_word(self, word: tuple) -> bool:
        """Whether the cylinder of an admissible word is contained in self."""
        if len(word) >= self.depth:
            return word[: self.depth] in self.words
        return set(self.space.extensions(word, self.depth)) <= self.words

    # -- Boolean algebra -----------------------------------------------------

    def union(self, other: "Clopen") -> "Clopen":
        _check_same_space(self, other)
        d = max(self.depth, other.depth)
        return Clopen.make(self.space, d, self.refined_words(d) | other.refined_words(d))

    def intersection(self, other: "Clopen") -> "Clopen":
        _check_same_space(self, other)
        d = max(self.depth, other.depth)
        return Clopen.make(self.space, d, self.refined_words(d) & other.refined_words(d))

    def difference(self, other: "Clopen") -> "Clopen":
        _check_same_space(self, other)
        d = max(self.depth, other.depth)
        return Clopen.make(self.space, d, self.refined_words(d) - other.refined_words(d))

    def complement(self) -> "Clopen":
        all_words = set(self.space.words_at_depth(self.depth))
        return Clopen.make(self.space, self.depth, all_words - self.words)

    def compare(self, other: "Clopen") -> str:
        """One of: equal, subset, superset, disjoint, incomparable."""
        _check_same_space(self, other)
        d = max(self.depth, other.depth)
        wa = self.refined_words(d)
        wb = other.refined_words(d)
        if wa == wb:
            return "equal"
        if wa <= wb:
            return "subset"
        if wb <= wa:
            return "superset"
        if not (wa & wb):
            return "disjoint"
        return "incomparable"

    def is_subset(self, other: "Clopen") -> bool:
        return self.compare(other) in ("equal", "subset")

    def is_disjoint(self, other: "Clopen") -> bool:
        return self.intersection(other).is_empty()

    def __eq__(self, other):
        return (
            isinstance(other, Clopen)
            and self.space.signature() == other.space.signature()
            and self.depth == other.depth
            and self.words == other.words
        )

    def __hash__(self):
        return hash((self.space.signature(), self.depth, self.words))

    # -- literals and JSON -----------------------------------------------------

    def render(self) -> str:
        if self.is_empty():
            return "EMPTY"
        if self.is_full():
            return "X"
        return "+".join(self.space.render_word(w) for w in self.word_list())

    def __repr__(self):
        return f"Clopen({self.render()!r})"

    def to_json(self):
        return {"depth": self.depth, "words": [self.space.render_word(w) for w in self.word_list()]}

    @staticmethod
    def parse(space: SpacePresentation, text: str) -> "Clopen":
        text = text.strip()
        if text == "X":
            return Clopen.full(space)
        if text == "EMPTY":
            return Clopen.empty(space)
        words = [space.parse_word(tok) for tok in text.split("+") if tok != ""]
        if not words:
            raise InputFormatError(f"empty clopen literal {text!r}")
        depths = {len(w) for w in words}
        if len(depths) != 1:
            # pad by refining shallow words to the common maximal depth
            d = max(depths)
            padded = []
            for w in words:
                padded.extend(space.extensions(w, d))
            return Clopen.make(space, d, padded)
        return Clopen.make(space, depths.pop(), words)


def cylinder(space: SpacePresentation, word) -> Clopen:
    """Clopen of all extensions of an admissible word."""
    w = space.check_word(tuple(word))
    return Clopen.make(space, len(w), [w])


def boolean_op(kind: str, a: Clopen, b: Clopen | None = None) -> Clopen:
    """Dispatch for union | intersection | complement | difference."""
    if kind == "complement":
        return a.complement()
    if b is None:
        raise InputFormatError(f"{kind} needs two operands")
    if kind == "union":
        return a.union(b)
    if kind == "intersection":
        return a.intersection(b)
    if kind == "difference":
        return a.difference(b)
    raise InputFormatError(f"unknown boolean op {kind!r}")


def cylinder_at(space: SpacePresentation, n: int) -> Clopen:
    """The n-th cylinder (n >= 1) in the canonical length-lex enumeration.

    Depth-1 cylinders come first in lexicographic order, then depth 2, etc.
    """
    if n < 1:
        raise InputFormatError("cylinder index starts at 1")
    k = n - 1
    depth = 1
    while k >= space.word_count(depth):
        k -= space.word_count(depth)
        depth += 1
    return cylinder(space, space.words_at_depth(depth)[k])
