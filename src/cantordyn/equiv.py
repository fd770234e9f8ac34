"""Orbit and strong-orbit equivalence engines.

Clopens are orbit-equivalent under the level groups as soon as both are
atom unions with matching per-tower counts; odometer measures certify
distinctness. Strong orbit equivalence of odometers reduces to equality
of the supernatural products of their digit cardinalities, cross-checked
by a constructive Boolean back-and-forth.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import inf

from .errors import (
    CapExceededError,
    InputFormatError,
    PiecewiseValidationError,
    RefinementDepthError,
    UnsupportedSystemError,
)
from .space import Clopen, _merge, partition_check, union_all
from .systems import Odometer, System, invariant_measure
from .towers import KRPartition, KRSequence
from .fullgroup import PiecewisePower, TowerPermutation, gamma_element


class CountVector:
    __slots__ = ("level", "counts")

    def __init__(self, level: int, counts):
        self.level = level
        self.counts = tuple(counts)

    def to_json(self):
        return {"level": self.level, "counts": list(self.counts)}

    def __eq__(self, other):
        return (
            isinstance(other, CountVector)
            and self.level == other.level
            and self.counts == other.counts
        )

    def __hash__(self):
        return hash((self.level, self.counts))


def count_vector(xi: KRPartition, a: Clopen) -> CountVector:
    """Per-tower counts of atoms inside a; error when a is not an atom union."""
    floors = xi.floors_inside(a)
    if floors is None:
        raise InputFormatError(
            f"clopen {a.render()} is not a union of level-{xi.level} atoms"
        )
    return CountVector(xi.level, [len(lst) for lst in floors])


class OrbitStatus:
    """Verdict of the dimension-range comparison of two clopens."""

    __slots__ = ("verdict", "level", "witness", "scanned", "measures")

    def __init__(self, verdict, level=None, witness=None, scanned=None, measures=None):
        self.verdict = verdict  # "equivalent" | "distinct" | "not-yet"
        self.level = level
        self.witness = witness
        self.scanned = scanned
        self.measures = measures

    def to_json(self):
        if self.verdict == "equivalent":
            return {
                "verdict": "Equivalent",
                "level": self.level,
                "witness": self.witness.to_json(),
            }
        if self.verdict == "distinct":
            ma, mb = self.measures
            return {
                "verdict": "CertifiedDistinct",
                "measures": [str(ma), str(mb)],
            }
        return {
            "verdict": "NotYetEquivalent",
            "scanned_level": self.scanned,
            "caveat": "NotYetEquivalent is not a proof of distinctness",
        }


def _rank_pairing(xi: KRPartition, floors_a, floors_b) -> TowerPermutation:
    """Send the j-th A-floor to the j-th B-floor; leftovers absorb the rest."""
    perms = []
    for t_idx, t in enumerate(xi.towers):
        fa, fb = floors_a[t_idx], floors_b[t_idx]
        perm = list(range(t.height))
        for x, y in zip(fa, fb):
            perm[x] = y
        only_b = [j for j in fb if j not in set(fa)]
        only_a = [j for j in fa if j not in set(fb)]
        for x, y in zip(only_b, only_a):
            perm[x] = y
        perms.append(tuple(perm))
    return TowerPermutation(xi.level, perms)


def orbit_decide(seq: KRSequence, a: Clopen, b: Clopen, max_level: int) -> OrbitStatus:
    """Equivalent at the first level where counts agree; measures certify No."""
    if isinstance(seq.sys, Odometer):
        ma, mb = invariant_measure(seq.sys, a), invariant_measure(seq.sys, b)
        if ma != mb:
            return OrbitStatus("distinct", measures=(ma, mb))
    for n in range(1, max_level + 1):
        xi = seq.level(n)
        floors_a = xi.floors_inside(a)
        floors_b = xi.floors_inside(b)
        if floors_a is None or floors_b is None:
            continue
        if [len(f) for f in floors_a] == [len(f) for f in floors_b]:
            witness = _rank_pairing(xi, floors_a, floors_b)
            return OrbitStatus("equivalent", level=n, witness=witness)
    return OrbitStatus("not-yet", scanned=max_level)


def base_point_witness(
    seq1: KRSequence,
    seq2: KRSequence,
    a: Clopen,
    b: Clopen,
    level: int,
    search_cap: int = 16,
) -> TowerPermutation:
    """Involution over the second base point exchanging a and b.

    Searches for a level of the second sequence refining the given level of
    the first, with its whole base inside one atom of the first partition;
    the wrap-around stacking then equalizes per-tower counts, and pairing
    the symmetric-difference floors gives the involution.
    """
    if seq1.sys.signature() != seq2.sys.signature():
        raise InputFormatError("sequences live over different presentations")
    xi1 = seq1.level(level)
    floors_a = xi1.floors_inside(a)
    floors_b = xi1.floors_inside(b)
    if floors_a is None or floors_b is None or [len(f) for f in floors_a] != [
        len(f) for f in floors_b
    ]:
        raise InputFormatError(
            f"clopens are not equivalent at level {level} of the first sequence"
        )
    atoms1 = [atom for _, _, atom in xi1.all_atoms()]
    for m in range(1, level + search_cap + 1):
        xi2 = seq2.level(m)
        if not all(xi2.contains_clopen(atom) for atom in atoms1):
            continue
        base = xi2.base_union()
        if not any(base.is_subset(atom) for atom in atoms1):
            continue
        fa = xi2.floors_inside(a)
        fb = xi2.floors_inside(b)
        if fa is None or fb is None:
            continue
        if [len(f) for f in fa] != [len(f) for f in fb]:
            continue
        perms = []
        for t_idx, t in enumerate(xi2.towers):
            sa, sb = set(fa[t_idx]), set(fb[t_idx])
            only_a = sorted(sa - sb)
            only_b = sorted(sb - sa)
            perm = list(range(t.height))
            for x, y in zip(only_a, only_b):
                perm[x], perm[y] = y, x
            perms.append(tuple(perm))
        return TowerPermutation(m, perms)
    raise RefinementDepthError(
        f"no level of the second sequence up to {level + search_cap} qualifies; "
        "request a deeper search"
    )


# ---------------------------------------------------------------------------
# piecewise merge


def piecewise_merge(
    seq: KRSequence,
    f: PiecewisePower,
    parts,
    level: int,
) -> TowerPermutation:
    """Single level-group element h with h(A) = f(A) for A the parts' union.

    On atoms inside a part, h copies that part's witness; on atoms of
    f(A) that left A, h backtracks to the first backward f-iterate that
    sits in A without being an image; elsewhere h is the identity.
    """
    xi = seq.level(level)
    sys = seq.sys
    domains = [a_i for a_i, _ in parts]
    overlapping, overlap = partition_check(sys.space, domains)
    # a bad witness on a part before the first overlapping one is reported first
    for a_i, h_i in parts[:overlapping]:
        h_i.validate_against(xi)
        img_f = f.image_of(a_i)
        img_h = gamma_element(sys, xi, h_i).image_of(a_i)
        if img_f != img_h:
            raise PiecewiseValidationError(
                "part witness disagrees with f on its part", witness=a_i
            )
    if overlapping is not None:
        raise PiecewiseValidationError("parts overlap", witness=overlap)
    a_union = union_all(sys.space, domains)
    f_union = f.image_of(a_union)
    f_inv = f.inverse()
    atom_index = {atom: (i, j) for i, j, atom in xi.all_atoms()}

    perms = [list(range(t.height)) for t in xi.towers]
    total_atoms = xi.atom_count()
    for i, j, atom in xi.all_atoms():
        in_a = atom.is_subset(a_union)
        in_fa = atom.is_subset(f_union)
        if not in_a and not in_fa:
            if not atom.is_disjoint(a_union) or not atom.is_disjoint(f_union):
                raise PiecewiseValidationError(
                    "atom straddles the parts at this level", witness=atom
                )
            continue
        if in_a:
            for a_i, h_i in parts:
                if atom.is_subset(a_i):
                    perms[i][j] = h_i.perms[i][j]
                    break
            else:
                raise PiecewiseValidationError(
                    "atom inside the union belongs to no part", witness=atom
                )
            continue
        # atom inside f(A) \ A: backtrack through f
        cur = atom
        target = None
        for _ in range(total_atoms + 1):
            cur = f_inv.image_of(cur)
            if cur.is_subset(a_union) and cur.is_disjoint(f_union):
                target = cur
                break
        if target is None:
            raise PiecewiseValidationError(
                "backtracking failed to leave the image region", witness=atom
            )
        loc = atom_index.get(target)
        if loc is None or loc[0] != i:
            raise PiecewiseValidationError(
                "backtracked image is not an atom of the same tower", witness=atom
            )
        perms[i][j] = loc[1]
    for i, perm in enumerate(perms):
        if sorted(perm) != list(range(len(perm))):
            raise PiecewiseValidationError(
                f"merged map is not a permutation on tower {i}",
                witness=xi.towers[i].base,
            )
    return TowerPermutation(level, [tuple(p) for p in perms])


# ---------------------------------------------------------------------------
# strong orbit equivalence


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def supernatural_valuations(sys: Odometer):
    """Prime valuations of the infinite digit-cardinality product."""
    if not isinstance(sys, Odometer):
        raise UnsupportedSystemError("supernatural valuations need an odometer")
    vals: dict[int, float] = {}
    for term in sys.prefix:
        for p, e in _factor(term).items():
            vals[p] = vals.get(p, 0) + e
    for term in sys.period:
        for p in _factor(term):
            vals[p] = inf
    return vals


class Obstruction:
    __slots__ = ("kind", "prime", "val1", "val2", "value")

    def __init__(self, kind, prime=None, val1=None, val2=None, value=None):
        self.kind = kind  # "prime-valuation" | "value-gap"
        self.prime = prime
        self.val1 = val1
        self.val2 = val2
        self.value = value

    def to_json(self):
        if self.kind == "prime-valuation":
            def render(v):
                return "inf" if v == inf else int(v)

            return {
                "kind": "prime-valuation",
                "prime": self.prime,
                "valuations": [render(self.val1), render(self.val2)],
            }
        return {"kind": "value-gap", "value": str(self.value)}


class SOEVerdict:
    __slots__ = ("equivalent", "obstruction")

    def __init__(self, equivalent: bool, obstruction: Obstruction | None = None):
        self.equivalent = equivalent
        self.obstruction = obstruction

    def to_json(self):
        if self.equivalent:
            return {"verdict": "Equivalent"}
        return {"verdict": "Distinct", "obstruction": self.obstruction.to_json()}


def soe_decide(sys1: System, sys2: System) -> SOEVerdict:
    """Strong orbit equivalence of odometers via supernatural valuations."""
    if not isinstance(sys1, Odometer) or not isinstance(sys2, Odometer):
        raise UnsupportedSystemError(
            "exact verdicts need two odometers; other systems get evidence only "
            "through the back-and-forth"
        )
    v1 = supernatural_valuations(sys1)
    v2 = supernatural_valuations(sys2)
    for p in sorted(set(v1) | set(v2)):
        a, b = v1.get(p, 0), v2.get(p, 0)
        if a != b:
            return SOEVerdict(
                False, Obstruction("prime-valuation", prime=p, val1=a, val2=b)
            )
    return SOEVerdict(True)


class Rung:
    """One back-and-forth extension step.

    Records which side was refined, by which partition level, the cylinder
    count of that level, and the running granularity (lcm of all counts so
    far).  Matched pairs are not stored; they are rematerialized on demand.
    """

    __slots__ = ("index", "direction", "level", "modulus", "granularity")

    def __init__(self, index: int, direction: str, level: int, modulus: int,
                 granularity: int):
        self.index = index
        self.direction = direction  # "forward" | "backward"
        self.level = level
        self.modulus = modulus
        self.granularity = granularity

    def to_json(self):
        return {
            "rung": self.index,
            "direction": self.direction,
            "level": self.level,
            "modulus": self.modulus,
            "granularity": self.granularity,
        }


_SIM_CAP = 1 << 17  # largest per-side value count the simulator materializes


class PartialIso:
    """Ladder of compatible Boolean-algebra matchings between two odometers.

    The verdict itself is certified arithmetically (every refining cylinder
    measure embeds in the partner's supernatural number); matched pairs are
    reconstructed by replaying the ladder on integer value arrays, which is
    only permitted while the final cylinder counts stay below a cap.
    """

    __slots__ = ("sys1", "sys2", "rungs")

    def __init__(self, sys1, sys2, rungs):
        self.sys1 = sys1
        self.sys2 = sys2
        self.rungs = list(rungs)

    def pairs(self):
        """Matched clopen pairs at the last rung."""
        states = _replay(self.sys1, self.sys2, self.rungs)
        pairs, d1, _, d2, _ = states[-1]
        return tuple(
            (_values_clopen(self.sys1, d1, p), _values_clopen(self.sys2, d2, q))
            for p, q in pairs
        )

    def map_of(self, a: Clopen) -> Clopen:
        """Image of a clopen of the first space, if in the matched algebra."""
        states = _replay(self.sys1, self.sys2, self.rungs)
        pairs, d1, c1, d2, _ = states[-1]
        if a.space.signature() != self.sys1.space.signature():
            raise InputFormatError("clopen lives over the wrong space")
        if a.depth > d1:
            raise InputFormatError(
                f"{a.render()} is not in the matched algebra at this rung"
            )
        wanted = {self.sys1.value(w) for w in a.refined_words(d1)}
        owner = {}
        for i, (p, _) in enumerate(pairs):
            for v in p:
                owner[v] = i
        chosen = {owner[v] for v in wanted}
        if sum(len(pairs[i][0]) for i in chosen) != len(wanted):
            raise InputFormatError(
                f"{a.render()} is not in the matched algebra at this rung"
            )
        values = [v for i in chosen for v in pairs[i][1]]
        return _values_clopen(self.sys2, d2, values)

    def to_json(self):
        return {
            "verdict": "PartialIso",
            "rungs": [r.to_json() for r in self.rungs],
        }


class Stuck:
    __slots__ = ("level", "reason")

    def __init__(self, level: int, reason: Obstruction):
        self.level = level
        self.reason = reason

    def to_json(self):
        return {
            "verdict": "Stuck",
            "level": self.level,
            "reason": self.reason.to_json(),
        }


def _values_clopen(sys, depth: int, values) -> Clopen:
    return _merge(sys.space, depth, {sys.digits(v, depth) for v in values})


def _replay(sys1, sys2, rungs):
    """Rebuild the matched value arrays of every rung.

    Exactly mirrors the extension rule: the refining side groups each piece
    by its level-cylinder class (classes in floor order), the partner side
    is cut into consecutive value blocks of the matching measures.  Raises
    CapExceededError when the arrays would outgrow the replay cap.
    """
    pairs = [([0], [0])]
    d = [0, 0]
    cap = [1, 1]
    systems = (sys1, sys2)
    states = []

    def deepen(side: int, d_new: int):
        nonlocal pairs
        sys = systems[side]
        if sys.capacity(d_new) > _SIM_CAP:
            raise CapExceededError(
                "ladder too fine to materialize; the replay cap stops at "
                f"{_SIM_CAP} cylinders per side"
            )
        cap_old = cap[side]
        mult = sys.capacity(d_new) // cap_old
        fresh = []
        for p, q in pairs:
            lst = p if side == 0 else q
            grown = [v + j * cap_old for j in range(mult) for v in lst]
            fresh.append((grown, q) if side == 0 else (p, grown))
        pairs = fresh
        d[side] = d_new
        cap[side] = sys.capacity(d_new)

    for rung in rungs:
        src = 0 if rung.direction == "forward" else 1
        dst = 1 - src
        a = rung.modulus
        d_lvl = 1
        while systems[src].capacity(d_lvl) < a:
            d_lvl += 1
        if d_lvl > d[src]:
            deepen(src, d_lvl)
        # partner granularity that makes every block size integral
        required = 1
        for pr in pairs:
            tallies: dict[int, int] = {}
            for v in pr[src]:
                tallies[v % a] = tallies.get(v % a, 0) + 1
            if len(tallies) == 1:
                continue
            for n in tallies.values():
                need = cap[src] // math.gcd(n, cap[src])
                required = required * need // math.gcd(required, need)
        guard = 0
        while cap[dst] % required:
            deepen(dst, d[dst] + 1)
            guard += 1
            if guard > 64:
                raise CapExceededError(
                    "partner side cannot realize the block sizes"
                )
        new_pairs = []
        for pr in pairs:
            p_src, p_dst = pr[src], pr[dst]
            groups: dict[int, list[int]] = {}
            for v in p_src:
                groups.setdefault(v % a, []).append(v)
            if len(groups) == 1:
                new_pairs.append(pr)
                continue
            pos = 0
            for c in sorted(groups):
                n = len(groups[c]) * cap[dst] // cap[src]
                block = p_dst[pos : pos + n]
                pos += n
                row = (groups[c], block) if src == 0 else (block, groups[c])
                new_pairs.append(row)
        pairs = new_pairs
        states.append(([(list(p), list(q)) for p, q in pairs],
                       d[0], cap[0], d[1], cap[1]))
    return states


def soe_backandforth(seq1: KRSequence, seq2: KRSequence, depth: int):
    """Measure-matched Boolean back-and-forth between two odometers.

    Alternates: refine the first side by its next partition level and cut
    the matched clopens of the second side into consecutive value blocks
    of equal measure, then symmetrically.  A rung extends exactly when
    every refining cylinder measure embeds in the partner's supernatural
    number, so the verdict is computed arithmetically; Stuck carries the
    first certified unrealizable measure.
    """
    sys1, sys2 = seq1.sys, seq2.sys
    if not isinstance(sys1, Odometer) or not isinstance(sys2, Odometer):
        raise UnsupportedSystemError(
            "back-and-forth matching is implemented for odometer pairs only"
        )
    if depth < 1:
        raise InputFormatError("depth must be at least 1")
    vals1 = supernatural_valuations(sys1)
    vals2 = supernatural_valuations(sys2)
    rungs = []
    gran = 1
    for k in range(1, depth + 1):
        for forward in (True, False):
            seq_from = seq1 if forward else seq2
            sys_from = sys1 if forward else sys2
            vals_to = vals2 if forward else vals1
            m = seq_from.odometer_level_depth(k)
            a = sys_from.capacity(m)
            for p, e in _factor(a).items():
                if vals_to.get(p, 0) < e:
                    return Stuck(k, Obstruction("value-gap", value=Fraction(1, a)))
            gran = gran * a // math.gcd(gran, a)
            rungs.append(
                Rung(len(rungs) + 1, "forward" if forward else "backward",
                     k, a, gran)
            )
    return PartialIso(sys1, sys2, rungs)


def soe_cocycle_report(pi: PartialIso, horizon: int = 8):
    """Where the induced forward cocycle is already constant, per rung.

    For each matched piece, the first power (in the order 0, +1, -1, ...)
    of the second system's map matching the image of the shifted piece,
    counting only shifts that stay inside the current value range: pieces
    whose shift wraps past the top, or with no in-algebra image, or no
    matching power within the horizon, form the exceptional region, which
    must shrink along the ladder and sit by the top of the range.
    """
    if not isinstance(pi, PartialIso):
        raise InputFormatError("report needs a PartialIso, not a stuck verdict")
    sys1, sys2 = pi.sys1, pi.sys2
    states = _replay(sys1, sys2, pi.rungs)
    rung_reports = []
    exceptional_measures = []
    powers = sorted(range(-horizon, horizon + 1), key=lambda v: (abs(v), -v))
    for rung, state in zip(pi.rungs, states):
        pairs, d1, c1, d2, c2 = state
        owner = {}
        for i, (p, _) in enumerate(pairs):
            for v in p:
                owner[v] = i
        pieces = []
        exceptional = []
        exc_measure = Fraction(0)
        for p, q in pairs:
            found = None
            if p[-1] + 1 < c1:
                shifted = [v + 1 for v in p]
                chosen = {owner[v] for v in shifted}
                if sum(len(pairs[i][0]) for i in chosen) == len(shifted):
                    target = sorted(v for i in chosen for v in pairs[i][1])
                    for j in powers:
                        if q[0] + j < 0 or q[-1] + j >= c2:
                            continue
                        if [v + j for v in q] == target:
                            found = j
                            break
            if found is None:
                exceptional.append(p)
                exc_measure += Fraction(len(p), c1)
            else:
                pieces.append((p, found))
        rung_reports.append(
            {
                "rung": rung.index,
                "constant_pieces": [
                    [_values_clopen(sys1, d1, p).render(), j] for p, j in pieces
                ],
                "exceptional": [
                    _values_clopen(sys1, d1, p).render() for p in exceptional
                ],
                "exceptional_measure": str(exc_measure),
                "covered_measure": str(1 - exc_measure),
            }
        )
        exceptional_measures.append(exc_measure)
    shrinks = (
        len(exceptional_measures) < 2
        or exceptional_measures[-1] < exceptional_measures[0]
        or all(m == 0 for m in exceptional_measures)
    )
    return {
        "rungs": rung_reports,
        "shrinking": shrinks,
        "horizon": horizon,
    }
