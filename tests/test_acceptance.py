"""End-to-end acceptance suite: nine numbered criteria.

Each test prints exactly one PASS/FAIL line (run with -s to see them live)
and enforces its runtime budget.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time

from cantordyn import (
    BVDiagram,
    BVSystem,
    Clopen,
    Odometer,
    PartialIso,
    PiecewisePower,
    TowerPermutation,
    TupleCoder,
    as_level_permutation,
    derived_approx,
    embed_to,
    enum_dgamma,
    enum_tfg,
    gamma_element,
    in_commutator,
    invariant_measure,
    is_in_gamma,
    kr_sequence,
    membership_gamma,
    orbit_decide,
    perm_cycles,
    perm_sign,
    piecewise_merge,
    soe_backandforth,
    soe_decide,
)
from cantordyn.cli import run as cli_run
from cantordyn.space import cylinder, cylinder_at

from _oracle import apply_perm_to_mask, min_image_table

o2 = Odometer((), (2,))
o3 = Odometer((), (3,))


@contextlib.contextmanager
def criterion(num: int, budget: float, desc: str):
    t0 = time.perf_counter()
    try:
        yield
        dt = time.perf_counter() - t0
        if dt >= budget:
            raise AssertionError(
                f"runtime {dt:.2f}s exceeds the {budget:.0f}s budget"
            )
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    print(f"PASS criterion {num}: {desc} [{dt:.2f}s < {budget:.0f}s]")


# ---------------------------------------------------------------------------

def test_criterion_1_three_adic_witness(tmp_path):
    with criterion(1, 1.0, "3-adic witness: 3^(n-1) transpositions, odd forever"):
        seq = kr_sequence(o3, levels=6)
        tp = TowerPermutation(1, [[1, 0, 2]])
        for n in range(2, 7):
            emb = embed_to(seq, tp, n)
            cycles = perm_cycles(emb.perms[0])
            assert all(len(c) == 2 for c in cycles)
            assert len(cycles) == 3 ** (n - 1)
            assert perm_sign(emb.perms[0]) == -1
            assert emb.sign_vector().signs == (-1,)

        st = in_commutator(o3, o3.min_point(), tp, depth=8, seq=seq)
        assert not st.member
        assert st.to_json() == {"in_commutator": "not-up-to-depth", "depth": 8}

        el = tmp_path / "gamma3.json"
        el.write_text(json.dumps({
            "pieces": [
                {"domain": "0", "power": 1},
                {"domain": "1", "power": -1},
                {"domain": "2", "power": 0},
            ]
        }))
        out = io.StringIO()
        code = cli_run(
            ["group", "commutator", "descriptors/odo3.json", str(el),
             "--depth", "8", "--json"],
            out=out,
        )
        assert code == 1
        assert json.loads(out.getvalue()) == {
            "in_commutator": "not-up-to-depth", "depth": 8,
        }


def test_criterion_2_gamma_level3_census():
    with criterion(2, 30.0, "level-3 census: 40320 distinct members, 20160 even"):
        seq = kr_sequence(o2, levels=3)
        xi = seq.level(3)
        x0 = o2.min_point()
        elements = set()
        even = 0
        tps = []
        for perm in itertools.permutations(range(8)):
            tp = TowerPermutation(3, [perm])
            g = gamma_element(o2, xi, tp)
            elements.add(g)
            tps.append(g)
            if tp.sign_vector().all_even():
                even += 1
        assert len(elements) == 40320
        assert even == 20160
        for g in tps:
            assert membership_gamma(o2, x0, g).member


def test_criterion_3_orbit_oracle_sweep():
    with criterion(3, 120.0, "orbit oracle: 256x256 pairs, decision = brute = measure"):
        seq = kr_sequence(o2, levels=3)
        xi = seq.level(3)
        floors = [a for _, _, a in xi.all_atoms()]

        def clopen_of_mask(m: int) -> Clopen:
            words = [
                w for j, f in enumerate(floors) for w in f.words if m >> j & 1
            ]
            return Clopen.make(o2.space, 3, words)

        clopens = [clopen_of_mask(m) for m in range(256)]
        measures = [invariant_measure(o2, a) for a in clopens]

        # the mask model really is the level-3 group action
        rng = random.Random(99)
        for _ in range(20):
            perm = list(range(8))
            rng.shuffle(perm)
            m = rng.randrange(256)
            g = gamma_element(o2, xi, TowerPermutation(3, [perm]))
            assert g.image_of(clopens[m]) == clopen_of_mask(
                apply_perm_to_mask(perm, m)
            )

        # brute-force orbit canon: minimum image over all 8! permutations
        table = min_image_table(8)
        for ma in range(256):
            for mb in range(256):
                st = orbit_decide(seq, clopens[ma], clopens[mb], max_level=3)
                decided = st.verdict == "equivalent"
                brute = table[ma] == table[mb]
                same_measure = measures[ma] == measures[mb]
                assert decided == brute == same_measure


def test_criterion_4_kr_properties():
    with criterion(4, 10.0, "KR properties (i)-(iv) + validity to level 6"):
        edges = [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 1), (1, 4, 0), (2, 4, 1)]
        systems = (o2, o3, BVSystem(BVDiagram([2, 2], edges, 2)))
        for sys_ in systems:
            seq = kr_sequence(sys_, levels=6)
            x0 = seq.x0
            for n in range(1, 7):
                xi = seq.level(n)
                # validity: each floor maps onto the next, tops onto bases
                xi.validate(sys_)
                for t in xi.towers:
                    for j in range(1, len(t.atoms)):
                        assert sys_.image_clopen(t.atoms[j - 1], 1) == t.atoms[j]
                tops = None
                for t in xi.towers:
                    img = sys_.image_clopen(t.atoms[-1], 1)
                    tops = img if tops is None else tops.union(img)
                assert tops == xi.base_union()
                # (i) the next level refines this one
                if n < 6:
                    finer = seq.level(n + 1)
                    assert all(
                        finer.contains_clopen(a) for _, _, a in xi.all_atoms()
                    )
                    # (ii) bases nest strictly ...
                    assert finer.base_union().is_subset(xi.base_union())
                    assert finer.base_union() != xi.base_union()
                # ... contain the base point, and shrink onto it
                base = xi.base_union()
                assert base.contains_point(x0)
                assert base.is_subset(cylinder(sys_.space, x0.prefix_word(n)))
                # (iii) the n-th canonical cylinder is in the level algebra
                assert xi.contains_clopen(cylinder_at(sys_.space, n))
                # (iv) the minimal height exceeds the level index
                assert xi.min_height() > n


def test_criterion_5_membership():
    with criterion(5, 10.0, "membership: 200 yes, shifts and 22 fakes no, orbit safe"):
        rng = random.Random(1729)
        sigma2 = PiecewisePower.make(o2, [(Clopen.full(o2.space), 1)])
        done_yes = 0
        for sys_ in (o2, o3):
            seq = kr_sequence(sys_, levels=4)
            x0 = sys_.min_point()
            for _ in range(100):
                lvl = rng.randint(1, 4)
                xi = seq.level(lvl)
                perms = []
                for t in xi.towers:
                    p = list(range(t.height))
                    rng.shuffle(p)
                    perms.append(p)
                g = gamma_element(sys_, xi, TowerPermutation(lvl, perms))
                res = membership_gamma(sys_, x0, g)
                assert res.member and res.witness is None
                done_yes += 1
                # forward-orbit spot check: no image falls before the start
                for k in range(32):
                    x = sys_.image_point(x0, k)
                    j = k + g.cocycle_at(x)
                    assert j >= 0
                    assert g.apply_point(x) == sys_.image_point(x0, j)
        assert done_yes == 200

        x0 = o2.min_point()
        for h in (sigma2, sigma2.inverse()):
            res = membership_gamma(o2, x0, h)
            assert not res.member and res.witness is not None

        seq2 = kr_sequence(o2, levels=3)
        for _ in range(20):
            lvl = rng.randint(1, 3)
            xi = seq2.level(lvl)
            p = list(range(xi.towers[0].height))
            rng.shuffle(p)
            g = gamma_element(o2, xi, TowerPermutation(lvl, [p]))
            bad = sigma2.compose(g) if rng.random() < 0.5 else g.compose(sigma2)
            res = membership_gamma(o2, x0, bad)
            assert not res.member
            dom, k, m, mb = res.witness
            assert (dom, k) in bad.pieces
            assert not (-m <= k <= -mb - 1)


def test_criterion_6_derived_density():
    with criterion(6, 10.0, "density: 50 odd elements get even stand-ins"):
        rng = random.Random(60)
        done = 0
        for sys_ in (o2, o3):
            seq = kr_sequence(sys_, levels=5)
            while done < (25 if sys_ is o2 else 50):
                lvl = rng.randint(1, 3)
                xi = seq.level(lvl)
                p = list(range(xi.towers[0].height))
                rng.shuffle(p)
                tp = TowerPermutation(lvl, [p])
                if tp.sign_vector().all_even():
                    continue
                out = derived_approx(tp, lvl + 1, seq)
                assert out.sign_vector().all_even()
                g = gamma_element(sys_, xi, tp)
                fixed = gamma_element(sys_, seq.level(out.level), out)
                for _, _, a in xi.all_atoms():
                    assert fixed.image_of(a) == g.image_of(a)
                done += 1
        assert done == 50


def test_criterion_7_piecewise_merge():
    with criterion(7, 10.0, "merge: 100 randomized instances act like f on A"):
        rng = random.Random(7000)
        done = 0
        for sys_ in (o2, o3):
            seq = kr_sequence(sys_, levels=4)
            for _ in range(50):
                lvl = rng.randint(2, 4 if sys_ is o2 else 3)
                xi = seq.level(lvl)
                p = list(range(xi.towers[0].height))
                rng.shuffle(p)
                tp = TowerPermutation(lvl, [p])
                f = gamma_element(sys_, xi, tp)
                floors = rng.sample(
                    range(xi.towers[0].height),
                    rng.randint(1, min(4, xi.towers[0].height)),
                )
                parts = [(xi.atom(0, j), tp) for j in floors]
                h = piecewise_merge(seq, f, parts, level=lvl)
                assert h.level == lvl
                h.validate_against(xi)  # h lives in the stated level group
                gh = gamma_element(sys_, xi, h)
                union = parts[0][0]
                for a_i, _ in parts[1:]:
                    union = union.union(a_i)
                assert gh.image_of(union) == f.image_of(union)
                for a_i, _ in parts:
                    assert gh.image_of(a_i) == f.image_of(a_i)
                done += 1
        assert done == 100


def test_criterion_8_soe_cross_validation():
    with criterion(8, 60.0, "SOE: decide = back-and-forth on all 21 pairs"):
        systems = [
            Odometer((), (2,)),
            Odometer((), (3,)),
            Odometer((), (4,)),
            Odometer((), (6,)),
            Odometer((), (12,)),
            Odometer((), (2, 3)),
            Odometer((), (10,)),
        ]
        pairs = 0
        for i in range(len(systems)):
            for j in range(i + 1, len(systems)):
                s1, s2 = systems[i], systems[j]
                v = soe_decide(s1, s2)
                bf = soe_backandforth(kr_sequence(s1), kr_sequence(s2), depth=5)
                assert v.equivalent == isinstance(bf, PartialIso)
                pairs += 1
        assert pairs == 21
        ob = soe_decide(systems[0], systems[1]).obstruction
        assert ob is not None and ob.kind == "prime-valuation" and ob.prime == 2


def test_criterion_9_enumeration_contract():
    with criterion(9, 60.0, "enum: 10^4 codes sound, dgamma 200 all reach even"):
        x0 = o2.min_point()
        seq = kr_sequence(o2, levels=1)
        nonidentity = 0
        for n, e in enum_tfg(o2, 10000):
            if e.is_identity():
                continue
            nonidentity += 1
            PiecewisePower.make(o2, list(e.pieces), validate=True)  # valid homeomorphism
            member = membership_gamma(o2, x0, e).member
            filtered = is_in_gamma(o2, x0, e)
            assert (filtered == e) == member
            if not member:
                assert filtered.is_identity()
        assert nonidentity > 0

        out = list(enum_dgamma(o2, count=200))
        assert len({e for _, e in out}) == 200
        for _, e in out:
            tp = as_level_permutation(seq, e, max_level=12)
            st = in_commutator(o2, x0, tp, depth=tp.level + 4, seq=seq)
            assert st.member
