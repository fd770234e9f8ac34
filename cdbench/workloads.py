"""The three benchmark workloads.

Each workload has the same surface:

- `plan(rng)`: seeded parameters that set-up needs (drawn before set-up).
- `setup(lib, plan)`: descriptor loading and the caches queries reuse.
- `warmup_rounds`: rounds run and checked before timing starts.
- `chunk(rng, state)`: one round of queries, as plain data. A round covers
  every system and query shape once, so the mix does not drift between
  seeds or with the number of rounds a run completes.
- `run(state, call)`: execute one call; returns (records, error) where each
  record is (latency in seconds, output text) for one query.
- `check(oracle, state, call, texts)`: compare a call's outputs with the
  independent models in `model.py`; returns (problems, counts).

`lib` is a namespace holding the imported cantordyn layer modules; every
library call goes through it, so the tracer's wrappers are seen.

Why these three. Each stresses layers the others bypass, so a change to one
layer should move one workload and leave the others alone:

- membership-scan: nearly all of a query is the orbit scan in
  fullgroup.membership_gamma (systems.image_point, Point construction,
  Clopen.contains_point). An odometer closed form would show here; bv11 keeps
  the scan path. Shifted bv11 base points put the generic first-return tower
  build into set-up. No equiv, enumeration or cli.
- orbit-decide: space refinement, subset tests and parsing of deep word sets
  inside equiv.orbit_decide; tower levels are built in set-up and reused. A
  bitmask clopen representation would show here. No orbit scan, enumeration
  or cli.
- enum-stream: the only workload through enumeration and cli; many small
  Clopen.make calls and PiecewisePower validation and composition, with no
  state kept between CLI calls.

BENCHMARK.json lists only orbit-decide and enum-stream: together they reach
every layer, and two workloads leave room for 40-second runs. On a shared
2-vCPU host whose speed drifts by up to 1.7x within minutes, shorter runs of
all three spread past the 25% bounds. membership-scan is still run by name,
for changes to the orbit scan.
"""

from __future__ import annotations

import json
import os
import time

from model import (
    Element,
    element_from_json,
    is_canonical,
    is_member,
    model_from_descriptor,
    parse_literal,
    render_literal,
    same_element,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IDENTITY = {"pieces": [{"domain": "X", "power": 0}]}


def descriptor_path(name: str) -> str:
    return os.path.join(ROOT, "descriptors", name + ".json")


def load_model(name: str):
    with open(descriptor_path(name), encoding="utf-8") as fh:
        return model_from_descriptor(json.load(fh))


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def shifted_point(lib, sys_, model, shift: int):
    """T^shift of the minimal point, built from the model's digits."""
    if shift == 0:
        return sys_.min_point()
    depth = 1
    while model.cap(depth) <= shift:
        depth += 1
    # one extra zero digit, so the head ends where the all-zero tail starts;
    # the tail repeats the symbol of a zero digit that follows a zero digit
    word = model.from_digits(model.digits(shift, depth + 1))
    return lib.space.Point(sys_.space, word, model.from_digits((0, 0))[1:])


class Oracle:
    """Models and caches shared by a run's checks."""

    def __init__(self):
        self.models = {}
        self.towers = {}
        self.coders = {}

    def model(self, name):
        if name not in self.models:
            self.models[name] = load_model(name)
        return self.models[name]


# ---------------------------------------------------------------------------
# membership-scan


class MembershipScan:
    """gamma_element of a seeded tower permutation, then membership_gamma."""

    name = "membership-scan"
    systems = ("odo2", "odo3", "odo23", "bv11")
    min_floors = 16  # levels are chosen by floor count, not by index
    levels_per_base = 1
    shifted_bases = 4
    shift_digits = 6  # the scan's cost grows with the base point's head length
    warmup_rounds = 4
    digest_rounds = 4
    trace_rounds = 40

    def plan(self, rng):
        shifts = {}
        for name in self.systems:
            model = load_model(name)
            low, high = model.cap(self.shift_digits - 1), model.cap(self.shift_digits)
            shifts[name] = [rng.randrange(low, high) for _ in range(self.shifted_bases)]
        return shifts

    def setup(self, lib, plan):
        state = {"lib": lib, "bases": {}, "sigma": {}}
        for name in self.systems:
            sys_ = lib.systems.system_from_file(descriptor_path(name))
            model = load_model(name)
            bases = []
            for shift in [0] + plan[name]:
                x0 = shifted_point(lib, sys_, model, shift)
                seq = lib.towers.KRSequence(sys_, x0)
                levels, n = [], 0
                while len(levels) < self.levels_per_base:
                    n += 1
                    if sum(seq.level(n).heights()) >= self.min_floors:
                        levels.append(n)
                bases.append({"sys": sys_, "x0": x0, "shift": shift, "seq": seq, "levels": levels})
            state["bases"][name] = bases
            full = lib.space.Clopen.full(sys_.space)
            state["sigma"][name] = {
                e: lib.fullgroup.PiecewisePower.make(sys_, [(full, e)]) for e in (1, -1)
            }
        return state

    def chunk(self, rng, state):
        calls = []
        for name in self.systems:
            for b, base in enumerate(state["bases"][name]):
                for level in base["levels"]:
                    heights = base["seq"].level(level).heights()
                    for composed in (False, True):
                        perms = [rng.sample(range(h), h) for h in heights]
                        # sigma^e after the element; composing on the other side
                        # would move the domains, and on bv11 how far depends
                        # on the seeded base point
                        power = rng.choice((1, -1)) if composed else None
                        calls.append((name, b, level, perms, power))
        return calls

    def run(self, state, call):
        name, b, level, perms, power = call
        lib = state["lib"]
        base = state["bases"][name][b]
        sys_ = base["sys"]
        t0 = time.perf_counter()
        tp = lib.fullgroup.TowerPermutation(level, perms)
        h = lib.fullgroup.gamma_element(sys_, base["seq"].level(level), tp)
        if power is not None:
            h = state["sigma"][name][power].compose(h)
        text = dumps(lib.fullgroup.membership_gamma(sys_, base["x0"], h).to_json())
        return [(time.perf_counter() - t0, text)], None

    def towers_of(self, oracle, state, name, b, level):
        """Floors of a level as model value sets, from the level's JSON."""
        key = (name, b, level)
        if key not in oracle.towers:
            model = oracle.model(name)
            data = state["bases"][name][b]["seq"].level(level).to_json()
            oracle.towers[key] = [
                [parse_literal(model, lit) for lit in t["floors"]] for t in data["towers"]
            ]
        return oracle.towers[key]

    def check(self, oracle, state, call, texts):
        name, b, level, perms, power = call
        model = oracle.model(name)
        shift = state["bases"][name][b]["shift"]
        out = json.loads(texts[0])
        problems = []
        expected_member = power is None
        if out["member"] is not expected_member:
            problems.append(f"member={out['member']}, expected {expected_member}")
        pieces = [parse_literal(model, e["domain"]) + (e["power"],) for e in out["bounds"]]
        for (depth, vals, _), e in zip(pieces, out["bounds"]):
            first, last = model.first_last_hit(depth, vals, shift % model.cap(depth))
            if (first, last) != (e["first_forward_hit"], e["last_backward_hit"]):
                problems.append(
                    f"bounds of {e['domain']}: got {e['first_forward_hit']},{e['last_backward_hit']}, "
                    f"closed form {first},{last}"
                )
        elem = Element(model, pieces)
        if is_member(model, elem, lambda d: shift % model.cap(d)) is not expected_member:
            problems.append("closed-form membership disagrees with the construction")
        towers = self.towers_of(oracle, state, name, b, level)
        depth = max([elem.depth] + [d for t in towers for d, _ in t])
        cap = model.cap(depth)
        floors = {}  # value -> (tower, floor)
        for i, t in enumerate(towers):
            for j, (d, vals) in enumerate(t):
                for v in model.refine(d, vals, depth):
                    if floors.setdefault(v, (i, j)) != (i, j):
                        problems.append(f"floors {floors[v]} and {(i, j)} overlap")
                        return problems, {}
        if len(floors) != cap or [len(t) for t in towers] != [len(p) for p in perms]:
            problems.append("tower floors do not cover the space as the permutation expects")
            return problems, {}
        for v, (i, j) in floors.items():
            if j + 1 < len(towers[i]) and floors[(v + 1) % cap] != (i, j + 1):
                problems.append(f"floor {j} of tower {i} does not map onto floor {j + 1}")
                return problems, {}
        powers = elem.deepened(depth).power_map()
        if powers is None:
            problems.append("element is not a homeomorphism")
            return problems, {}
        for v, (i, j) in floors.items():
            want = perms[i][j] - j + (power or 0)
            if powers[v] != want:
                problems.append(f"power {powers[v]} at value {v}, expected {want}")
                break
        return problems, {}


# ---------------------------------------------------------------------------
# orbit-decide


class OrbitDecide:
    """Parse two clopen literals and decide orbit equivalence."""

    name = "orbit-decide"
    systems = (("odo2", 7), ("odo3", 4), ("odo23", 6), ("odo6", 3))  # max literal depth
    warmup_rounds = 4
    digest_rounds = 4
    trace_rounds = 40

    def plan(self, rng):
        return {}

    def setup(self, lib, plan):
        state = {"lib": lib, "seqs": {}, "level_of_depth": {}}
        for name, max_depth in self.systems:
            sys_ = lib.systems.system_from_file(descriptor_path(name))
            seq = lib.towers.KRSequence(sys_)
            level_of_depth, n = {}, 0
            while len(level_of_depth) < max_depth:
                n += 1
                seq.ensure(n)
                for d in range(1, seq.odometer_level_depth(n) + 1):
                    level_of_depth.setdefault(d, n)
            state["seqs"][name] = seq
            state["level_of_depth"][name] = level_of_depth
        return state

    def chunk(self, rng, state):
        calls = []
        for name, max_depth in self.systems:
            model = load_model(name)
            for da in range(1, max_depth + 1):
                for equal in (True, False):
                    db = rng.randint(1, da)
                    cap_a, cap_b = model.cap(da), model.cap(db)
                    if equal:
                        kb = rng.randint(1, cap_b - 1)
                        ka = kb * (cap_a // cap_b)
                    else:
                        ka = rng.randint(1, cap_a - 1)
                        kb = rng.choice([k for k in range(cap_b + 1) if k * cap_a != ka * cap_b])
                    lit_a = render_literal(model, da, rng.sample(range(cap_a), ka))
                    lit_b = render_literal(model, db, rng.sample(range(cap_b), kb))
                    calls.append((name, lit_a, lit_b, state["level_of_depth"][name][da]))
        return calls

    def run(self, state, call):
        name, lit_a, lit_b, max_level = call
        lib = state["lib"]
        seq = state["seqs"][name]
        space = seq.sys.space
        t0 = time.perf_counter()
        a = lib.space.Clopen.parse(space, lit_a)
        b = lib.space.Clopen.parse(space, lit_b)
        text = dumps(lib.equiv.orbit_decide(seq, a, b, max_level=max_level).to_json())
        return [(time.perf_counter() - t0, text)], None

    def check(self, oracle, state, call, texts):
        name, lit_a, lit_b, max_level = call
        model = oracle.model(name)
        da, va = parse_literal(model, lit_a)
        db, vb = parse_literal(model, lit_b)
        ma, mb = model.measure(da, va), model.measure(db, vb)
        out = json.loads(texts[0])
        verdict = out["verdict"]
        if ma != mb:
            if verdict != "CertifiedDistinct" or out["measures"] != [str(ma), str(mb)]:
                return [f"measures {ma} != {mb} but got {texts[0][:120]}"], {}
            return [], {}
        if verdict != "Equivalent":
            return [f"equal measures {ma} but verdict {verdict}"], {}
        if not 1 <= out["level"] <= max_level:
            return [f"level {out['level']} outside 1..{max_level}"], {}
        perm = out["witness"]["perms"][0]
        depth = 0
        while model.cap(depth) < len(perm):
            depth += 1
        if model.cap(depth) != len(perm) or sorted(perm) != list(range(len(perm))):
            return ["witness is not a floor permutation of one odometer tower"], {}
        (da, va), (db, vb) = model.canonical(da, va), model.canonical(db, vb)
        if max(da, db) > depth:
            return ["witness level is coarser than the clopens"], {}
        # the tower over the minimal point: floor j is the cylinder of value j
        va, vb = model.refine(da, va, depth), model.refine(db, vb, depth)
        if {perm[v] for v in va} != vb:
            return ["witness does not map a onto b"], {}
        return [], {}


# ---------------------------------------------------------------------------
# enum-stream


class LineSink:
    """Output stream that timestamps every line the CLI writes."""

    def __init__(self):
        self.stamps = []
        self.lines = []

    def write(self, text):
        self.stamps.append(time.perf_counter())
        self.lines.append(text)


class EnumStream:
    """`cantordyn enum tfg|gamma|dgamma` through cli.run, one line per query."""

    name = "enum-stream"
    systems = ("odo2", "odo3", "odo23", "bv11")
    counts = {"tfg": 200, "gamma": 200}
    # dgamma takes no --start and its later lines cost ever more, so its
    # counts are fixed: a seeded count would move the mix between seeds
    dgamma_counts = {"odo2": 20, "odo3": 20, "odo23": 20, "bv11": 8}
    max_start = 4000
    warmup_rounds = 1
    digest_rounds = 1
    trace_rounds = 4

    def plan(self, rng):
        return {}

    def setup(self, lib, plan):
        # the CLI reloads descriptors and rebuilds its coder on every call,
        # so loading them here is the only state set-up has
        for name in self.systems:
            lib.systems.system_from_file(descriptor_path(name))
        return {"lib": lib}

    def chunk(self, rng, state):
        calls = []
        for name in self.systems:
            for cmd in ("tfg", "gamma", "dgamma"):
                if cmd == "dgamma":
                    argv = ["enum", cmd, descriptor_path(name), "--count", str(self.dgamma_counts[name])]
                else:
                    argv = ["enum", cmd, descriptor_path(name), "--count", str(self.counts[cmd]),
                            "--start", str(rng.randrange(self.max_start))]
                calls.append((name, argv))
        return calls

    def run(self, state, call):
        sink = LineSink()
        t0 = time.perf_counter()
        rc = state["lib"].cli.run(call[1], out=sink)
        records = []
        prev = t0
        for stamp, line in zip(sink.stamps, sink.lines):
            records.append((stamp - prev, line))
            prev = stamp
        return records, None if rc == 0 else f"exit code {rc}"

    def coder(self, oracle, state, name):
        if name not in oracle.coders:
            lib = state["lib"]
            oracle.coders[name] = lib.enumeration.TupleCoder(
                lib.systems.system_from_file(descriptor_path(name)))
        return oracle.coders[name]

    def check(self, oracle, state, call, texts):
        name, argv = call
        cmd = argv[1]
        count = int(argv[argv.index("--count") + 1])
        start = int(argv[argv.index("--start") + 1]) if "--start" in argv else 0
        model = oracle.model(name)

        def at_min(depth):  # the CLI's default base point is the minimal point
            return 0

        counts = {"codes_checked": 0, "overlap_merged": 0}
        if len(texts) != count:
            return [f"{len(texts)} lines for --count {count}"], counts
        seen = set()
        for i, text in enumerate(texts):
            if not text.endswith("\n"):
                return [f"line {i} is not newline-terminated"], counts
            line = json.loads(text)
            data = line["element"]
            if not is_canonical(model, data):
                return [f"line {i} is not in canonical form: {text[:120]}"], counts
            got = element_from_json(model, data)
            if cmd == "dgamma":
                if line["index"] != i:
                    return [f"dgamma line {i} has index {line['index']}"], counts
                if got.power_map() is None or not is_member(model, got, at_min):
                    return [f"dgamma line {i} is not a member homeomorphism"], counts
                key = dumps(data)
                if key in seen:
                    return [f"dgamma line {i} repeats an earlier element"], counts
                seen.add(key)
                continue
            n = start + i
            if line["index"] != n:
                return [f"line {i} has index {line['index']}, expected {n}"], counts
            coder = self.coder(oracle, state, name)
            code = coder.decode(n)
            if coder.encode(code.pieces()) != n:
                return [f"encode(decode({n})) != {n}"], counts
            raw_json = code.to_json()
            raw = Element(model, [parse_literal(model, lit) + (k,)
                                  for lit, k in zip(raw_json["clopens"], raw_json["powers"])])
            valid = raw.power_map() is not None
            counts["codes_checked"] += 1
            if valid and raw.overlaps_with_equal_power():
                counts["overlap_merged"] += 1
            keep = valid and (cmd == "tfg" or is_member(model, raw, at_min))
            if keep and not same_element(got, raw):
                return [f"code {n}: emitted element differs from its merged pieces"], counts
            if not keep and data != IDENTITY:
                return [f"code {n}: expected the identity, got {text[:120]}"], counts
        return [], counts


WORKLOADS = {w.name: w for w in (MembershipScan(), OrbitDecide(), EnumStream())}
