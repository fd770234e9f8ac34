"""Self-checks of the benchmark's oracles.

    python3 -m pytest -q cdbench/test_oracles.py

Each oracle must accept the library's real answers and reject a deliberately
wrong one: a flipped verdict, a non-member reported as a member, and an
emitted element whose images overlap. The seeds here are not the ones the
oracles were developed on.
"""

from __future__ import annotations

import ast
import copy
import json
import os
import random
import sys

import pytest

import run
from model import parse_literal
from workloads import IDENTITY, ROOT, WORKLOADS, Oracle, dumps, load_model, shifted_point

sys.path.insert(0, os.path.join(ROOT, "src"))
HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (1009, 7331)


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def prepared(lib, name, seed):
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    state = workload.setup(lib, workload.plan(rng))
    return workload, state, workload.chunk(rng, state)


def texts_of(workload, state, call):
    records, error = workload.run(state, call)
    assert error is None
    return [text for _, text in records]


def rejects(workload, state, call, texts):
    problems, _ = workload.check(Oracle(), state, call, texts)
    return bool(problems)


# ---------------------------------------------------------------------------
# the benchmark never loads the kernel backend or its benchmark


def test_no_kernel_imports():
    forbidden = {m.split(".")[-1] for m in run.FORBIDDEN_MODULES}
    for fname in sorted(os.listdir(HERE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(HERE, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            for n in names:
                assert n.split(".")[-1] not in forbidden, (fname, n)


# ---------------------------------------------------------------------------
# the models agree with the library where they overlap


@pytest.mark.parametrize("name", ["odo2", "odo23", "bv11"])
def test_shifted_point_is_an_orbit_point(lib, name):
    sys_ = lib.systems.system_from_file(os.path.join(ROOT, "descriptors", name + ".json"))
    model = load_model(name)
    for shift in (1, 5, 37, 100):
        assert shifted_point(lib, sys_, model, shift) == sys_.image_point(sys_.min_point(), shift)


def test_bv_model_matches_vershik_map(lib):
    sys_ = lib.systems.system_from_file(os.path.join(ROOT, "descriptors", "bv11.json"))
    model = load_model("bv11")
    for depth in (1, 3, 5):
        for v in range(model.cap(depth)):
            word = model.from_digits(model.digits(v, depth))
            for k in (1, -1, 3):
                image = sys_.image_clopen(lib.space.cylinder(sys_.space, word), k)
                want = model.from_digits(model.digits((v + k) % model.cap(depth), depth))
                assert image == lib.space.cylinder(sys_.space, want)


# ---------------------------------------------------------------------------
# membership-scan


@pytest.mark.parametrize("seed", SEEDS)
def test_membership_oracle(lib, seed):
    workload, state, calls = prepared(lib, "membership-scan", seed)
    for call in calls[::3]:
        texts = texts_of(workload, state, call)
        assert not rejects(workload, state, call, texts), call
        out = json.loads(texts[0])
        flipped = dict(out, member=not out["member"])
        assert rejects(workload, state, call, [dumps(flipped)])
        if call[4] is not None:  # a non-member reported as a member, with consistent bounds
            assert rejects(workload, state, call, [dumps({"member": True, "bounds": out["bounds"]})])
        moved = copy.deepcopy(out)
        moved["bounds"][0]["first_forward_hit"] += 1
        assert rejects(workload, state, call, [dumps(moved)])


# ---------------------------------------------------------------------------
# orbit-decide


@pytest.mark.parametrize("seed", SEEDS)
def test_orbit_oracle(lib, seed):
    workload, state, calls = prepared(lib, "orbit-decide", seed)
    for call in calls:
        texts = texts_of(workload, state, call)
        assert not rejects(workload, state, call, texts), call
        out = json.loads(texts[0])
        if out["verdict"] == "Equivalent":
            flipped = {"verdict": "CertifiedDistinct", "measures": ["1/2", "1/4"]}
            assert rejects(workload, state, call, [dumps(flipped)])
            assert rejects(workload, state, call, [dumps(
                {"verdict": "NotYetEquivalent", "scanned_level": call[3], "caveat": ""})])
            # the identity witness fails whenever a and b differ as sets
            perm = out["witness"]["perms"][0]
            model = load_model(call[0])
            (da, va), (db, vb) = (parse_literal(model, lit) for lit in call[1:3])
            depth = max(da, db)
            if model.refine(da, va, depth) != model.refine(db, vb, depth):
                broken = copy.deepcopy(out)
                broken["witness"]["perms"][0] = sorted(perm)
                assert rejects(workload, state, call, [dumps(broken)])
        else:
            witness = {"level": call[3], "perms": [[0, 1]]}
            flipped = {"verdict": "Equivalent", "level": call[3], "witness": witness}
            assert rejects(workload, state, call, [dumps(flipped)])


# ---------------------------------------------------------------------------
# enum-stream

OVERLAPPING_IMAGES = {"pieces": [{"domain": "0", "power": 0}, {"domain": "1", "power": 1}]}
SHIFT = {"pieces": [{"domain": "X", "power": 1}]}  # the map itself: valid, never a member


def with_element(lines, pos, element):
    bad = copy.deepcopy(lines)
    bad[pos]["element"] = element
    return [dumps(line) + "\n" for line in bad]


@pytest.mark.parametrize("seed", SEEDS)
def test_enum_oracle(lib, seed):
    workload, state, calls = prepared(lib, "enum-stream", seed)
    for call in calls:
        name, argv = call
        kind = argv[1]
        if name == "bv11" and kind == "dgamma":
            continue  # the slowest call; the odometer dgamma calls cover the same checks
        texts = texts_of(workload, state, call)
        assert not rejects(workload, state, call, texts), call
        lines = [json.loads(t) for t in texts]
        for pos in (0, len(lines) // 2, len(lines) - 1):
            assert rejects(workload, state, call, with_element(lines, pos, OVERLAPPING_IMAGES))
        element = next(i for i, line in enumerate(lines) if line["element"] != IDENTITY)
        if kind == "tfg":
            # a valid code emitted as the identity; an invalid code given an element
            identity = next(i for i, line in enumerate(lines) if line["element"] == IDENTITY)
            assert rejects(workload, state, call, with_element(lines, element, IDENTITY))
            assert rejects(workload, state, call, with_element(lines, identity, SHIFT))
        else:
            # a non-member reported as a member
            assert rejects(workload, state, call, with_element(lines, element, SHIFT))
        if kind == "gamma":
            assert rejects(workload, state, call, with_element(lines, element, IDENTITY))
        if kind == "dgamma":
            repeat = with_element(lines, len(lines) - 1, lines[-2]["element"])
            assert rejects(workload, state, call, repeat)


# ---------------------------------------------------------------------------
# the result line carries exactly the metrics BENCHMARK.json declares (runs
# last: run.main imports cantordyn afresh)


def test_metric_names_match_benchmark_json(capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "orbit-decide", "--seed", "4242", "--seconds", "0.2", "--trace", str(trace)]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in bench[key]}
