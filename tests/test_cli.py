"""Command-line interface: exit codes, frozen outputs, determinism."""

from __future__ import annotations

import io
import json

from cantordyn.cli import run

DESC = "descriptors"
ODO2 = f"{DESC}/odo2.json"
ODO3 = f"{DESC}/odo3.json"
ODO4 = f"{DESC}/odo4.json"
BV11 = f"{DESC}/bv11.json"

SWAP = {"pieces": [{"domain": "0", "power": 1}, {"domain": "1", "power": -1}]}
SIGMA = {"pieces": [{"domain": "X", "power": 1}]}
OVERLAP = {"pieces": [{"domain": "0", "power": 0}, {"domain": "00", "power": 1}]}


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def write_json(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


# ---------------------------------------------------------------- towers

def test_towers_render():
    code, text = invoke("towers", ODO2, "--max-level", "1")
    assert code == 0
    assert "[0]" in text and "[1]" in text
    assert "T0->T1" in text and "T1->T0" not in text or "top->base" in text


def test_towers_json():
    code, text = invoke("towers", ODO2, "--max-level", "2", "--json")
    assert code == 0
    data = json.loads(text)
    assert [lvl["level"] for lvl in data["levels"]] == [1, 2]
    assert data["levels"][1]["towers"][0]["floors"] == ["00", "10", "01", "11"]


# ---------------------------------------------------------------- group

def test_group_validate_ok(tmp_path):
    el = write_json(tmp_path, "swap.json", SWAP)
    code, text = invoke("group", "validate", ODO2, el, "--json")
    assert code == 0
    assert json.loads(text)["verdict"] == "Valid"
    # the same swap given as a level-1 tower permutation
    tp = write_json(tmp_path, "tp.json", {"level": 1, "perms": [[1, 0]]})
    assert invoke("group", "validate", ODO2, tp, "--json") == (0, text)
    assert invoke("group", "validate", ODO2, tp) == (0, "Valid\n")


def test_group_validate_invalid(tmp_path):
    el = write_json(tmp_path, "overlap.json", OVERLAP)
    code, text = invoke("group", "validate", ODO2, el, "--json")
    assert code == 1
    data = json.loads(text)
    assert data["verdict"] == "Invalid" and "reason" in data


def test_group_validate_garbage(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    code, _ = invoke("group", "validate", ODO2, str(p))
    assert code == 2
    el = write_json(tmp_path, "nodomain.json", {"pieces": [{"power": 0}]})
    assert invoke("group", "validate", ODO2, el) == (
        2, "input error: bad piecewise data: 'domain'\n"
    )
    tp = write_json(tmp_path, "tp3.json", {"level": 1, "perms": [[2, 0, 1]]})
    code, _ = invoke("group", "validate", ODO2, tp)
    assert code == 2


def test_group_member_yes(tmp_path):
    el = write_json(tmp_path, "swap.json", SWAP)
    code, text = invoke("group", "member", ODO2, el, "--json")
    assert code == 0
    assert json.loads(text)["member"] is True


def test_group_member_no_shift(tmp_path):
    el = write_json(tmp_path, "sigma.json", SIGMA)
    code, text = invoke("group", "member", ODO2, el, "--json")
    assert code == 1
    data = json.loads(text)
    assert data["member"] is False
    assert data["witness"]["allowed"] == [0, 0]


def test_group_sign_levels(tmp_path):
    el = write_json(tmp_path, "swap.json", SWAP)
    code, text = invoke("group", "sign", ODO2, el, "--level", "1")
    assert code == 0 and text.strip() == "-1"
    code, text = invoke("group", "sign", ODO2, el, "--level", "2")
    assert code == 0 and text.strip() == "+1"


def test_group_commutator(tmp_path):
    el = write_json(tmp_path, "swap.json", SWAP)
    code, text = invoke("group", "commutator", ODO2, el, "--depth", "3", "--json")
    assert code == 0
    assert json.loads(text) == {"in_commutator": True, "level": 2}

    gamma3 = {
        "pieces": [
            {"domain": "2", "power": 0},
            {"domain": "0", "power": 1},
            {"domain": "1", "power": -1},
        ]
    }
    el3 = write_json(tmp_path, "gamma3.json", gamma3)
    code, text = invoke("group", "commutator", ODO3, el3, "--depth", "8", "--json")
    assert code == 1
    assert json.loads(text) == {"in_commutator": "not-up-to-depth", "depth": 8}


def test_group_dense_approx(tmp_path):
    el = write_json(tmp_path, "swap.json", SWAP)
    code, text = invoke("group", "dense-approx", ODO2, el, "--level", "2", "--json")
    assert code == 0
    data = json.loads(text)
    assert data["level"] == 2 and data["perms"] == [[1, 0, 3, 2]]


def test_group_involution():
    code, text = invoke("group", "involution", ODO2, "--clopen", "0", "--json")
    assert code == 0
    data = json.loads(text)
    assert data == {"level": 3, "perms": [[2, 1, 0, 3, 6, 5, 4, 7]]}


def test_group_tower_perm_element_file(tmp_path):
    el = write_json(tmp_path, "tp.json", {"level": 2, "perms": [[1, 0, 3, 2]]})
    code, text = invoke("group", "member", ODO2, el, "--json")
    assert code == 0 and json.loads(text)["member"] is True


# ---------------------------------------------------------------- orbit

def test_orbit_equivalent():
    code, text = invoke(
        "orbit", "decide", ODO2, "--a", "0", "--b", "1", "--max-level", "3", "--json"
    )
    assert code == 0
    data = json.loads(text)
    assert data["verdict"] == "Equivalent" and data["level"] == 1
    assert data["witness"] == {"level": 1, "perms": [[1, 0]]}


def test_orbit_distinct():
    code, text = invoke(
        "orbit", "decide", ODO2, "--a", "00", "--b", "1", "--json"
    )
    assert code == 1
    data = json.loads(text)
    assert data == {"verdict": "CertifiedDistinct", "measures": ["1/4", "1/2"]}


def test_orbit_not_yet():
    code, text = invoke(
        "orbit", "decide", ODO2,
        "--a", "000+111", "--b", "00", "--max-level", "2", "--json",
    )
    assert code == 3
    assert json.loads(text)["verdict"] == "NotYetEquivalent"


def test_orbit_plain_lines():
    code, text = invoke("orbit", "decide", ODO2, "--a", "0", "--b", "1")
    assert code == 0 and text.strip() == "Equivalent at level 1"
    code, text = invoke("orbit", "decide", ODO2, "--a", "00", "--b", "1")
    assert code == 1 and text.strip() == "Distinct (measure gap)"


# ---------------------------------------------------------------- soe

def test_soe_equivalent():
    code, text = invoke("soe", "check", ODO2, ODO4, "--json")
    assert code == 0
    assert json.loads(text)["verdict"] == "Equivalent"


def test_soe_distinct():
    code, text = invoke("soe", "check", ODO2, ODO3, "--json")
    assert code == 1
    data = json.loads(text)
    assert data["verdict"] == "Distinct"
    assert data["obstruction"] == {
        "kind": "prime-valuation",
        "prime": 2,
        "valuations": ["inf", 0],
    }


def test_soe_depth_payload():
    code, text = invoke("soe", "check", ODO2, ODO3, "--depth", "3", "--json")
    assert code == 1
    data = json.loads(text)
    assert data["backandforth"]["verdict"] == "Stuck"
    assert data["backandforth"]["reason"] == {"kind": "value-gap", "value": "1/2"}

    code, text = invoke(
        "soe", "check", ODO2, ODO4, "--depth", "3", "--report", "--json"
    )
    assert code == 0
    data = json.loads(text)
    assert data["backandforth"]["verdict"] == "PartialIso"
    assert data["cocycle_report"]["shrinking"] is True


def test_soe_plain_lines():
    code, text = invoke("soe", "check", ODO2, ODO3)
    assert code == 1 and text.strip() == "Distinct (prime-valuation)"
    code, text = invoke("soe", "check", ODO2, ODO4)
    assert code == 0 and text.strip() == "Equivalent"


def test_soe_rejects_bv():
    code, _ = invoke("soe", "check", ODO2, BV11, "--json")
    assert code == 2


# ---------------------------------------------------------------- enum

def test_enum_tfg_lines():
    code, text = invoke("enum", "tfg", ODO2, "--count", "6")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 6
    rows = [json.loads(ln) for ln in lines]
    assert [r["index"] for r in rows] == [0, 1, 2, 3, 4, 5]
    nonid = [
        r["index"]
        for r in rows
        if r["element"]["pieces"] != [{"domain": "X", "power": 0}]
    ]
    assert nonid == [4]


def test_enum_dgamma_lines():
    code, text = invoke("enum", "dgamma", ODO2, "--count", "5")
    assert code == 0
    assert len(text.strip().splitlines()) == 5


# ---------------------------------------------------------------- hygiene

def test_byte_identical_reruns():
    for argv in (
        ("towers", ODO2, "--max-level", "3", "--json"),
        ("soe", "check", ODO2, ODO4, "--depth", "4", "--report", "--json"),
        ("enum", "tfg", ODO2, "--count", "12"),
        ("orbit", "decide", ODO2, "--a", "00+11", "--b", "01+10", "--json"),
    ):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second


def test_input_errors_exit_two(tmp_path):
    code, _ = invoke("nosuchcommand")
    assert code == 2
    code, _ = invoke("towers", "descriptors/missing.json")
    assert code == 2
    code, _ = invoke("orbit", "decide", ODO2, "--a", "7", "--b", "1")
    assert code == 2
    # digits that int() does not read are malformed literals, not crashes
    for lit in ("\u00b2", "1.\u00b2", "1.x"):
        code, text = invoke("orbit", "decide", ODO2, "--a", lit, "--b", "1")
        assert code == 2 and "bad word literal" in text
    # tail 1, 1 or tail 11: an ambiguous base point is an input error
    el = write_json(tmp_path, "id.json", {"pieces": [{"domain": "X", "power": 0}]})
    code, text = invoke("group", "member", f"{DESC}/odo12.json", el, "--x0", "0.11")
    assert code == 2 and "'0.11'" in text
    code, _ = invoke("group", "member", ODO2, el, "--x0", "0.\u00b2")
    assert code == 2


def test_ignored_options_are_rejected(capsys):
    # options that were accepted and then ignored are gone
    for flag, argv in (
        ("--dump-towers", ("group", "validate", ODO2, "el.json")),
        ("--dump-towers", ("group", "member", ODO2, "el.json")),
        ("--dump-towers", ("group", "commutator", ODO2, "el.json", "--depth", "3")),
        ("--x0 0.1", ("group", "commutator", ODO2, "el.json", "--depth", "3")),
        ("--horizon 5", ("enum", "tfg", ODO2, "--count", "2")),
        ("--start 99", ("enum", "dgamma", ODO2, "--count", "2")),
        ("--dedup", ("enum", "dgamma", ODO2, "--count", "2")),
    ):
        assert invoke(*argv, *flag.split()) == (2, "")
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    # soe options that only act together with another one
    assert invoke("soe", "check", ODO2, ODO4, "--report") == (
        2, "input error: --report needs --depth\n"
    )
    assert invoke("soe", "check", ODO2, ODO4, "--depth", "3", "--horizon", "4") == (
        2, "input error: --horizon needs --report\n"
    )


def test_enum_gamma_cap_is_not_an_answer():
    code, text = invoke("enum", "gamma", ODO2, "--count", "6", "--horizon", "1")
    assert code == 3
    assert text.splitlines()[-1].startswith("resource cap: orbit scan cap 1")


_BV11_EDGES = [[0, 1, 0], [0, 2, 0], [1, 3, 0], [2, 3, 1], [1, 4, 0], [2, 4, 1]]


def _bv(**changes):
    body = {"vertices": [2, 2], "edges": _BV11_EDGES, "period_start": 2}
    body.update(changes)
    return {"bv": body}


MALFORMED_DESCRIPTORS = [
    ({"odometer": {"prefix": "ab", "period": [2]}}, "odometer: 'prefix'"),
    ({"odometer": {"period": [2.5]}}, "odometer: 'period'"),
    ({"odometer": {"period": [True]}}, "odometer: 'period'"),
    ({"odometer": [2]}, "odometer: body"),
    ({"bv": 5}, "bv: body"),
    (_bv(vertices=[2, "x"]), "bv: 'vertices'"),
    (_bv(period_start="2"), "bv: 'period_start'"),
    (_bv(period_start=2.0), "bv: 'period_start'"),
    (_bv(edges=5), "bv: 'edges'"),
    (_bv(edges=[[0, 1, "0"]] + _BV11_EDGES[1:]), "bv: edges[0]"),
    (_bv(edges=_BV11_EDGES[:5] + [[2, 4, 1.0]]), "bv: edges[5]"),
]

MALFORMED_ELEMENTS = [
    ({"pieces": [{"domain": 5, "power": 0}]}, "pieces[0]: 'domain'"),
    ({"pieces": [{"domain": "X", "power": 1.5}]}, "pieces[0]: 'power'"),
    ({"pieces": [{"domain": "0", "power": 1}, {"domain": "1", "power": True}]},
     "pieces[1]: 'power'"),
    ({"level": "x", "perms": [[0, 1]]}, "'level'"),
    ({"level": 1.5, "perms": [[1, 0]]}, "'level'"),
    ({"level": 1, "perms": [[True, False]]}, "perms[0]"),
    ({"level": 1, "perms": 5}, "'perms'"),
]


def test_malformed_json_inputs_exit_two(tmp_path):
    for i, (desc, field) in enumerate(MALFORMED_DESCRIPTORS):
        path = write_json(tmp_path, f"desc{i}.json", desc)
        code, text = invoke("towers", path, "--max-level", "1")
        assert code == 2 and text.startswith("input error: ") and field in text, (desc, text)
    for i, (element, field) in enumerate(MALFORMED_ELEMENTS):
        path = write_json(tmp_path, f"el{i}.json", element)
        code, text = invoke("group", "validate", ODO2, path)
        assert code == 2 and text.startswith("input error: ") and field in text, (element, text)
