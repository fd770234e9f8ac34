"""Command-line surface tying the modules together.

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 input
error, 3 resource cap.  Identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys as _stdsys

from .enumeration import enum_dgamma, enum_gamma, enum_tfg
from .equiv import orbit_decide, soe_backandforth, soe_cocycle_report, soe_decide
from .errors import (
    CantorDynError,
    CapExceededError,
    InputFormatError,
    PiecewiseValidationError,
)
from .fullgroup import (
    PiecewisePower,
    TowerPermutation,
    as_level_permutation,
    derived_approx,
    embed_to,
    gamma_element,
    in_commutator,
    involution_in,
    membership_gamma,
)
from .space import Clopen, Point
from .systems import System, system_from_file
from .towers import KRSequence, kr_sequence

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def render_towers(seq: KRSequence, level: int) -> str:
    """Fixed-width ASCII: one column per tower, floors bottom-up."""
    part = seq.level(level)
    towers = part.towers
    cells = [[atom.render() for atom in t.atoms] for t in towers]
    width = max(max(len(s) for s in col) for col in cells)
    rows = max(t.height for t in towers)
    lines = [f"level {level}"]
    for r in range(rows - 1, -1, -1):
        segs = []
        for col in cells:
            if r < len(col):
                segs.append("[" + col[r].center(width) + "]")
            else:
                segs.append(" " * (width + 2))
        lines.append("  ".join(segs).rstrip())
    lines.append(
        "  ".join(f"T{i}".center(width + 2) for i in range(len(towers))).rstrip()
    )
    arrows = []
    for i, t in enumerate(towers):
        img = seq.sys.image_clopen(t.atoms[-1], 1)
        hits = [
            j
            for j, u in enumerate(towers)
            if not img.intersection(u.atoms[0]).is_empty()
        ]
        arrows.append("T%d->%s" % (i, "+".join("T%d" % j for j in hits)))
    lines.append("top->base: " + "  ".join(arrows))
    return "\n".join(lines)


def _emit(out, text: str) -> None:
    out.write(text + "\n")


def _emit_json(out, payload) -> None:
    out.write(json.dumps(payload, sort_keys=True) + "\n")


def _load_element(sys_: System, path: str):
    """Element file: either a piece list or a tower permutation."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "perms" in data:
        return TowerPermutation.from_json(data)
    return PiecewisePower.from_json(sys_, data)


def _as_tower_perm(seq: KRSequence, el, max_level: int) -> TowerPermutation:
    if isinstance(el, TowerPermutation):
        return el
    return as_level_permutation(seq, el, max_level=max_level)


def _x0_of(sys_: System, literal: str | None) -> Point:
    if literal is None:
        return sys_.min_point()
    return Point.parse(sys_.space, literal)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_towers(args, out) -> int:
    sys_ = system_from_file(args.system)
    seq = kr_sequence(sys_, levels=args.max_level)
    if args.json:
        payload = {
            "levels": [seq.level(n).to_json() for n in range(1, args.max_level + 1)]
        }
        _emit_json(out, payload)
    else:
        blocks = [render_towers(seq, n) for n in range(1, args.max_level + 1)]
        _emit(out, "\n\n".join(blocks))
    return EXIT_OK


def _cmd_group(args, out) -> int:
    sys_ = system_from_file(args.system)
    seq = kr_sequence(sys_, levels=1)
    if args.group_cmd == "validate":
        try:
            el = _load_element(sys_, args.element)
            if isinstance(el, TowerPermutation):
                el = gamma_element(sys_, seq.level(el.level), el)
        except PiecewiseValidationError as exc:
            payload = {"verdict": "Invalid", "reason": str(exc)}
            _emit_json(out, payload) if args.json else _emit(
                out, f"Invalid: {exc}"
            )
            return EXIT_NEGATIVE
        payload = {"verdict": "Valid", "element": el.to_json()}
        _emit_json(out, payload) if args.json else _emit(out, "Valid")
        return EXIT_OK
    if args.group_cmd == "member":
        el = _load_element(sys_, args.element)
        if isinstance(el, TowerPermutation):
            el = gamma_element(sys_, seq.level(el.level), el)
        x0 = _x0_of(sys_, args.x0)
        res = membership_gamma(sys_, x0, el, cap=args.horizon)
        payload = res.to_json()
        if args.json:
            _emit_json(out, payload)
        else:
            _emit(out, "Yes" if res.member else "No")
        return EXIT_OK if res.member else EXIT_NEGATIVE
    if args.group_cmd == "sign":
        el = _load_element(sys_, args.element)
        tp = _as_tower_perm(seq, el, max_level=args.level)
        if tp.level > args.level:
            raise InputFormatError("element lives above the requested level")
        if tp.level < args.level:
            tp = embed_to(seq, tp, args.level)
        sv = tp.sign_vector()
        if args.dump_towers:
            _emit(out, render_towers(seq, args.level))
        if args.json:
            _emit_json(out, sv.to_json())
        else:
            _emit(out, " ".join("%+d" % s for s in sv.signs))
        return EXIT_OK
    if args.group_cmd == "commutator":
        el = _load_element(sys_, args.element)
        tp = _as_tower_perm(seq, el, max_level=args.depth)
        st = in_commutator(sys_, seq.x0, tp, depth=args.depth, seq=seq)
        if args.json:
            _emit_json(out, st.to_json())
        else:
            _emit(
                out,
                f"Yes at level {st.level}" if st.member else "NotUpToDepth",
            )
        return EXIT_OK if st.member else EXIT_NEGATIVE
    if args.group_cmd == "dense-approx":
        el = _load_element(sys_, args.element)
        tp = _as_tower_perm(seq, el, max_level=args.level)
        approx = derived_approx(tp, args.level, seq)
        if args.dump_towers:
            _emit(out, render_towers(seq, approx.level))
        _emit_json(out, approx.to_json())
        return EXIT_OK
    if args.group_cmd == "involution":
        c = Clopen.parse(sys_.space, args.clopen)
        tp = involution_in(seq, c, max_level=args.max_level)
        if args.dump_towers:
            _emit(out, render_towers(seq, tp.level))
        _emit_json(out, tp.to_json())
        return EXIT_OK
    raise InputFormatError(f"unknown group command {args.group_cmd!r}")


def _cmd_orbit(args, out) -> int:
    sys_ = system_from_file(args.system)
    seq = kr_sequence(sys_, levels=1)
    a = Clopen.parse(sys_.space, args.a)
    b = Clopen.parse(sys_.space, args.b)
    status = orbit_decide(seq, a, b, max_level=args.max_level)
    if args.dump_towers and status.level:
        _emit(out, render_towers(seq, status.level))
    if args.json:
        _emit_json(out, status.to_json())
    else:
        if status.verdict == "equivalent":
            _emit(out, f"Equivalent at level {status.level}")
        elif status.verdict == "distinct":
            _emit(out, "Distinct (measure gap)")
        else:
            _emit(out, f"NotYet up to level {status.scanned}")
    if status.verdict == "equivalent":
        return EXIT_OK
    if status.verdict == "distinct":
        return EXIT_NEGATIVE
    return EXIT_CAP


def _cmd_soe(args, out) -> int:
    if args.report and not args.depth:
        raise InputFormatError("--report needs --depth")
    if args.horizon is not None and not args.report:
        raise InputFormatError("--horizon needs --report")
    sys1 = system_from_file(args.system1)
    sys2 = system_from_file(args.system2)
    verdict = soe_decide(sys1, sys2)
    payload = verdict.to_json()
    if args.depth:
        res = soe_backandforth(
            kr_sequence(sys1, levels=1), kr_sequence(sys2, levels=1), args.depth
        )
        payload["backandforth"] = res.to_json()
        if args.report and hasattr(res, "rungs"):
            payload["cocycle_report"] = soe_cocycle_report(
                res, horizon=8 if args.horizon is None else args.horizon
            )
    if args.json:
        _emit_json(out, payload)
    elif verdict.equivalent:
        _emit(out, "Equivalent")
    else:
        ob = verdict.obstruction
        detail = f" ({ob.kind})" if ob is not None else ""
        _emit(out, "Distinct" + detail)
    return EXIT_OK if verdict.equivalent else EXIT_NEGATIVE


def _cmd_enum(args, out) -> int:
    sys_ = system_from_file(args.system)
    x0 = _x0_of(sys_, args.x0)
    if args.enum_cmd == "tfg":
        stream = enum_tfg(
            sys_, args.count, start=args.start, dedup=args.dedup, x0=x0
        )
    elif args.enum_cmd == "gamma":
        stream = enum_gamma(
            sys_,
            x0=x0,
            count=args.count,
            start=args.start,
            dedup=args.dedup,
            horizon=args.horizon,
        )
    else:
        stream = enum_dgamma(sys_, x0=x0, count=args.count, horizon=args.horizon)
    for idx, el in stream:
        _emit_json(out, {"index": idx, "element": el.to_json()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cantordyn",
        description="clopen algebra, towers, full groups, equivalences",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("towers", help="build and render tower partitions")
    t.add_argument("system", help="system descriptor JSON file")
    t.add_argument("--max-level", type=int, default=3)
    t.add_argument("--json", action="store_true")

    g = sub.add_parser("group", help="full-group element operations")
    gsub = g.add_subparsers(dest="group_cmd", required=True)
    gv = gsub.add_parser("validate")
    gm = gsub.add_parser("member")
    gs = gsub.add_parser("sign")
    gc = gsub.add_parser("commutator")
    gd = gsub.add_parser("dense-approx")
    gi = gsub.add_parser("involution")
    for q in (gv, gm, gs, gc, gd, gi):
        q.add_argument("system", help="system descriptor JSON file")
        q.add_argument("--json", action="store_true")
    for q in (gv, gm, gs, gc, gd):
        q.add_argument("element", help="element JSON file")
    for q in (gs, gd, gi):
        q.add_argument("--dump-towers", action="store_true")
    gm.add_argument("--x0", default=None, help="base point literal")
    gm.add_argument("--horizon", type=int, default=100000)
    gs.add_argument("--level", type=int, required=True)
    gc.add_argument("--depth", type=int, required=True)
    gd.add_argument("--level", type=int, required=True)
    gi.add_argument("--clopen", required=True, help="clopen literal")
    gi.add_argument("--max-level", type=int, default=64)

    o = sub.add_parser("orbit", help="dimension-range decisions")
    osub = o.add_subparsers(dest="orbit_cmd", required=True)
    od = osub.add_parser("decide")
    od.add_argument("system", help="system descriptor JSON file")
    od.add_argument("--a", required=True, help="clopen literal")
    od.add_argument("--b", required=True, help="clopen literal")
    od.add_argument("--max-level", type=int, default=8)
    od.add_argument("--json", action="store_true")
    od.add_argument("--dump-towers", action="store_true")

    s = sub.add_parser("soe", help="strong orbit equivalence")
    ssub = s.add_subparsers(dest="soe_cmd", required=True)
    sc = ssub.add_parser("check")
    sc.add_argument("system1", help="system descriptor JSON file")
    sc.add_argument("system2", help="system descriptor JSON file")
    sc.add_argument("--depth", type=int, default=0)
    sc.add_argument("--report", action="store_true")
    sc.add_argument("--horizon", type=int, default=None)
    sc.add_argument("--json", action="store_true")

    e = sub.add_parser("enum", help="element streams")
    esub = e.add_subparsers(dest="enum_cmd", required=True)
    for name in ("tfg", "gamma", "dgamma"):
        q = esub.add_parser(name)
        q.add_argument("system", help="system descriptor JSON file")
        q.add_argument("--count", type=int, required=True)
        if name != "dgamma":
            q.add_argument("--start", type=int, default=0)
            q.add_argument("--dedup", action="store_true")
        q.add_argument("--x0", default=None, help="base point literal")
        if name != "tfg":
            q.add_argument("--horizon", type=int, default=100000)

    return p


def run(argv, out=None) -> int:
    """Dispatch a command line; returns the exit code."""
    out = out if out is not None else _stdsys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        if args.cmd == "towers":
            return _cmd_towers(args, out)
        if args.cmd == "group":
            return _cmd_group(args, out)
        if args.cmd == "orbit":
            return _cmd_orbit(args, out)
        if args.cmd == "soe":
            return _cmd_soe(args, out)
        if args.cmd == "enum":
            return _cmd_enum(args, out)
        raise InputFormatError(f"unknown command {args.cmd!r}")
    except CapExceededError as exc:
        _emit(out, f"resource cap: {exc}")
        return EXIT_CAP
    except (OSError, json.JSONDecodeError, CantorDynError) as exc:
        _emit(out, f"input error: {exc}")
        return EXIT_INPUT


def main() -> None:
    raise SystemExit(run(_stdsys.argv[1:]))


if __name__ == "__main__":
    main()
