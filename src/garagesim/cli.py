"""Command-line pipeline: validate -> generate -> scenario -> score.

Machine-readable output goes to stdout only; diagnostics go to stderr.
Exit codes: 0 success, 1 validation/plan/construction failure, 2 I/O,
schema or usage error.  Every command is deterministic: identical inputs
and flags produce byte-identical outputs (there is no randomness to seed,
which is what --seedless documents).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import JSON_TOO_DEEP, GarageError, OptionError, SchemaError, SpecParseError
from .grid import load_garage_spec, validate

if TYPE_CHECKING:
    from .scene import LightLevel, SceneGraph

# Each handler imports the machinery it runs, so `validate` and `score` load
# no numpy and a command pays only for its own modules at start-up.

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


def _parse_weights(text: str | None) -> tuple[float, float, float]:
    """Weights from 'w_occ,w_blk,w_lit' (the defaults when text is empty);
    the library checks their values."""
    from .scoring import DEFAULT_WEIGHTS

    if not text:
        return DEFAULT_WEIGHTS
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 3:
        raise OptionError(f"expected three comma-separated weights, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise OptionError(f"non-numeric weight in {text!r}") from exc


def _parse_corners(text: str) -> frozenset[tuple[int, int]]:
    corners = set()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise SchemaError(f"bad corner {chunk!r}; expected 'i,j'")
        try:
            corners.add((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise SchemaError(f"bad corner {chunk!r}") from exc
    return frozenset(corners)


def _apply_config_defaults(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Optional JSON config file provides flag defaults; flags override it."""
    path = None
    for k, tok in enumerate(argv):
        if tok == "--config" and k + 1 < len(argv):
            path = argv[k + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"cannot read config {path}: {JSON_TOO_DEEP}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("config file must hold a JSON object")
    defaults = {str(k).replace("-", "_"): v for k, v in raw.items()}
    subs = [sub for action in parser._actions
            if isinstance(action, argparse._SubParsersAction) for sub in action.choices.values()]
    flags = [a for p in (parser, *subs) for a in p._actions if a.option_strings
             and isinstance(a, (argparse._StoreAction, argparse._StoreConstAction))]
    unknown = sorted(set(defaults) - {a.dest for a in flags})
    if unknown:
        raise SchemaError(f"no flag for config key(s) {', '.join(map(repr, unknown))}")
    for action in flags:
        if action.dest in defaults:
            defaults[action.dest] = _config_value(action, defaults[action.dest])
    parser.set_defaults(**defaults)
    # the running subcommand's parser writes its own flags' defaults over the
    # top level's, so each of those flags takes its config default there
    for sub in subs:
        own = {a.dest for a in sub._actions}
        sub.set_defaults(**{k: v for k, v in defaults.items() if k in own})


def _config_value(action: argparse.Action, value):
    """A config value as its flag takes it: a bool for a switch, else a
    string, or what the flag's type makes of it, within the flag's choices."""
    if isinstance(action, argparse._StoreConstAction):
        ok = isinstance(value, bool)
    elif action.type is None:
        ok = isinstance(value, str)
    elif isinstance(value, bool):
        ok = False
    else:
        try:
            value, ok = action.type(value), True
        except (TypeError, ValueError, OverflowError):
            ok = False
    if ok and action.choices is not None:
        ok = value in action.choices
    if not ok:
        raise SchemaError(f"config value {value!r} is not a valid {action.option_strings[0]}")
    return value


def build_parser() -> argparse.ArgumentParser:
    from .scene import LightLevel
    from .scoring import BLACKOUT_THRESHOLD

    parser = argparse.ArgumentParser(
        prog="garagesim",
        description="Garage plan compiler and occlusion analyzer",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help="JSON file of flag defaults", default=None)
    parser.add_argument(
        "--seedless", action="store_true",
        help="accepted for scripting symmetry; the pipeline never uses randomness",
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "human"), default="human",
        help="stdout payload format where applicable",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a plan document")
    p_val.add_argument("spec", help="garage-spec/1 JSON file or CSV directory")

    p_gen = sub.add_parser("generate", help="compile a plan into a scene")
    p_gen.add_argument("spec")
    p_gen.add_argument("--light", choices=[l.value for l in LightLevel], default="bright")
    p_gen.add_argument("--occupancy", help="occupancy-plan/1 JSON file", default=None)
    p_gen.add_argument("--prune-columns", default="",
                       help="corners to drop, e.g. '1,1;2,3'")
    p_gen.add_argument("--out", help="scene file (stdout when omitted)", default=None)
    p_gen.add_argument("--obj", help="also write a box mesh OBJ here", default=None)

    p_scn = sub.add_parser("scenario", help="build and run an occlusion case")
    p_scn.add_argument("--case", required=True, help="1, 2 or 3")
    p_scn.add_argument("--column-setback", type=float)
    p_scn.add_argument("--lane-width", type=float)
    p_scn.add_argument("--target-distance", type=float)
    p_scn.add_argument("--column-offset", type=float)
    p_scn.add_argument("--lane-distance", type=float)
    p_scn.add_argument("--layout", default="close:large,far:small",
                       help="case 3 slots, e.g. 'close:large,far:small'")
    p_scn.add_argument("--light", choices=[l.value for l in LightLevel], default="bright")
    p_scn.add_argument("--scene", default=None,
                       help="scene/1 file to merge in as extra environment")
    p_scn.add_argument("--step", type=float)
    p_scn.add_argument("--fov", type=float)
    p_scn.add_argument("--mount-height", type=float)
    p_scn.add_argument("--aspect", type=float)
    p_scn.add_argument("--weights", default=None, help="w_occ,w_blk,w_lit summing to 1")
    p_scn.add_argument("--blackout-threshold", type=float, default=BLACKOUT_THRESHOLD)
    p_scn.add_argument("--out", required=True, help="report/1 JSON output path")

    p_sco = sub.add_parser("score", help="re-score an emitted report")
    p_sco.add_argument("report", help="report/1 JSON file")
    p_sco.add_argument("--weights", default=None, help="w_occ,w_blk,w_lit summing to 1")
    p_sco.add_argument("--blackout-threshold", type=float, default=BLACKOUT_THRESHOLD)

    return parser


def _cmd_validate(args) -> int:
    spec = load_garage_spec(args.spec)
    report = validate(spec)
    if args.format == "json":
        print(json.dumps(report.to_document(), indent=2, sort_keys=True))
    else:
        if report.ok:
            print("ok")
        else:
            for v in report.violations:
                print(f"violation {v.rule} at {v.location}: {v.message}")
    return EXIT_OK if report.ok else EXIT_DATA


def _cmd_generate(args) -> int:
    spec = load_garage_spec(args.spec)
    report = validate(spec)
    if not report.ok:
        for v in report.violations:
            print(f"violation {v.rule} at {v.location}: {v.message}", file=sys.stderr)
        return EXIT_DATA
    from .classify import classify_all
    from .scene import (
        LightLevel, NodeKind, SynthOptions, export_scene, parse_occupancy_plan,
        populate_vehicles, synthesize,
    )

    grid = classify_all(spec)
    options = SynthOptions(
        light=LightLevel(args.light), prune_columns=_parse_corners(args.prune_columns)
    )
    scene = synthesize(grid, options)
    if args.occupancy:
        plan = parse_occupancy_plan(Path(args.occupancy).read_text(encoding="utf-8"))
        scene = populate_vehicles(scene, grid, plan)
    doc = export_scene(scene, "scene-json")
    # counted from the scene's box table, which builds no nodes
    counts = {kind.value: n for kind in NodeKind if (n := scene.count(kind))}
    total = sum(counts.values())
    if args.out:
        Path(args.out).write_text(doc, encoding="utf-8")
        if args.format == "json":
            print(json.dumps({"nodes": total, "counts": counts}, indent=2, sort_keys=True))
        else:
            summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
            print(f"scene written to {args.out}: {total} nodes ({summary})")
    else:
        sys.stdout.write(doc)
        print(f"nodes: {total}", file=sys.stderr)
    if args.obj:
        Path(args.obj).write_text(export_scene(scene, "obj"), encoding="utf-8")
    return EXIT_OK


def _merge_scene(
    base: SceneGraph, extra: SceneGraph, level: LightLevel | None = None
) -> SceneGraph:
    """Scenario scene plus extra environment, bounded by both, made from
    their box tables in one copy: re-lit to level where one is given (the
    same scene as apply_light_level of the merged one), else as it is and
    bright.  Boxes whose bounds, or lamps over them, would lie past BOX_MAX
    are a SchemaError."""
    from .scene import LightLevel, _relit, _table_bounds, _table_scene

    tables = base._table_of(), extra._table_of()
    ids = set(tables[0].ids)
    if not ids.isdisjoint(tables[1].ids):
        first = next(node_id for node_id in tables[1].ids if node_id in ids)
        raise SchemaError(f"--scene node id {first!r} collides with the scenario")
    try:
        bounds = _table_bounds(*tables)
        if level is None:
            return _table_scene(tables[0] + tables[1], bounds, LightLevel.BRIGHT)
        return _relit(tables, bounds, level)
    except ValueError as exc:  # Box3's check, of the bounds or a lamp
        raise SchemaError(f"--scene boxes reach too far: {exc}") from exc


def _parse_layout(text: str) -> list[tuple[str, str]]:
    layout = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise SchemaError(f"bad layout entry {chunk!r}; expected slot:size")
        slot, size = chunk.split(":", 1)
        layout.append((slot.strip(), size.strip()))
    return layout


def _given(args, *names: str, **renamed: str) -> dict:
    """Keyword arguments from the flags set on the command line or in
    --config: each of names from its own dest, each key of renamed from the
    dest it maps to.  An unset flag is left out, so the library's default
    holds."""
    dests = {**{name: name for name in names}, **renamed}
    return {key: getattr(args, dest) for key, dest in dests.items()
            if getattr(args, dest) is not None}


def _cmd_scenario(args) -> int:
    if args.case not in ("1", "2", "3"):
        print(f"unknown case {args.case!r}; expected 1, 2 or 3", file=sys.stderr)
        return EXIT_USAGE
    from dataclasses import replace

    from .scenario import build_case1, build_case2, build_case3, emit_report, relight, run_scenario
    from .scene import LightLevel, import_scene
    from .visibility import CameraConfig, sweep_csv

    cfg = CameraConfig(**_given(args, "mount_height", "aspect", horizontal_fov_deg="fov"))
    weights = _parse_weights(args.weights)
    if args.case == "1":
        scn = build_case1(**_given(args, "column_setback", "lane_width", "target_distance"))
    elif args.case == "2":
        scn = build_case2(**_given(args, "column_offset", "lane_distance"))
    else:
        scn = build_case3(_parse_layout(args.layout))
    if args.scene:
        # merged and re-lit in one copy; held by no name, so the imported
        # table goes once merged
        scn = replace(scn, scene=_merge_scene(
            scn.scene, import_scene(Path(args.scene).read_text(encoding="utf-8")),
            LightLevel(args.light)))
    else:
        scn = relight(scn, LightLevel(args.light))
    report = run_scenario(
        scn,
        cfg,
        weights=weights,
        blackout_threshold=args.blackout_threshold,
        **_given(args, "step"),
    )
    out = Path(args.out)
    out.write_text(emit_report(report), encoding="utf-8")
    for tid, sw in report.sweeps.items():
        csv_path = out.with_name(f"{out.stem}.{tid}.csv")
        csv_path.write_text(sweep_csv(sw), encoding="utf-8")
    if args.format == "json":
        payload = {
            "label": report.label.value,
            "targets": list(report.sweeps),
            "score": report.score.to_document(),
            "stats": report.stats,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{report.label.value}: score {report.score.total:.2f} "
              f"(occ {report.score.occlusion_term:.3f}, blk {report.score.blackout_term:.3f}, "
              f"lit {report.score.light_term:.3f})")
        for tid, st in report.stats.items():
            clears = "clears" if st["clears_to_high_visibility"] else "never clears"
            print(f"  {tid}: min {st['min_visible_fraction']:.3f} "
                  f"mean {st['mean_visible_fraction']:.3f} ({clears})")
    return EXIT_OK


def _cmd_score(args) -> int:
    try:
        doc = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid report JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError(f"invalid report JSON: {JSON_TOO_DEEP}") from exc
    from .scoring import rescore_report_document

    weights = _parse_weights(args.weights)
    sc = rescore_report_document(doc, weights, args.blackout_threshold)
    if args.format == "json":
        print(json.dumps(sc.to_document(), indent=2, sort_keys=True))
    elif args.format == "csv":
        print("total,occlusion_term,blackout_term,light_term,w_occ,w_blk,w_lit")
        print(f"{sc.total!r},{sc.occlusion_term!r},{sc.blackout_term!r},"
              f"{sc.light_term!r},{sc.weights[0]!r},{sc.weights[1]!r},{sc.weights[2]!r}")
    else:
        print(f"difficulty {sc.total:.2f} = 100 * ({sc.weights[0]}*{sc.occlusion_term:.4f}"
              f" + {sc.weights[1]}*{sc.blackout_term:.4f}"
              f" + {sc.weights[2]}*{sc.light_term:.4f})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config_defaults(parser, argv)
        args = parser.parse_args(argv)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse usage errors and --help/--version
        return int(exc.code or 0)

    handlers = {
        "validate": _cmd_validate,
        "generate": _cmd_generate,
        "scenario": _cmd_scenario,
        "score": _cmd_score,
    }
    try:
        return handlers[args.command](args)
    except (SpecParseError, SchemaError, OptionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GarageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
