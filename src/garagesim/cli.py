"""Command-line pipeline: validate -> generate -> scenario -> score.

Machine-readable output goes to stdout only; diagnostics go to stderr.
Exit codes: 0 success, 1 validation/plan/construction failure, 2 I/O,
schema or usage error.  Every command is deterministic: identical inputs
and flags produce byte-identical outputs (there is no randomness to seed,
which is what --seedless documents).
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import __version__
from .errors import GarageError, OptionError, SchemaError, SpecParseError, SpecValidationError
from .grid import _load_json, _read_text, load_garage_spec, validate
# loaded with the package already: the flag table's light levels and default
from .scene import LightLevel
from .scoring import BLACKOUT_THRESHOLD

if TYPE_CHECKING:
    from .scene import SceneGraph

# Each handler imports the machinery it runs, so `validate` and `score` load
# no numpy and a command pays only for its own modules at start-up.

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


def _number(text, kind: type = float):
    """The one number rule of the command line: text as float (or kind)
    reads it, but in ASCII and with no '_', so '0_5' and '٥' raise the
    ValueError that 'fast' does.  A value that is no string goes to kind."""
    if isinstance(text, str) and not (text.isascii() and "_" not in text):
        raise ValueError(text)
    return kind(text)


_number.__name__ = "float"  # argparse words a bad value by its type's name


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
        return tuple(map(_number, parts))  # type: ignore[return-value]
    except ValueError as exc:
        raise OptionError(f"non-numeric weight in {text!r}") from exc


def _parse_corners(text: str) -> frozenset[tuple[int, int]]:
    corners = set()
    for chunk in filter(None, map(str.strip, text.split(";"))):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise SchemaError(f"bad corner {chunk!r}; expected 'i,j'")
        try:
            corners.add((_number(parts[0], int), _number(parts[1], int)))
        except ValueError as exc:
            raise SchemaError(f"bad corner {chunk!r}") from exc
    return frozenset(corners)


#: every command and its help, in the order the usage lists them
COMMANDS = {
    "validate": "check a plan document",
    "generate": "compile a plan into a scene",
    "scenario": "build and run an occlusion case",
    "score": "re-score an emitted report",
}
#: the command argument as the usage names it, spelled as argparse spells its
#: choices: a parser built for one command names all four by it
_COMMANDS_METAVAR = "{" + ",".join(COMMANDS) + "}"


class Flag(NamedTuple):
    """One argument: a flag (named --...) or a positional.  A switch takes
    no value and stores True; any other flag stores its value, made by type
    (a string when type is None) and within choices where those are given."""

    name: str
    help: str | None = None
    type: Callable | None = None
    choices: tuple[str, ...] | None = None
    default: object = None
    required: bool = False
    switch: bool = False

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


_LIGHTS = tuple(level.value for level in LightLevel)
_WEIGHTS_HELP = "w_occ,w_blk,w_lit summing to 1"

#: the arguments of the top level (None) and of each command, in the order
#: their parsers add them; --version and -h are the parsers' own
FLAGS: dict[str | None, tuple[Flag, ...]] = {
    None: (
        Flag("--config", "JSON file of flag defaults"),
        Flag("--seedless", "accepted for scripting symmetry; the pipeline never uses randomness",
             switch=True),
        Flag("--format", "stdout payload format where applicable",
             choices=("json", "csv", "human"), default="human"),
    ),
    "validate": (
        Flag("spec", "garage-spec/1 JSON file or CSV directory"),
    ),
    "generate": (
        Flag("spec"),
        Flag("--light", choices=_LIGHTS, default="bright"),
        Flag("--occupancy", "occupancy-plan/1 JSON file"),
        Flag("--prune-columns", "corners to drop, e.g. '1,1;2,3'", default=""),
        Flag("--out", "scene file (stdout when omitted)"),
        Flag("--obj", "also write a box mesh OBJ here"),
    ),
    "scenario": (
        Flag("--case", "1, 2 or 3", required=True),
        Flag("--column-setback", type=_number),
        Flag("--lane-width", type=_number),
        Flag("--target-distance", type=_number),
        Flag("--column-offset", type=_number),
        Flag("--lane-distance", type=_number),
        Flag("--layout", "case 3 slots, e.g. 'close:large,far:small'",
             default="close:large,far:small"),
        Flag("--light", choices=_LIGHTS, default="bright"),
        Flag("--scene", "scene/1 file to merge in as extra environment"),
        Flag("--step", type=_number),
        Flag("--fov", type=_number),
        Flag("--mount-height", type=_number),
        Flag("--aspect", type=_number),
        Flag("--weights", _WEIGHTS_HELP),
        Flag("--blackout-threshold", type=_number, default=BLACKOUT_THRESHOLD),
        Flag("--out", "report/1 JSON output path", required=True),
    ),
    "score": (
        Flag("report", "report/1 JSON file"),
        Flag("--weights", _WEIGHTS_HELP),
        Flag("--blackout-threshold", type=_number, default=BLACKOUT_THRESHOLD),
    ),
}


def _config_defaults(path: str) -> dict:
    """Flag defaults from the JSON config file at path; flags given on the
    command line override them.  Every key must name a flag of the table
    and every value be one that flag takes (SchemaError)."""
    raw = _load_json(_read_text(path), f"config {path}")
    if not isinstance(raw, dict):
        raise SchemaError("config file must hold a JSON object")
    defaults = {str(k).replace("-", "_"): v for k, v in raw.items()}
    flags = [flag for own in FLAGS.values() for flag in own if flag.name.startswith("--")]
    unknown = sorted(set(defaults) - {flag.dest for flag in flags})
    if unknown:
        raise SchemaError(f"no flag for config key(s) {', '.join(map(repr, unknown))}")
    for flag in flags:
        if flag.dest in defaults:
            defaults[flag.dest] = _config_value(flag, defaults[flag.dest])
    return defaults


def _config_value(flag: Flag, value):
    """A config value as its flag takes it: a bool for a switch, else a
    string, or what the flag's type makes of it, within the flag's choices."""
    if flag.switch:
        ok = isinstance(value, bool)
    elif flag.type is None:
        ok = isinstance(value, str)
    elif isinstance(value, bool):
        ok = False
    else:
        try:
            value, ok = flag.type(value), True
        except (TypeError, ValueError, OverflowError):
            ok = False
    if ok and flag.choices is not None:
        ok = value in flag.choices
    if not ok:
        raise SchemaError(f"config value {value!r} is not a valid {flag.name}")
    return value


def _add_flags(parser: argparse.ArgumentParser, flags: tuple[Flag, ...], defaults: dict) -> None:
    """Add the flags to the parser, each defaulting to its config value if
    defaults holds one, else to its own default."""
    for flag in flags:
        kwargs: dict = {"help": flag.help}
        if flag.switch:
            kwargs.update(action="store_true", default=defaults.get(flag.dest, False))
        else:
            kwargs.update(type=flag.type, choices=flag.choices,
                          default=defaults.get(flag.dest, flag.default))
        if flag.required:
            kwargs["required"] = True
        parser.add_argument(flag.name, **kwargs)


def build_parser(command: str | None = None, defaults: dict | None = None
                 ) -> argparse.ArgumentParser:
    """The command-line parser, its flags defaulting to defaults (config
    values) where given.  It holds every command's parser, or only the
    named command's, whose top-level usage still names all four."""
    defaults = defaults or {}
    # the width each help formatter would measure, measured once per parser
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="garagesim",
        description="Garage plan compiler and occlusion analyzer",
        formatter_class=formatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    _add_flags(parser, FLAGS[None], defaults)
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else _COMMANDS_METAVAR)
    for name, help_text in COMMANDS.items():
        if command in (None, name):
            _add_flags(sub.add_parser(name, help=help_text, formatter_class=formatter),
                       FLAGS[name], defaults)
    return parser


#: the top-level flags that take a value, and those that take none
_VALUED = tuple(flag.name for flag in FLAGS[None] if not flag.switch)
_SWITCHES = tuple(flag.name for flag in FLAGS[None] if flag.switch)


def _named_command(argv: list[str]) -> str | None:
    """The command that argv surely runs: the first argument after the
    top-level flags (and their values) when each of those is spelled out in
    full.  None where the command is missing or anything else comes first,
    such as -h, --version or an abbreviated flag, whose value could look
    like a command."""
    k = 0
    while k < len(argv):
        tok = argv[k]
        if tok in COMMANDS:
            return tok
        if tok in _VALUED:
            k += 2
        elif tok in _SWITCHES or tok.partition("=")[0] in _VALUED:
            k += 1
        else:
            return None
    return None


def _cmd_validate(args) -> int:
    spec = load_garage_spec(args.spec)
    report = validate(spec)
    if args.format == "json":
        print(json.dumps(report.to_document(), indent=2, sort_keys=True))
    elif report.ok:
        print("ok")
    else:
        _print_violations(report, sys.stdout)
    return EXIT_OK if report.ok else EXIT_DATA


def _print_violations(report, file) -> None:
    """One line per violation of a failed validation report."""
    for v in report.violations:
        print(f"violation {v.rule} at {v.location}: {v.message}", file=file)


def _cmd_generate(args) -> int:
    from .classify import classify_all
    from .scene import (
        NodeKind, SynthOptions, export_scene, parse_occupancy_plan, populate_vehicles, synthesize,
    )

    spec = load_garage_spec(args.spec)
    grid = classify_all(spec)  # the one validation of the plan
    options = SynthOptions(LightLevel(args.light), _parse_corners(args.prune_columns))
    scene = synthesize(grid, options)
    if args.occupancy:
        plan = parse_occupancy_plan(_read_text(args.occupancy))
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


def _merge_scene(base: SceneGraph, extra: SceneGraph | None, level: LightLevel) -> SceneGraph:
    """The scenario's scene, plus extra environment where given, bounded by
    both and re-lit to level, made from their box tables in one copy (the
    same scene as apply_light_level of the two merged), with its index
    built.  Boxes whose bounds, or lamps over them, would lie past BOX_MAX
    are a SchemaError."""
    from .scene import _merged

    tables = (base._table,) if extra is None else (base._table, extra._table)
    ids = set(base._table.ids)
    first = next((i for table in tables[1:] for i in table.ids if i in ids), None)
    if first is not None:
        raise SchemaError(f"--scene node id {first!r} collides with the scenario")
    try:
        return _merged(tables, level)
    except ValueError as exc:  # Box3's check, of the bounds or a lamp
        raise SchemaError(f"--scene boxes reach too far: {exc}") from exc


def _parse_layout(text: str) -> list[tuple[str, str]]:
    layout = []
    for chunk in filter(None, map(str.strip, text.split(","))):
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

    from .scenario import build_case1, build_case2, build_case3, emit_report, run_scenario
    from .scene import import_scene
    from .visibility import CameraConfig, sweep_csv

    cfg = CameraConfig(**_given(args, "mount_height", "aspect", horizontal_fov_deg="fov"))
    weights = _parse_weights(args.weights)
    if args.case == "1":
        scn = build_case1(**_given(args, "column_setback", "lane_width", "target_distance"))
    elif args.case == "2":
        scn = build_case2(**_given(args, "column_offset", "lane_distance"))
    else:
        scn = build_case3(_parse_layout(args.layout))
    # merged with any --scene and re-lit in one copy; the imported scene is
    # held by no name, so its table goes once merged
    scn = replace(scn, scene=_merge_scene(
        scn.scene, import_scene(_read_text(args.scene)) if args.scene else None,
        LightLevel(args.light)))
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
    doc = _load_json(_read_text(args.report), "report")
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
    handlers = {"validate": _cmd_validate, "generate": _cmd_generate,
                "scenario": _cmd_scenario, "score": _cmd_score}
    try:
        # only the parser of the command argv names, if it surely names one
        parser = build_parser(_named_command(argv))
        args = parser.parse_args(argv)
        if isinstance(args.config, str):  # a path: its values default a second parse
            parser = build_parser(args.command, _config_defaults(args.config))
            args = parser.parse_args(argv)
        # argparse (Python 3.11) reads "--flag=--" as an empty list of values
        for dest in (dest for dest, value in vars(args).items() if type(value) is list):
            parser.error(f"argument --{dest.replace('_', '-')}: expected one argument")
        return handlers[args.command](args)
    except SystemExit as exc:  # argparse usage errors and --help/--version
        return int(exc.code or 0)
    except (SpecParseError, SchemaError, OptionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecValidationError as exc:  # generate's plan, as validate prints it
        _print_violations(exc.report, sys.stderr)
        return EXIT_DATA
    except GarageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
