"""Command-line surface: render, edit, parse, synth, eval, roundtrip.

Exit codes, set by each error class and mapped in ``main`` alone:
0 success; 2 input rejected (ParseError, JsonSyntaxError, SchemaError,
UnsupportedFormat, ValidationFailed); 3 I/O (any OSError, UnreadableFile,
OutputDirNotWritable); 4 any other StereoEditError. With --log-level=json,
errors go to stderr as one-line JSON records.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import random
import shlex
import shutil
import sys
import tomllib
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

from . import __version__
from .audio import SAMPLE_RATE, read_stereo, write_wav
from .catalog import build_catalog
from .demo import build_demo_catalog
from .engine import (HttpEditorAdapter, OracleEditor, SubprocessEditorAdapter,
                     execute_plan)
from .errors import (ParseError, SchemaError, StereoEditError, UnreadableFile,
                     ValidationFailed, error_text)
from .metrics import gcc_mse, lsd, roundtrip_drift
from .pipeline import (PipelineConfig, canonical_manifest_bytes, export_stages,
                       read_manifest, run_pipeline, scene_from_json)
from .plans import (Add, EditPlan, canonicalize_plan, parse_plan_json,
                    parse_plan_text, plan_to_json, serialize_step,
                    validate_plan)
from .spatial import render_scene

log = logging.getLogger("stereoedit")

EXIT_OK = 0


def _load_config_file(path: str) -> dict:
    loads = tomllib.loads if path.endswith(".toml") else json.loads
    try:  # decode and parse errors are ValueErrors; deep nesting recurses
        data = loads(Path(path).read_text())
    except (OSError, RecursionError, ValueError) as exc:
        raise UnreadableFile(f"cannot read config: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"config must be an object of option values, "
                          f"not {type(data).__name__}")
    return data


def _load_plan(path: str):
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"plan file is not text: {exc}") from exc
    if text.lstrip()[:1] in ("{", "["):
        return parse_plan_json(text)
    return parse_plan_text(text)


def _load_scene(path: str):
    try:  # decode and parse errors are ValueErrors; deep nesting recurses
        return scene_from_json(json.loads(Path(path).read_text()))
    except (AttributeError, KeyError, OverflowError, RecursionError,
            ValueError, TypeError) as exc:
        raise SchemaError(f"invalid scene description: {exc}") from exc


def _output_csv(path, rows) -> None:
    """Write the rows to the CSV file at path, or to stdout without one."""
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as f:
        csv.writer(f).writerows(rows)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = random.SystemRandom().randrange(2 ** 31)
    print(f"seed: {seed} (pass --seed {seed} to replay this run)")
    return seed


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_render(args) -> int:
    scene = _load_scene(args.scene_file)
    audio = render_scene(scene)
    write_wav(args.out_wav, audio)
    print(f"wrote {args.out_wav}: {audio.num_samples} stereo frames, "
          f"peak {audio.peak():.4f}, rms {audio.rms():.4f}")
    return EXIT_OK


def cmd_edit(args) -> int:
    scene = _load_scene(args.scene_file)
    plan = _load_plan(args.plan_file)
    validate_plan(plan, scene.labels).raise_if_invalid()
    plan = canonicalize_plan(plan)  # run the steps in the order they were checked

    catalog = build_catalog(args.catalog) if args.catalog else None
    rng = random.Random(_resolve_seed(args))
    stages, _ = execute_plan(scene, plan, catalog=catalog, rng=rng)

    out_dir = Path(args.out_dir)
    # the outermost directory that mkdir creates, if any
    made = next((d for d in (*reversed(out_dir.parents), out_dir)
                 if not d.exists()), None)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"a{i:02d}.wav" for i in range(len(stages))]
    try:
        export_stages(stages, paths, peak_normalize=False)
    except (StereoEditError, OSError):
        # leave no part of the trajectory behind
        if made is not None:
            shutil.rmtree(made)
        else:
            for path in paths:
                path.unlink(missing_ok=True)
        raise
    manifest = {
        "plan": plan_to_json(plan),
        "audio_paths": [str(path) for path in paths],
        "steps": [serialize_step(s) for s in plan.steps],
    }
    (out_dir / "run.json").write_text(json.dumps(manifest, indent=2))
    print(f"wrote {len(paths)} trajectory files to {out_dir}")
    return EXIT_OK


def cmd_parse(args) -> int:
    plan = _load_plan(args.plan_file)
    report = validate_plan(plan, plan.sound_sources)
    output = {
        "plan": plan_to_json(plan),
        "warnings": list(plan.warnings),
        "violations": [
            {"rule_id": v.rule_id, "step_index": v.step_index,
             "message": v.message}
            for v in report.violations
        ],
        "is_valid": report.is_valid,
    }
    print(json.dumps(output, indent=2))
    return EXIT_OK if report.is_valid else ValidationFailed.exit_code


def cmd_synth(args) -> int:
    data = _load_config_file(args.config_file)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.workers is not None:
        data["worker_count"] = args.workers
    catalog_root = data.pop("catalog_root", None)
    try:
        if not isinstance(catalog_root, (str, type(None))):
            raise TypeError("catalog_root must be a path")
        config = PipelineConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid pipeline config: {exc}") from exc
    catalog = build_catalog(catalog_root) if catalog_root else None
    stats = run_pipeline(config, catalog=catalog)
    print(json.dumps({
        "requested": stats.requested,
        "succeeded": stats.succeeded,
        "failed": stats.failed,
        "wall_time_s": round(stats.wall_time_s, 3),
        "failures": [list(f) for f in stats.failures],
    }, indent=2))
    return EXIT_OK


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _score_pair(pair) -> list:
    """The CSV row of one (reference, candidate) pair.

    A candidate is looked up at its manifest path under the candidate
    directory, then by file name alone."""
    record_id, index, ref_path, candidate_dir, rel = pair
    cand_path = candidate_dir / rel
    if not cand_path.is_file():
        cand_path = candidate_dir / Path(rel).name
    if not cand_path.is_file():
        raise UnreadableFile(f"missing candidate audio for {rel}")
    ref = read_stereo(ref_path)
    cand = read_stereo(cand_path)
    got, want = ((b.num_samples, b.sample_rate_hz) for b in (cand, ref))
    if got != want:
        raise SchemaError(f"{cand_path}: {got[0]} samples at {got[1]} Hz, "
                          f"but its reference has {want[0]} at {want[1]} Hz")
    return [record_id, index,
            f"{lsd(ref, cand):.9g}", f"{gcc_mse(ref, cand):.9g}"]


def cmd_eval(args) -> int:
    rows = read_manifest(args.manifest)
    manifest_dir = Path(args.manifest).parent
    candidate_dir = Path(args.candidate_dir)

    pairs = []
    for row in rows:
        audio_paths = row.get("audio_paths")
        if ("record_id" not in row or not isinstance(audio_paths, list)
                or not all(isinstance(rel, str) for rel in audio_paths)):
            raise SchemaError("malformed manifest: every row needs record_id "
                              "and audio_paths, a list of paths")
        pairs.extend((row["record_id"], i, manifest_dir / rel, candidate_dir,
                      rel) for i, rel in enumerate(audio_paths))

    # numpy releases the GIL in the transforms, so threads in this process
    # score pairs side by side. Rows come back in pair order, so the first
    # failing pair raises first and the CSV bytes do not depend on the width.
    with ThreadPoolExecutor(max(1, min(_usable_cpus(), len(pairs)))) as pool:
        scores = list(pool.map(_score_pair, pairs))
    _output_csv(args.csv, [["record_id", "audio_index", "lsd", "gcc_mse"],
                           *scores])
    return EXIT_OK


def _make_editor(spec: str, args):
    kind, _, rest = spec.partition(":")
    if kind == "oracle":
        scene = _load_scene(rest)
        catalog = build_catalog(args.catalog) if args.catalog else None
        return OracleEditor(scene, catalog=catalog,
                            rng=random.Random(_resolve_seed(args)))
    if kind == "subprocess":
        work = Path(args.work_dir or "editor_work")
        return SubprocessEditorAdapter(shlex.split(rest), work_dir=work,
                                       timeout_s=args.timeout)
    if kind == "http":
        return HttpEditorAdapter(rest, timeout_s=args.timeout)
    raise SchemaError(
        f"unknown editor spec {spec!r}; use oracle:/subprocess:/http:")


def cmd_roundtrip(args) -> int:
    if args.rounds < 0:
        raise SchemaError(f"--rounds must be at least 0, not {args.rounds}")
    if not 0 < args.timeout < math.inf:  # also rejects nan
        raise SchemaError(f"--timeout must be a positive, finite number of "
                          f"seconds, not {args.timeout}")
    editor = _make_editor(args.editor_spec, args)
    audio = read_stereo(args.audio)
    if isinstance(editor, OracleEditor):  # else round 1 would fail on either
        if ((audio.num_samples, audio.sample_rate_hz)
                != (editor.scene.num_samples, SAMPLE_RATE)):
            raise SchemaError(f"{args.audio}: not the length and sample rate "
                              f"of the scene's render")
        validate_plan(EditPlan("", (), (Add(args.label),)),
                      editor.scene.labels).raise_if_invalid()
    result = roundtrip_drift(editor, audio, args.label, rounds=args.rounds)
    rows = [[i, f"{value:.9g}"]
            for i, value in enumerate(result.lsd_per_round, 1)]
    for i, value in rows:
        print(f"round {i}: lsd {value}")
    if args.csv:
        _output_csv(args.csv, [["round", "lsd"], *rows])
    return EXIT_OK


def cmd_demo_catalog(args) -> int:
    root = build_demo_catalog(args.out_dir, seed=args.seed or 0)
    catalog = build_catalog(root)
    print(f"wrote demo catalog to {root}: {len(catalog.labels)} labels, "
          f"{len(catalog)} clips")
    return EXIT_OK


def cmd_manifest_hash(args) -> int:
    import hashlib
    digest = hashlib.sha256(canonical_manifest_bytes(args.manifest)).hexdigest()
    print(digest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stereoedit",
        description="Declarative stereo audio-scene editing toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--seed", type=int, default=None,
                        help="global RNG seed (drawn and printed if absent)")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--log-level", default=None,
                        help="debug|info|warning|error|json (default warning)")
    parser.add_argument("--config", default=None,
                        help="TOML or JSON file with default option values")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="render a scene JSON file to a WAV")
    p.add_argument("scene_file")
    p.add_argument("out_wav")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("edit", help="execute a plan against a scene")
    p.add_argument("scene_file")
    p.add_argument("plan_file", help="template text or JSON plan")
    p.add_argument("out_dir")
    p.add_argument("--catalog", default=None, help="clip library for Add steps")
    p.set_defaults(func=cmd_edit)

    p = sub.add_parser("parse", help="normalize and validate a plan file")
    p.add_argument("plan_file")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("synth", help="run the dataset synthesis pipeline")
    p.add_argument("config_file")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="compare candidate audio against a manifest")
    p.add_argument("manifest")
    p.add_argument("candidate_dir")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("roundtrip", help="run the add/remove drift experiment")
    p.add_argument("editor_spec",
                   help="oracle:<scene.json> | subprocess:<cmd> | http:<url>")
    p.add_argument("audio")
    p.add_argument("label")
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--catalog", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--work-dir", default=None)
    p.add_argument("--timeout", type=float, default=60.0)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("demo-catalog", help="write the synthetic test catalog")
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_demo_catalog)

    p = sub.add_parser("manifest-hash",
                       help="canonical hash of a manifest (timestamps excluded)")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_manifest_hash)

    return parser


def _apply_config(parser, argv, args):
    """argv parsed again with the --config file's values as the defaults of
    the options they name, so that an explicit flag still wins; and the
    config keys that name no option of the command, in file order."""
    if not args.config:
        return args, []
    config = _load_config_file(args.config)
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    named = set()
    # a parser's own options only: a subcommand default beats a global flag.
    # Values go in as text, so each gets its flag's type check.
    for p in (parser, commands[args.command]):
        options = {a.dest for a in p._actions if a.dest in config}
        p.set_defaults(**{dest: None if config[dest] is None
                          else str(config[dest]) for dest in options})
        named |= options
    return parser.parse_args(argv), [key for key in config if key not in named]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the config file may set log_level, so apply it before reading that
        args, unknown = _apply_config(parser, argv, args)
        level = (args.log_level or "warning").upper()
        logging.basicConfig(level=getattr(logging, level, logging.WARNING))
        for key in unknown:
            log.warning("config key %r names no option of %r; ignored",
                        key, args.command)
        return args.func(args)
    except OSError as exc:  # any failed read or write
        error, code = exc, UnreadableFile.exit_code
    except StereoEditError as exc:
        error, code = exc, exc.exit_code
    if args.log_level == "json":
        print(json.dumps({"error": error_text(error), "exit_code": code}),
              file=sys.stderr)
    else:
        print(f"error: {error_text(error)}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
