"""Command-line surface: render, edit, parse, synth, eval, roundtrip.

Exit codes: 0 success, 2 schema/parse/validation error, 3 I/O error,
4 engine error. With --log-level=json, errors go to stderr as one-line
JSON records.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import random
import shlex
import sys
from pathlib import Path

from . import __version__
from .audio import AudioBuffer, read_wav, write_wav
from .catalog import build_catalog
from .demo import build_demo_catalog
from .engine import (HttpEditorAdapter, OracleEditor, SubprocessEditorAdapter,
                     execute_plan)
from .errors import (JsonSyntaxError, ParseError, SchemaError, StereoEditError,
                     UnreadableFile, UnsupportedFormat)
from .metrics import gcc_mse, lsd, roundtrip_drift
from .pipeline import (PipelineConfig, canonical_manifest_bytes, read_manifest,
                       run_pipeline, scene_from_json)
from .plans import (parse_plan_json, parse_plan_text, plan_to_json,
                    serialize_step, validate_plan)
from .spatial import render_scene

log = logging.getLogger("stereoedit")

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_IO = 3
EXIT_ENGINE = 4


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _load_config_file(path: str) -> dict:
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:
            try:
                import tomli as tomllib
            except ImportError:
                raise CliError("TOML config requires Python >= 3.11 or tomli",
                               EXIT_IO)
        loads, decode_error = tomllib.loads, tomllib.TOMLDecodeError
    else:
        loads, decode_error = json.loads, json.JSONDecodeError
    try:
        data = loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, decode_error) as exc:
        raise CliError(f"cannot read config: {exc}", EXIT_IO)
    if not isinstance(data, dict):
        raise CliError(f"config must be an object of option values, "
                       f"not {type(data).__name__}", EXIT_SCHEMA)
    return data


def _load_plan(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read plan: {exc}", EXIT_IO)
    stripped = text.lstrip()
    try:
        if stripped[:1] in ("{", "["):
            return parse_plan_json(text)
        return parse_plan_text(text)
    except (ParseError, JsonSyntaxError, SchemaError) as exc:
        raise CliError(f"plan parse failed: {exc}", EXIT_SCHEMA)


def _load_scene(path: str):
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read scene file: {exc}", EXIT_IO)
    except json.JSONDecodeError as exc:
        raise CliError(f"scene file is not valid JSON: {exc}", EXIT_SCHEMA)
    try:
        return scene_from_json(data)
    except (KeyError, ValueError, TypeError, StereoEditError) as exc:
        raise CliError(f"invalid scene description: {exc}", EXIT_SCHEMA)


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
    report = validate_plan(plan, scene.labels)
    if not report.is_valid:
        for v in report.violations:
            print(f"violation {v.rule_id}: {v.message}", file=sys.stderr)
        raise CliError("plan failed validation", EXIT_SCHEMA)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    catalog = build_catalog(args.catalog) if args.catalog else None
    rng = random.Random(_resolve_seed(args))
    try:
        trajectory, _ = execute_plan(scene, plan, catalog=catalog, rng=rng)
    except StereoEditError as exc:
        raise CliError(f"engine error: {exc}", EXIT_ENGINE)

    paths = []
    for i, (_, audio) in enumerate(trajectory):
        path = out_dir / f"a{i:02d}.wav"
        write_wav(path, audio)
        paths.append(str(path))
    manifest = {
        "plan": plan_to_json(plan),
        "audio_paths": paths,
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
    return EXIT_OK if report.is_valid else EXIT_SCHEMA


def cmd_synth(args) -> int:
    data = _load_config_file(args.config_file)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.workers is not None:
        data["worker_count"] = args.workers
    catalog_root = data.pop("catalog_root", None)
    try:
        config = PipelineConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid pipeline config: {exc}", EXIT_SCHEMA)
    catalog = build_catalog(catalog_root) if catalog_root else None
    try:
        stats = run_pipeline(config, catalog=catalog)
    except StereoEditError as exc:
        raise CliError(f"pipeline error: {exc}", EXIT_ENGINE)
    print(json.dumps({
        "requested": stats.requested,
        "succeeded": stats.succeeded,
        "failed": stats.failed,
        "wall_time_s": round(stats.wall_time_s, 3),
        "failures": [list(f) for f in stats.failures],
    }, indent=2))
    return EXIT_OK


def _read_buffer(path) -> AudioBuffer:
    try:
        rate, data = read_wav(path)
    except UnsupportedFormat as exc:
        raise CliError(str(exc), EXIT_SCHEMA)
    except UnreadableFile as exc:
        raise CliError(str(exc), EXIT_IO)
    if data.ndim != 2 or data.shape[1] != 2:
        raise CliError(f"{path}: expected stereo WAV", EXIT_SCHEMA)
    return AudioBuffer(data.T, sample_rate_hz=rate)


def cmd_eval(args) -> int:
    try:
        rows = read_manifest(args.manifest)
    except OSError as exc:
        raise CliError(f"cannot read manifest: {exc}", EXIT_IO)
    manifest_dir = Path(args.manifest).parent
    candidate_dir = Path(args.candidate_dir)

    out_rows = [["record_id", "audio_index", "lsd", "gcc_mse"]]
    for row in rows:
        for i, rel in enumerate(row["audio_paths"]):
            ref_path = manifest_dir / rel
            cand_path = candidate_dir / rel
            if not cand_path.is_file():
                cand_path = candidate_dir / Path(rel).name
            if not cand_path.is_file():
                raise CliError(f"missing candidate audio for {rel}", EXIT_IO)
            ref = _read_buffer(ref_path)
            cand = _read_buffer(cand_path)
            out_rows.append([row["record_id"], i,
                             f"{lsd(ref, cand):.9g}",
                             f"{gcc_mse(ref, cand):.9g}"])

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows(out_rows)
    else:
        csv.writer(sys.stdout).writerows(out_rows)
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
    raise CliError(f"unknown editor spec {spec!r}; use oracle:/subprocess:/http:",
                   EXIT_SCHEMA)


def cmd_roundtrip(args) -> int:
    editor = _make_editor(args.editor_spec, args)
    audio = _read_buffer(args.audio)
    try:
        result = roundtrip_drift(editor, audio, args.label,
                                 rounds=args.rounds, csv_path=args.csv,
                                 editor_id=args.editor_spec)
    except StereoEditError as exc:
        raise CliError(f"editor error: {exc}", EXIT_ENGINE)
    for i, value in enumerate(result.lsd_per_round, 1):
        print(f"round {i}: lsd {value:.9g}")
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


def _merge_config(args) -> None:
    if not args.config:
        return
    data = _load_config_file(args.config)
    for key, value in data.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the config file may set log_level, so merge it before reading that
        _merge_config(args)
        level = (args.log_level or "warning").upper()
        logging.basicConfig(level=getattr(logging, level, logging.WARNING))
        return args.func(args)
    except OSError as exc:  # any failed read or write not reported above
        error, code = exc, EXIT_IO
    except (CliError, StereoEditError) as exc:
        error, code = exc, getattr(exc, "exit_code", EXIT_ENGINE)
    if args.log_level == "json":
        print(json.dumps({"error": str(error), "exit_code": code}),
              file=sys.stderr)
    else:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
