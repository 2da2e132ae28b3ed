"""Deterministic stereo audio-scene editing, dataset synthesis, evaluation."""

from .audio import AudioBuffer, SourceClip, read_wav, write_wav
from .catalog import Catalog, build_catalog, retrieve_clip
from .designer import (DesignerConfig, DesignerMode, design_plan_llm,
                       design_plan_template)
from .engine import (Editor, HttpEditorAdapter, OracleEditor,
                     SubprocessEditorAdapter, apply_step, execute_plan)
from .metrics import (RoundTripResult, gcc_mse, gcc_phat_tdoa, lsd,
                      roundtrip_drift)
from .pipeline import (PipelineConfig, PipelineStats, run_pipeline,
                       sample_scene, synthesize_record)
from .plans import (Add, AtomicStep, Change, EditPlan, Extract, Remove,
                    TurnDown, TurnUp, ValidationReport, canonicalize_plan,
                    parse_plan_json, parse_step, serialize_step,
                    validate_plan)
from .spatial import (Direction, EventSpec, Scene, itd_samples, render_scene,
                      spatialize)

__version__ = "0.1.0"
