"""Label-indexed library of mono source clips ingested from disk."""

from __future__ import annotations

import json
import logging
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from .audio import ClipStore, SourceClip
from .errors import CatalogMiss, EmptyCatalog
from .plans import normalize_label

log = logging.getLogger(__name__)

SIDECAR_NAME = "index.jsonl"
JACCARD_THRESHOLD = 0.5

_AUDIO_SUFFIXES = {".wav"}
_SUFFIX_RE = re.compile(r"(ing|ed|es|s)$")


@dataclass(frozen=True)
class Catalog:
    """Map from normalized label to the clip files carrying that label."""

    entries: dict[str, tuple[str, ...]]
    # The clips this object has ingested. A copy or a pickle carries the
    # entries only, so tasks stay small and a run can drop its store; a
    # pool worker's task carries one copy for its whole share of a round.
    _store: ClipStore = field(default_factory=ClipStore, init=False,
                              repr=False, compare=False)

    def __reduce__(self):
        return Catalog, (self.entries,)

    def prepared_clip(self, path, label: str,
                      duration_seconds: float) -> SourceClip:
        """The clip at ``path``, fit to ``duration_seconds`` and
        RMS-normalized, from this catalog's store."""
        return self._store.prepared(path, label, duration_seconds)

    @property
    def labels(self) -> list[str]:
        return sorted(self.entries)

    def __len__(self) -> int:
        return sum(len(paths) for paths in self.entries.values())


def _dir_label(name: str) -> str:
    return normalize_label(name.replace("_", " ").replace("-", " "))


def build_catalog(root) -> Catalog:
    """Index a clip library: label from subdirectory name, optionally
    overridden by a line-delimited JSON sidecar of {path, label} rows."""
    root = Path(root)
    if not root.is_dir():
        raise EmptyCatalog(f"catalog root does not exist: {root}")

    overrides: dict[str, str] = {}
    sidecar = root / SIDECAR_NAME
    if sidecar.is_file():
        for line_no, line in enumerate(sidecar.read_bytes().splitlines(), 1):
            if not line.strip():
                continue
            try:  # decode and parse errors are ValueErrors; deep nesting recurses
                row = json.loads(line.decode("utf-8"))
                overrides[str((root / row["path"]).resolve())] = \
                    normalize_label(row["label"])
            except (AttributeError, KeyError, RecursionError, ValueError,
                    TypeError) as exc:
                log.warning("sidecar %s line %d skipped: %s", sidecar, line_no, exc)

    entries: dict[str, list[str]] = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file() or path.suffix.lower() not in _AUDIO_SUFFIXES:
            if path.is_file() and path != sidecar:
                log.warning("skipping non-audio file %s", path)
            continue
        label = overrides.get(str(path.resolve()))
        if label is None:
            if path.parent == root:
                log.warning("skipping %s: no label directory and no sidecar entry", path)
                continue
            label = _dir_label(path.parent.name)
        if not label:
            log.warning("skipping %s: empty label", path)
            continue
        entries.setdefault(label, []).append(str(path))

    if not entries:
        raise EmptyCatalog(f"no ingestible audio under {root}")
    return Catalog(entries={k: tuple(v) for k, v in entries.items()})


def _tokens(label: str) -> frozenset[str]:
    # light stemming so "rooster crowing" matches a "rooster crow" entry
    return frozenset(_SUFFIX_RE.sub("", t) if len(_SUFFIX_RE.sub("", t)) >= 3 else t
                     for t in normalize_label(label).split())


def token_jaccard(a: str, b: str) -> float:
    ta, tb = _tokens(a), _tokens(b)
    if not ta or not tb:
        return 0.0
    return len(ta & tb) / len(ta | tb)


def resolve_label(catalog: Catalog, label: str) -> str:
    """Map a requested label onto a catalog label (exact, then fuzzy)."""
    key = normalize_label(label)
    if key in catalog.entries:
        return key
    scored = sorted(((token_jaccard(key, cand), cand) for cand in catalog.entries),
                    key=lambda sc: (-sc[0], sc[1]))
    if scored and scored[0][0] >= JACCARD_THRESHOLD:
        return scored[0][1]
    raise CatalogMiss(f"no catalog label matches {label!r}")


def retrieve_clip(catalog: Catalog, label: str, rng: random.Random,
                  duration_seconds: float) -> SourceClip:
    """Pick one clip for the label, prepared for a scene of
    ``duration_seconds``: exact normalized match first, else the best
    token-Jaccard match at or above the 0.5 threshold."""
    resolved = resolve_label(catalog, label)
    path = rng.choice(catalog.entries[resolved])
    return catalog.prepared_clip(path, resolved, duration_seconds)
