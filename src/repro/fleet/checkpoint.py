"""Crash-tolerant campaign checkpoints.

A campaign at fleet scale runs for minutes to hours; an interruption
must not forfeit completed work.  The engine persists a JSON snapshot
after every ``checkpoint_every`` completed chunks:

* writes are atomic (``tempfile`` + ``os.replace``) so a kill mid-write
  leaves the previous snapshot intact, never a torn file;
* loads are defensive — any unreadable, truncated, or structurally
  wrong file is reported as "no checkpoint", never an exception;
* every snapshot embeds the campaign ``key`` (config + source
  fingerprint hash), so a checkpoint can never resume a *different*
  campaign: mismatches are surfaced to the caller, who decides whether
  that is an error (``resume``) or a fresh start (``run``).
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional

logger = logging.getLogger(__name__)

#: Bump when the checkpoint layout changes; older files are ignored.
#: v2: chunk aggregate payloads carry a per-scheme "phases" section
#: (FFCT phase decomposition) that readers require.
CHECKPOINT_FORMAT_VERSION = 2


def canonical_json(payload: object) -> str:
    """The one JSON encoding used for files, hashing and byte comparisons."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def compose_checkpoint(
    key: str, config: Dict[str, object], n_chunks: int, chunk_texts: Mapping[int, str]
) -> str:
    """The canonical JSON text of a checkpoint, from its chunks' texts.

    ``chunk_texts`` maps each completed chunk to its payload's
    :func:`canonical_json`.  A campaign rewrites its checkpoint as chunks
    complete, so it encodes each chunk once and composes the file from
    those texts instead of re-encoding every completed chunk each time.
    The result is ``canonical_json(state.to_json())`` byte for byte:
    keys are in ``sort_keys`` order, chunk indices sorted as strings.
    """
    chunks = ",".join(
        f'"{index}":{chunk_texts[index]}' for index in sorted(chunk_texts, key=str)
    )
    return (
        f'{{"chunks":{{{chunks}}},"config":{canonical_json(config)},'
        f'"format_version":{CHECKPOINT_FORMAT_VERSION},'
        f'"key":{canonical_json(key)},"n_chunks":{n_chunks}}}'
    )


@dataclass
class CheckpointState:
    """One parsed checkpoint snapshot."""

    key: str
    config: Dict[str, object]
    n_chunks: int
    #: Completed chunk aggregates, keyed by chunk index.
    chunks: Dict[int, Dict[str, object]] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return len(self.chunks) == self.n_chunks

    def to_json(self) -> Dict[str, object]:
        return {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "key": self.key,
            "config": self.config,
            "n_chunks": self.n_chunks,
            "chunks": {str(index): payload for index, payload in sorted(self.chunks.items())},
        }

    def encode(self) -> str:
        """``canonical_json(self.to_json())``, composed chunk by chunk."""
        texts = {index: canonical_json(payload) for index, payload in self.chunks.items()}
        return compose_checkpoint(self.key, self.config, self.n_chunks, texts)


def atomic_write_text(path: Path, text: str) -> bool:
    """Atomically persist ``text`` at ``path``.

    The one durability primitive of the fleet layer — checkpoints and
    telemetry snapshots both go through it: ``tempfile`` in the target
    directory + ``os.replace``, so a reader polling the path only ever
    sees the previous complete file or the new complete file, never a
    torn write.  Failures are logged and reported as ``False``, never
    raised — losing a snapshot must not kill a campaign.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except Exception as exc:
        logger.warning("could not persist %s (%s)", path, exc)
        return False
    return True


def atomic_write_json(path: Path, payload: object) -> bool:
    """Atomically persist ``payload`` as :func:`canonical_json` at ``path``."""
    return atomic_write_text(path, canonical_json(payload))


def save_checkpoint(path: Path, state: CheckpointState) -> None:
    """Atomically persist ``state``; failures are logged, not raised."""
    atomic_write_text(path, state.encode())


def load_checkpoint(path: Path) -> Optional[CheckpointState]:
    """Parse a checkpoint; any defect means ``None``, never a crash."""
    try:
        with path.open("r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return None
    except Exception as exc:
        logger.warning("ignoring unreadable checkpoint %s (%s)", path, exc)
        return None
    state = _parse(payload)
    if state is None:
        logger.warning("ignoring malformed checkpoint %s", path)
    return state


def _parse(payload: object) -> Optional[CheckpointState]:
    if not isinstance(payload, dict):
        return None
    if payload.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        return None
    key = payload.get("key")
    config = payload.get("config")
    n_chunks = payload.get("n_chunks")
    chunks = payload.get("chunks")
    if (
        not isinstance(key, str)
        or not isinstance(config, dict)
        or not isinstance(n_chunks, int)
        or n_chunks < 1
        or not isinstance(chunks, dict)
    ):
        return None
    parsed: Dict[int, Dict[str, object]] = {}
    for index_str, chunk in chunks.items():
        try:
            index = int(index_str)
        except (TypeError, ValueError):
            return None
        if not isinstance(chunk, dict) or not 0 <= index < n_chunks:
            return None
        parsed[index] = chunk
    return CheckpointState(key=key, config=config, n_chunks=n_chunks, chunks=parsed)


__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointState",
    "atomic_write_json",
    "atomic_write_text",
    "canonical_json",
    "compose_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
]
