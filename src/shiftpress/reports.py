"""Persistence of tables and verdicts, plus the run manifest.

Conventions: CSV for tables, JSON for structured verdicts, newline
delimited words for languages. Every payload starts with (or contains)
the configuration digest. Floats are written with repr so values round
trip exactly and repeated runs produce byte-identical files; wall-clock
time lives only in the manifest, never in payloads.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__, gluing, pressure, transfer, verify
from .words import format_word


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    digest: str,
    flags: dict | None = None,
) -> Path:
    path = Path(path)
    lines = [f"# config_digest={digest}"]
    for key in sorted(flags or {}):
        lines.append(f"# {key}={_cell((flags or {})[key])}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    return str(value)


def write_json(path: str | Path, payload: dict, digest: str) -> Path:
    path = Path(path)
    body = dict(_jsonable(payload))
    body["config_digest"] = digest
    path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n")
    return path


def write_words(path: str | Path, lines: Iterable[str]) -> Path:
    """Stream language text to path through a temporary name beside it,
    renamed on success, so a walk that fails part way leaves no file."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w") as fh:
            fh.writelines(lines)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return part.replace(path)


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:  # in blocks: a language file can be large
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# payload builders
# ---------------------------------------------------------------------------

PARTITION_HEADER = ("n", "count", "lnz_lo", "lnz_hi")
BRACKET_HEADER = ("n", "lower", "upper")
GAP_HEADER = (
    "n", "f_declared", "f_empirical",
    "witness_v", "witness_u", "witness_w",
    "status", "coverage",
)
ANCHOR_HEADER = ("k", "epsilon", "n", "score")


def partition_rows(table: pressure.PartitionTable):
    for row in table.rows:
        yield (row.n, row.count, row.lnz_lo, row.lnz_hi)


def bracket_rows(bracket: pressure.PressureBracket):
    for row in bracket.rows:
        lo = None if row.lo == float("-inf") else row.lo
        yield (row.n, lo, row.hi)


def gap_profile_rows(rows: Iterable[gluing.GapRow]):
    for r in rows:
        v, u, w = ("", "", "")
        if r.witness is not None:
            v, u, w = (format_word(x) for x in r.witness)
        yield (r.n, r.f_declared, r.f_empirical, v, u, w, r.status, r.coverage)


def bound_report_payload(rep: verify.BoundReport) -> dict:
    return {
        "check": rep.check,
        "verdict": rep.verdict,
        "margins": [[n, m] for n, m in rep.margins],
        "witnesses": rep.witnesses,
        "extra": rep.extra,
    }


def transfer_payload(model: transfer.TransferModel, pd: transfer.PerronData) -> dict:
    """The transfer model's size and its Perron root, as `pressure` writes
    them to transfer.json and `equilibrium` to equilibrium.json."""
    return {
        "n_state": model.n_state,
        "state_count": model.state_count,
        "lambda": pd.lam,
        "ln_lambda": math.log(pd.lam),
        "residual": pd.residual,
        "iterations": pd.iterations,
    }


def equilibrium_payload(mm: transfer.MarkovMeasure, pd: transfer.PerronData) -> dict:
    model = mm.model
    return {
        **transfer_payload(model, pd),
        "entropy": mm.entropy,
        "phi_integral": mm.phi_integral,
        "identity_gap": mm.identity_gap,
        "stationarity_gap": mm.stationarity_gap,
        "stationary": {
            format_word(label): p for label, p in zip(model.labels, mm.pi)
        },
        "symbol_cylinders": {
            str(s): transfer.cylinder_measure(mm, (s,))
            for s in range(model.spec.alphabet_size)
        },
    }


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


class RunManifest:
    """A run's config digest and command, the package version, wall clock,
    status sections and output sha256s by file name."""

    __slots__ = ("config_digest", "command", "artifact_version", "wall_clock_s", "status",
                 "outputs")

    def __init__(self, config_digest: str, command: str):
        self.config_digest, self.command = config_digest, command
        self.artifact_version, self.wall_clock_s = __version__, 0.0
        self.status, self.outputs = {}, {}

    def record(self, path: str | Path) -> None:
        path = Path(path)
        self.outputs[path.name] = sha256_file(path)

    def payload(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "command": self.command,
            "artifact_version": self.artifact_version,
            "wall_clock_s": self.wall_clock_s,
            "status": _jsonable(self.status),
            "outputs": dict(sorted(self.outputs.items())),
        }


def write_manifest(manifest: RunManifest, out_dir: str | Path) -> Path:
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest.payload(), sort_keys=True, indent=2) + "\n")
    return path
