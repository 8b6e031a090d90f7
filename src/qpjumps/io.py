"""File formats: binary quadrature records, CSV exports, run manifests.

All floating-point CSV values are written with 9 significant digits; the
binary record format is little-endian with a fixed 24-byte header.  Every
file is written atomically (temp file + rename) so partially written
outputs never appear under their final name.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .analysis import DwellHistogram, StateEstimate, WindowedReport
from .core import ScenarioConfig, serialize_config
from .jumpsim import IQRecord, STATE_EXCITED, TruthTrace

try:
    TOOL_VERSION = importlib.metadata.version("qpjumps")
except importlib.metadata.PackageNotFoundError:  # running from a source tree
    TOOL_VERSION = "0.0.0+local"

IQ_MAGIC = b"QJIQ"
IQ_VERSION = 1
_HEADER = struct.Struct("<4sIdQ")  # magic, version, t_meas, sample count

STATE_CHARS = ("g", "e")


class DataFormatError(ValueError):
    """Raised for malformed binary records or CSV inputs."""


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# binary quadrature records
# ---------------------------------------------------------------------------

def write_iq(path, record: IQRecord) -> None:
    header = _HEADER.pack(IQ_MAGIC, IQ_VERSION, record.t_meas, len(record))
    interleaved = np.empty(2 * len(record), dtype="<f8")
    interleaved[0::2] = record.i
    interleaved[1::2] = record.q
    atomic_write_bytes(path, header + interleaved.tobytes())


def read_iq(path) -> IQRecord:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise DataFormatError(
            f"{path}: truncated header at offset {len(blob)} (need {_HEADER.size} bytes)"
        )
    magic, version, t_meas, count = _HEADER.unpack_from(blob, 0)
    if magic != IQ_MAGIC:
        raise DataFormatError(f"{path}: bad magic at offset 0: {magic!r}")
    if version != IQ_VERSION:
        raise DataFormatError(f"{path}: unsupported version {version} at offset 4")
    if t_meas <= 0:
        raise DataFormatError(f"{path}: non-positive sample period at offset 8")
    payload = blob[_HEADER.size:]
    expected = 16 * count
    if len(payload) != expected:
        raise DataFormatError(
            f"{path}: payload at offset {_HEADER.size} has {len(payload)} bytes, "
            f"expected {expected} for {count} samples"
        )
    data = np.frombuffer(payload, dtype="<f8")
    return IQRecord(t_meas=t_meas, i=data[0::2].copy(), q=data[1::2].copy())


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def write_truth_csv(path, truth: TruthTrace) -> None:
    t, s, n = truth.knots()
    lines = ["time_s,state,N"]
    lines += [f"{_fmt(ti)},{STATE_CHARS[si]},{ni}" for ti, si, ni in zip(t, s, n)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_qp_trace_csv(path, truth: TruthTrace) -> None:
    """QP-count marginal: the initial count at t=0, then a row per change of N."""
    t, _, n = truth.knots()
    changed = np.concatenate(([True], np.diff(n) != 0))
    lines = ["time_s,N"]
    lines += [f"{_fmt(ti)},{ni}" for ti, ni in zip(t[changed], n[changed])]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_ode_csv(path, times, densities) -> None:
    lines = ["time_s,x_qp"]
    lines += [f"{_fmt(t)},{_fmt(x)}" for t, x in zip(times, densities)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_states_csv(path, est: StateEstimate) -> None:
    lines = ["time_s,state"]
    lines += [
        f"{_fmt(k * est.t_meas)},{STATE_CHARS[int(s == STATE_EXCITED)]}"
        for k, s in enumerate(est.states)
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_histogram_csv(path, hist: DwellHistogram, predicted) -> None:
    lines = ["bin_lo_s,bin_hi_s,M,P"]
    lines += [
        f"{_fmt(lo)},{_fmt(hi)},{_fmt(m)},{_fmt(p)}"
        for lo, hi, m, p in zip(hist.edges[:-1], hist.edges[1:], hist.counts, predicted)
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_report_csv(path, report: WindowedReport) -> None:
    lines = ["t_s,tau_g_s,tau_e_s,F,one_minus_F,sigma_z"]
    for i in range(len(report)):
        f = report.fidelity_ground[i]
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    report.t_start[i], report.tau_ground[i], report.tau_excited[i],
                    f, 1.0 - f, report.sigma_z[i],
                )
            )
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_series_csv(path, times, values, value_name: str = "value") -> None:
    lines = [f"t_s,{value_name}"]
    lines += [f"{_fmt(t)},{_fmt(v)}" for t, v in zip(times, values)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Two-column CSV with a header line; NaN markers allowed."""
    times, values = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if "," not in header:
            raise DataFormatError(f"{path}: missing CSV header")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise DataFormatError(f"{path}: line {lineno}: expected two columns")
            try:
                times.append(float(parts[0]))
                values.append(float(parts[1]))
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: non-numeric value"
                ) from None
    if not times:
        raise DataFormatError(f"{path}: no data rows")
    return np.asarray(times), np.asarray(values)


def write_fit_report_csv(path, pairs: dict) -> None:
    lines = ["key,value"]
    for key, value in pairs.items():
        text = _fmt(value) if isinstance(value, float) else str(value)
        lines.append(f"{key},{text}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_residuals_csv(path, inputs, model, residuals) -> None:
    lines = ["input,model,residual"]
    lines += [
        f"{_fmt(a)},{_fmt(b)},{_fmt(c)}" for a, b, c in zip(inputs, model, residuals)
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------

def config_hash(config: ScenarioConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    """Provenance record written alongside every output set."""

    config_hash: str
    rng_seed: int
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    wall_clock_s: float = 0.0
    record_counts: dict = field(default_factory=dict)
    tool_version: str = TOOL_VERSION

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=2) + "\n"


def write_manifest(path, manifest: RunManifest) -> None:
    atomic_write_text(path, manifest.to_json())
