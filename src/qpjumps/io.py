"""File formats: binary quadrature records, CSV exports, run manifests.

All floating-point CSV values are written with 9 significant digits; the
binary record format is little-endian with a fixed 24-byte header.  Every
file is written atomically (temp file + rename) so partially written
outputs never appear under their final name.
"""

from __future__ import annotations

import contextlib
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
from .jumpsim import _BLOCK, IQRecord, STATE_EXCITED, TruthTrace, run_starts

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


@contextlib.contextmanager
def _atomic_file(path):
    """Binary file handle on a temp file that replaces path on success."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(data)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# binary quadrature records
# ---------------------------------------------------------------------------

def write_iq(path, record: IQRecord) -> None:
    """Header, then (I, Q) pairs, interleaved and written one block at a time."""
    n = len(record)
    block = np.empty(2 * min(n, _BLOCK), dtype="<f8")
    with _atomic_file(path) as fh:
        fh.write(_HEADER.pack(IQ_MAGIC, IQ_VERSION, record.t_meas, n))
        for lo in range(0, n, _BLOCK):
            pairs = block[:2 * min(_BLOCK, n - lo)]
            pairs[0::2] = record.i[lo:lo + _BLOCK]
            pairs[1::2] = record.q[lo:lo + _BLOCK]
            fh.write(pairs)


def read_iq(path) -> IQRecord:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DataFormatError(
                f"{path}: truncated header at offset {len(header)} "
                f"(need {_HEADER.size} bytes)"
            )
        magic, version, t_meas, count = _HEADER.unpack(header)
        if magic != IQ_MAGIC:
            raise DataFormatError(f"{path}: bad magic at offset 0: {magic!r}")
        if version != IQ_VERSION:
            raise DataFormatError(f"{path}: unsupported version {version} at offset 4")
        if t_meas <= 0:
            raise DataFormatError(f"{path}: non-positive sample period at offset 8")
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        expected = 16 * count
        if payload != expected:
            raise DataFormatError(
                f"{path}: payload at offset {_HEADER.size} has {payload} bytes, "
                f"expected {expected} for {count} samples"
            )
        # de-interleave block by block into the two output arrays
        i, q = np.empty(count), np.empty(count)
        block = np.empty(2 * min(count, _BLOCK), dtype="<f8")
        for lo in range(0, count, _BLOCK):
            pairs = block[:2 * min(_BLOCK, count - lo)]
            if fh.readinto(pairs) != pairs.nbytes:
                raise DataFormatError(
                    f"{path}: payload ended early at offset {_HEADER.size + 16 * lo}")
            i[lo:lo + _BLOCK] = pairs[0::2]
            q[lo:lo + _BLOCK] = pairs[1::2]
    return IQRecord(t_meas=t_meas, i=i, q=q)


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def write_truth_csv(path, truth: TruthTrace) -> None:
    """One row per knot of the trace: time, qubit state and QP count."""
    lines = ["time_s,state,N"]
    lines += [
        f"{_fmt(ti)},{STATE_CHARS[si]},{ni}"
        for ti, si, ni in zip(truth.times, truth.states, truth.counts)
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_qp_trace_csv(path, truth: TruthTrace) -> None:
    """QP-count marginal: the initial count at t=0, then a row per change of N."""
    first = run_starts(truth.counts)
    lines = ["time_s,N"]
    lines += [f"{_fmt(ti)},{ni}" for ti, ni in zip(truth.times[first], truth.counts[first])]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_ode_csv(path, times, densities) -> None:
    lines = ["time_s,x_qp"]
    lines += [f"{_fmt(t)},{_fmt(x)}" for t, x in zip(times, densities)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_states_csv(path, est: StateEstimate) -> None:
    """One row per run of equal states: start time, state, length in samples."""
    first = run_starts(est.states)
    samples = np.diff(first, append=len(est))
    lines = ["start_s,state,samples"]
    lines += [
        f"{_fmt(k * est.t_meas)},{STATE_CHARS[int(s == STATE_EXCITED)]},{n}"
        for k, s, n in zip(first.tolist(), est.states[first].tolist(), samples.tolist())
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

    config_hash: str | None  # None: the command ran without a configuration
    rng_seed: int | None
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    wall_clock_s: float = 0.0
    record_counts: dict = field(default_factory=dict)
    tool_version: str = TOOL_VERSION

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=2) + "\n"


def write_manifest(path, manifest: RunManifest) -> None:
    atomic_write_text(path, manifest.to_json())
