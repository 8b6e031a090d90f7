"""File formats: binary quadrature records, CSV exports, run manifests.

All floating-point CSV values are written with 9 significant digits; the
binary record format is little-endian with a fixed 24-byte header.  Records
stream through this module: write_iq reads its record as consecutive
ranges through blocks(bounds), read_iq checks a file's header and size
and returns an IQFile that reads ranges on demand, and write_states_csv
and write_truth_csv write their rows block by block.  Every file is
written atomically (temp file + rename) so partially written outputs never
appear under their final name.
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

from .analysis import DwellHistogram, WindowedReport
from .core import ScenarioConfig, serialize_config
from .jumpsim import (
    _BLOCK,
    IQRecord,
    STATE_EXCITED,
    STREAM_BLOCK,
    TruthTrace,
    run_starts,
)

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

def _write_pairs(fh, block: IQRecord, pairs: np.ndarray) -> None:
    """Write a block's (I, Q) pairs, interleaved through the pairs buffer
    one bufferful at a time."""
    room = len(pairs) // 2
    for lo in range(0, len(block), room):
        out = pairs[:2 * min(room, len(block) - lo)]
        out[0::2] = block.i[lo:lo + room]
        out[1::2] = block.q[lo:lo + room]
        fh.write(out)


def write_iq(path, record) -> None:
    """Header, then (I, Q) pairs.

    record has t_meas, len() and blocks(bounds), which yields consecutive
    ranges of it as IQRecords: an IQRecord itself, a synthesized record
    with Q or a record file.  It is read in ranges of STREAM_BLOCK
    samples, and each range is interleaved _BLOCK pairs at a time, so the
    writer holds one range (a synthesized record also draws the next).
    The first range is read before any file is made, and a record without
    Q is refused there.
    """
    n = len(record)
    # an empty record gives one empty range, whose Q shows all the same
    bounds = [*range(0, max(n, 1), STREAM_BLOCK), n]
    pairs = np.empty(2 * min(max(n, 1), _BLOCK), dtype="<f8")
    with contextlib.closing(record.blocks(bounds)) as blocks:
        block = next(blocks)
        if block.q is None:
            raise ValueError(f"{path}: the record has no Q to write")
        with _atomic_file(path) as fh:
            fh.write(_HEADER.pack(IQ_MAGIC, IQ_VERSION, record.t_meas, n))
            while block is not None:
                _write_pairs(fh, block, pairs)
                del block  # freed before the range after the next is allocated
                block = next(blocks, None)


@dataclass(frozen=True)
class IQFile:
    """A record file whose header read_iq has checked; its samples stay in
    the file until read(lo, hi) or blocks(bounds) reads a range of them."""

    path: str
    t_meas: float
    count: int

    def __len__(self) -> int:
        return self.count

    def read(self, lo: int, hi: int) -> IQRecord:
        """Samples lo to hi - 1, their pairs read with one readinto: I and Q
        are strided views of that buffer, and nothing is copied.

        The file is opened for each range, so one that has shrunk since
        read_iq raises DataFormatError naming the offset where it now ends.
        """
        pairs = np.empty(2 * (hi - lo), dtype="<f8")
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER.size + 16 * lo)
            got = fh.readinto(pairs)
        if got != pairs.nbytes:
            end = _HEADER.size + 16 * lo + got
            raise DataFormatError(f"{self.path}: payload ended early at offset {end}")
        return IQRecord(t_meas=self.t_meas, i=pairs[0::2], q=pairs[1::2])

    def blocks(self, bounds):
        """Samples bounds[k] to bounds[k + 1] - 1 for each k, read as the
        loop reaches them."""
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield self.read(lo, hi)


def read_iq(path) -> IQFile:
    """The record file at path, its header and payload size checked; no
    sample is read until the returned record reads a range."""
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
    return IQFile(path=os.fspath(path), t_meas=t_meas, count=count)


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def write_truth_csv(path, truth: TruthTrace) -> None:
    """One row per knot of the trace: time, qubit state and QP count,
    written _BLOCK knots at a time."""
    with _atomic_file(path) as fh:
        fh.write(b"time_s,state,N\n")
        for lo in range(0, len(truth.times), _BLOCK):
            knots = (truth.times[lo:lo + _BLOCK].tolist(),
                     truth.states[lo:lo + _BLOCK].tolist(),
                     truth.counts[lo:lo + _BLOCK].tolist())
            fh.write("".join(f"{_fmt(ti)},{STATE_CHARS[si]},{ni}\n"
                             for ti, si, ni in zip(*knots)).encode("utf-8"))


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


def _run_rows(starts, states, samples, t_meas: float) -> bytes:
    return "".join(
        f"{_fmt(k * t_meas)},{STATE_CHARS[int(s == STATE_EXCITED)]},{n}\n"
        for k, s, n in zip(starts.tolist(), states.tolist(), samples.tolist())
    ).encode("utf-8")


def write_states_csv(path, blocks) -> None:
    """One row per run of equal states: start time, state, length in samples.

    blocks are the StateEstimates of consecutive ranges of one record from
    its first sample, as experiments.filter_blocks yields them.  A run that
    crosses from one block into the next is one row.  Each block's runs are
    written once the next run has started, so the writer holds one block's
    runs and the one still open, not the record's.
    """
    # the run still open: its first sample and its state
    start, state = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
    end = 0
    with _atomic_file(path) as fh:
        fh.write(b"start_s,state,samples\n")
        for est in blocks:
            first = run_starts(est.states)
            if len(state) and est.states[0] == state[0]:
                first = first[1:]  # the open run goes on
            starts = np.concatenate((start, end + first))
            states = np.concatenate((state, est.states[first]))
            end += len(est)
            fh.write(_run_rows(starts[:-1], states[:-1], np.diff(starts), est.t_meas))
            start, state, t_meas = starts[-1:], states[-1:], est.t_meas
        if len(start):
            fh.write(_run_rows(start, state, end - start, t_meas))


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
