"""File formats: binary quadrature records, CSV exports, run manifests.

Every CSV goes through one row writer, write_csv: floats with 9
significant digits (_fmt), ints and strings as they are, _BLOCK rows at a
time.  The binary record format (version 2) is little-endian: a fixed
24-byte header, then float32 (I, Q) pairs, 8 B a sample.  Records stream
through this module: write_iq reads its record as consecutive ranges of
_BLOCK samples through blocks(bounds), read_iq
checks a file's header and size and returns an IQFile that reads ranges
on demand, and write_states_csv writes its runs block by block.  A
synthesized record draws the next range while the writer works on one,
so two ranges of I and Q and the pairs buffer, 1.5 MB, are in flight.
Traced peaks at 20 and 320 s of quiet-noisy, after a 2 s run in the same
process: `simulate --emit-truth` 4.2 and 4.8 MiB (with the sampler's
working set and the occupancy's block buffer) and `filter` 1.4 and
1.7 MiB.  `stats` keeps every window's dwells, so its peak grows by about
0.18 B per sample: 2.9, 5.0 and 13.3 MiB at 20, 80 and 320 s.  Every
file is written atomically (temp file + rename) so partially written
outputs never appear under their final name, and the file's directory is
made as the file is: a command that fails before its first file leaves
no output directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as TOOL_VERSION
from .analysis import DwellHistogram, WindowedReport
from .core import ScenarioConfig, serialize_config
from .jumpsim import _BLOCK, IQRecord, _merge, run_starts

IQ_MAGIC = b"QJIQ"
IQ_VERSION = 2
_HEADER = struct.Struct("<4sIdQ")  # magic, version, t_meas, sample count
_PAIR = np.dtype("<f4")  # the dtype of I and Q in a record file
_PAIR_BYTES = 2 * _PAIR.itemsize  # one sample: its I and its Q

STATE_CHARS = ("g", "e")
_STATE_LABELS = np.array(STATE_CHARS)  # a state column's labels, indexed by state


class DataFormatError(ValueError):
    """Raised for malformed binary records or CSV inputs."""


# the one float format of the CSVs and the printed numbers: 9 significant digits
_fmt = "{:.9g}".format


@contextlib.contextmanager
def _atomic_file(path):
    """Binary file handle on a temp file that replaces path on success.

    The file's missing directories are made first; if the write fails,
    those this call made are removed again while they are empty, so a
    failed first file leaves no directory and a later one keeps the
    directory that holds the files before it."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    made = []  # the directories this call makes, deepest first
    parent = os.path.abspath(directory)
    while not os.path.exists(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    os.makedirs(directory, exist_ok=True)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        for made_dir in made:
            try:
                os.rmdir(made_dir)
            except OSError:  # not empty: it holds another writer's file
                break
        raise


def atomic_write_text(path, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# binary quadrature records
# ---------------------------------------------------------------------------

def write_iq(path, record) -> None:
    """Header, then (I, Q) pairs of little-endian float32 (version 2).

    record has t_meas, len() and blocks(bounds), which yields consecutive
    ranges of it as IQRecords: an IQRecord itself, a synthesized record
    with Q or a record file.  It is read in ranges of _BLOCK samples, and
    each range is interleaved into one pairs buffer of that size and
    written, so the writer holds that buffer and one range (a synthesized
    record also draws the next).  A record of float32 samples, as
    synthesized or read, is written as it is; other floats are rounded
    to float32.  The first range is read before any file is made, and a
    record without Q is refused there.
    """
    n = len(record)
    # an empty record gives one empty range, whose Q shows all the same
    bounds = [*range(0, max(n, 1), _BLOCK), n]
    pairs = np.empty(2 * min(max(n, 1), _BLOCK), dtype=_PAIR)
    with contextlib.closing(record.blocks(bounds)) as blocks:
        block = next(blocks)
        if block.q is None:
            raise ValueError(f"{path}: the record has no Q to write")
        with _atomic_file(path) as fh:
            fh.write(_HEADER.pack(IQ_MAGIC, IQ_VERSION, record.t_meas, n))
            while block is not None:
                out = pairs[:2 * len(block)]
                out[0::2] = block.i
                out[1::2] = block.q
                fh.write(out)
                del block  # freed before the range after the next is allocated
                block = next(blocks, None)


@dataclass(frozen=True)
class IQFile:
    """A record file whose header read_iq has checked; its samples stay in
    the file until read(lo, hi) or blocks(bounds) reads a range of them,
    as float32, 8 B a sample of I and Q."""

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
        pairs = np.empty(2 * (hi - lo), dtype=_PAIR)
        with open(self.path, "rb") as fh:
            fh.seek(_HEADER.size + _PAIR_BYTES * lo)
            got = fh.readinto(pairs)
        if got != pairs.nbytes:
            end = _HEADER.size + _PAIR_BYTES * lo + got
            raise DataFormatError(f"{self.path}: payload ended early at offset {end}")
        return IQRecord(t_meas=self.t_meas, i=pairs[0::2], q=pairs[1::2])

    def blocks(self, bounds):
        """Samples bounds[k] to bounds[k + 1] - 1 for each k, read as the
        loop reaches them."""
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            yield self.read(lo, hi)


def read_iq(path) -> IQFile:
    """The record file at path, its header and payload size checked; no
    sample is read until the returned record reads a range.  A file of
    another version, such as a version-1 file of float64 pairs, is
    refused: re-running simulate writes the record again."""
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
            raise DataFormatError(
                f"{path}: unsupported version {version} at offset 4; this reader "
                f"reads version {IQ_VERSION} (float32 pairs): re-run simulate "
                f"to write the record again")
        if t_meas <= 0:
            raise DataFormatError(f"{path}: non-positive sample period at offset 8")
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
    expected = _PAIR_BYTES * count
    if payload != expected:
        raise DataFormatError(
            f"{path}: payload at offset {_HEADER.size} has {payload} bytes, "
            f"expected {expected} for {count} samples"
        )
    return IQFile(path=os.fspath(path), t_meas=t_meas, count=count)


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------

def _cells(column) -> list[str]:
    """A column's values as text: floats with _fmt, ints and strings with
    str.  An array takes one formatter, from its dtype; a list, such as a
    fit report's mixed values, takes one per value."""
    if isinstance(column, np.ndarray):
        return list(map(_fmt if column.dtype.kind == "f" else str, column.tolist()))
    return [_fmt(v) if isinstance(v, float) else str(v) for v in column]


def write_csv(path, header: str, blocks) -> None:
    """The CSV row writer every CSV goes through: the header line, then a
    row per index of each block, a tuple of equal-length columns.

    Rows are formatted and written _BLOCK at a time, column by column, so
    a writer that yields its blocks as it reads them holds one block of
    rows.
    """
    with _atomic_file(path) as fh:
        fh.write(f"{header}\n".encode("utf-8"))
        for columns in blocks:
            for lo in range(0, len(columns[0]), _BLOCK):
                rows = zip(*(_cells(c[lo:lo + _BLOCK]) for c in columns))
                fh.write(("\n".join(map(",".join, rows)) + "\n").encode("utf-8"))


def write_truth_csv(path, layers) -> None:
    """One row per knot of a trajectory, from its consecutive
    SegmentLayers, each merged into knots (jumpsim._merge) as it comes:
    time, qubit state and QP count."""
    write_csv(path, "time_s,state,N",
              ((s.times, _STATE_LABELS[s.states], s.counts)
               for s in (_merge(*segment) for segment in layers)))


def write_qp_trace_csv(path, layers) -> None:
    """QP-count marginal of a trajectory, from its consecutive
    SegmentLayers: a row per QP knot, the initial count at t=0 and then
    each change of N."""
    write_csv(path, "time_s,N", ((s.knot_t, s.knot_n) for s in layers))


def write_ode_csv(path, times, densities) -> None:
    write_csv(path, "time_s,x_qp", [(times, densities)])


def _runs(blocks):
    """The runs of equal states in the StateEstimates of consecutive ranges
    of one record, as blocks of (start time, state, length in samples)
    columns: for each range the runs it closes, then the run left open."""
    # the run still open: its first sample and its state
    start, state = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
    end = 0
    for est in blocks:
        # the open run goes on into the block if its state does
        first = run_starts(est.states, state[0] if len(state) else None)
        starts = np.concatenate((start, end + first))
        states = np.concatenate((state, est.states[first]))
        end += len(est)
        yield starts[:-1] * est.t_meas, _STATE_LABELS[states[:-1]], np.diff(starts)
        start, state, t_meas = starts[-1:], states[-1:], est.t_meas
    if len(start):
        yield start * t_meas, _STATE_LABELS[state], end - start


def write_states_csv(path, blocks) -> None:
    """One row per run of equal states: start time, state, length in samples.

    blocks are the StateEstimates of consecutive ranges of one record from
    its first sample, as experiments.filter_blocks yields them.  A run that
    crosses from one block into the next is one row.  Each block's runs go
    to write_csv once the next run has started, so the writer holds one
    block's runs and the one still open, not the record's.
    """
    write_csv(path, "start_s,state,samples", _runs(blocks))


def write_histogram_csv(path, hist: DwellHistogram, predicted) -> None:
    write_csv(path, "bin_lo_s,bin_hi_s,M,P",
              [(hist.edges[:-1], hist.edges[1:], hist.counts, predicted)])


def write_report_csv(path, report: WindowedReport) -> None:
    write_csv(path, "t_s,tau_g_s,tau_e_s,F,one_minus_F,sigma_z",
              [(report.t_start, report.tau_ground, report.tau_excited,
                report.fidelity_ground, report.one_minus_fidelity, report.sigma_z)])


def write_series_csv(path, times, values, value_name: str = "value") -> None:
    write_csv(path, f"t_s,{value_name}", [(times, values)])


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
    write_csv(path, "key,value", [(list(pairs), list(pairs.values()))])


def write_residuals_csv(path, inputs, model, residuals) -> None:
    write_csv(path, "input,model,residual", [(inputs, model, residuals)])


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
