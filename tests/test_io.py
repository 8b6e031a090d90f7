import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from qpjumps import io
from qpjumps.analysis import (
    DwellHistogram,
    StateEstimate,
    WindowedReport,
    log_histogram,
    poisson_prediction,
)
from qpjumps.core import MeasurementParams, validate_config
from qpjumps.experiments import SynthesizedRecord
from qpjumps.jumpsim import _BLOCK, IQRecord, SegmentLayers, TruthTrace

from support import trace_layers


def make_record(n=100, seed=0, t_meas=5e-6):
    rng = np.random.default_rng(seed)
    return IQRecord(t_meas=t_meas, i=rng.standard_normal(n), q=rng.standard_normal(n))


class TestIqFormat:
    def test_round_trip_is_exact(self, tmp_path):
        record = make_record(257)
        path = tmp_path / "r.iq"
        io.write_iq(path, record)
        back = io.read_iq(path)
        assert back.t_meas == record.t_meas
        assert len(back) == len(record)
        whole = back.read(0, len(back))
        assert np.array_equal(whole.i, record.i)
        assert np.array_equal(whole.q, record.q)

    def test_rewrite_is_byte_identical(self, tmp_path):
        record = make_record(64)
        a, b = tmp_path / "a.iq", tmp_path / "b.iq"
        io.write_iq(a, record)
        io.write_iq(b, record)
        assert a.read_bytes() == b.read_bytes()

    def test_header_layout(self, tmp_path):
        record = make_record(3, t_meas=1e-5)
        path = tmp_path / "r.iq"
        io.write_iq(path, record)
        blob = path.read_bytes()
        assert blob[:4] == b"QJIQ"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert np.frombuffer(blob[8:16], dtype="<f8")[0] == 1e-5
        assert int.from_bytes(blob[16:24], "little") == 3
        assert len(blob) == 24 + 3 * 16

    @pytest.mark.parametrize("n", [0, 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 17])
    def test_streamed_blocks_equal_whole_record_bytes(self, tmp_path, n):
        record = make_record(n, seed=n)
        path = tmp_path / "r.iq"
        io.write_iq(path, record)
        interleaved = np.empty(2 * n, dtype="<f8")
        interleaved[0::2] = record.i
        interleaved[1::2] = record.q
        header = io._HEADER.pack(io.IQ_MAGIC, io.IQ_VERSION, record.t_meas, n)
        assert path.read_bytes() == header + interleaved.tobytes()
        back = io.read_iq(path).read(0, n)
        assert np.array_equal(back.i, record.i)
        assert np.array_equal(back.q, record.q)

    # write_iq pulls ranges of io's _BLOCK samples, patched here apart from
    # jumpsim's: at 7 they cut the record off jumpsim._BLOCK's edges, at
    # _BLOCK + 1 one range spans two of them
    @pytest.mark.parametrize("stream_block", [7, _BLOCK + 1])
    def test_record_is_pulled_in_ranges(self, tmp_path, monkeypatch, stream_block):
        record = make_record(2 * _BLOCK + 17)
        ranges = []

        class Pulled:
            t_meas = record.t_meas

            def __len__(self):
                return len(record)

            def blocks(self, bounds):
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    ranges.append((lo, hi))
                    yield record.read(lo, hi)

        whole = tmp_path / "whole.iq"
        io.write_iq(whole, record)
        monkeypatch.setattr(io, "_BLOCK", stream_block)
        path = tmp_path / "r.iq"
        io.write_iq(path, Pulled())
        assert path.read_bytes() == whole.read_bytes()
        bounds = list(range(0, len(record), stream_block)) + [len(record)]
        assert ranges == list(zip(bounds[:-1], bounds[1:]))

    # ranges inside one _BLOCK, across one or two of its edges, from 0 and
    # to the end, and empty ones
    @pytest.mark.parametrize("lo, hi", [
        (0, 0), (5, 5), (_BLOCK, _BLOCK), (0, 1), (3, 40), (_BLOCK - 1, _BLOCK + 1),
        (_BLOCK - 3, 2 * _BLOCK + 2), (0, 2 * _BLOCK + 17), (_BLOCK, 2 * _BLOCK + 17),
        (2 * _BLOCK + 16, 2 * _BLOCK + 17),
    ])
    def test_file_ranges_equal_the_written_slices(self, tmp_path, lo, hi):
        record = make_record(2 * _BLOCK + 17, seed=1)
        path = tmp_path / "r.iq"
        io.write_iq(path, record)
        got = io.read_iq(path).read(lo, hi)
        assert got.t_meas == record.t_meas
        assert got.i.tobytes() == record.i[lo:hi].tobytes()
        assert got.q.tobytes() == record.q[lo:hi].tobytes()

    def test_read_iq_reads_only_the_header(self, tmp_path, monkeypatch):
        path = tmp_path / "r.iq"
        io.write_iq(path, make_record(_BLOCK + 1))

        def refused(*args, **kwargs):
            raise AssertionError("a sample was read")

        monkeypatch.setattr(io.IQFile, "read", refused)
        record = io.read_iq(path)
        assert len(record) == _BLOCK + 1 and record.t_meas == 5e-6

    def test_record_without_q_is_refused_before_any_file(self, tmp_path):
        # at every length, n = 0 included, where no range is written; and
        # for a synthesized record without a Q stream as for an IQRecord
        meas = MeasurementParams()
        for n in (0, 10):
            layers = [SegmentLayers(np.zeros(1), np.zeros(1, dtype=np.int64), np.empty(0),
                                    (0, 0), n * meas.t_meas)]
            for record in (IQRecord(t_meas=meas.t_meas, i=np.zeros(n), q=None),
                           SynthesizedRecord(layers, n * meas.t_meas, meas,
                                             np.random.default_rng(0))):
                assert len(record) == n
                path = tmp_path / "r.iq"
                with pytest.raises(ValueError, match=str(path)):
                    io.write_iq(path, record)
                assert list(tmp_path.iterdir()) == []

    def test_record_that_shrinks_after_read_iq_names_the_offset(self, tmp_path):
        # read_iq checked the size; a later read finds the payload cut short
        path = tmp_path / "r.iq"
        written = make_record(_BLOCK + 8)
        io.write_iq(path, written)
        record = io.read_iq(path)
        path.write_bytes(path.read_bytes()[:24 + 16 * (_BLOCK + 3)])
        assert record.read(0, _BLOCK).i.tobytes() == written.i[:_BLOCK].tobytes()
        end = f"{path}: payload ended early at offset {24 + 16 * (_BLOCK + 3)}"
        with pytest.raises(io.DataFormatError, match=end):
            record.read(0, _BLOCK + 8)
        with pytest.raises(io.DataFormatError, match=end):
            record.read(_BLOCK + 2, _BLOCK + 4)

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "r.iq"
        io.write_iq(path, make_record(4))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(io.DataFormatError, match="offset 0"):
            io.read_iq(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "r.iq"
        path.write_bytes(b"QJIQ\x01")
        with pytest.raises(io.DataFormatError,
                           match=r"truncated header at offset 5 \(need 24 bytes\)"):
            io.read_iq(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "r.iq"
        io.write_iq(path, make_record(8))
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(io.DataFormatError,
                           match="offset 24 has 112 bytes, expected 128 for 8 samples"):
            io.read_iq(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "r.iq"
        io.write_iq(path, make_record(4))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(io.DataFormatError, match="offset 4"):
            io.read_iq(path)


class TestCsvWriters:
    def test_truth_csv(self, tmp_path):
        # a flip at 0.25 and a QP knot at 0.5, merged into knots
        layers = SegmentLayers(knot_t=np.array([0.0, 0.5]), knot_n=np.array([2, 3]),
                               flips=np.array([0.25]), before=(2, 0), end=1.0)
        path = tmp_path / "t.csv"
        io.write_truth_csv(path, [layers])
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,state,N"
        assert lines[1] == "0,g,2"
        assert lines[2] == "0.25,e,2"
        assert lines[3] == "0.5,e,3"

    def test_truth_csv_longer_than_a_block_is_pinned(self, tmp_path):
        # 2 _BLOCK + 5 rows of the truth file: two whole blocks of rows and
        # a short one.  The digest was taken when the writer built every
        # row as one string.  Its rows change the state and N at once, as
        # no trajectory's knot does, so they go to the truth file's row
        # writer as columns
        rng = np.random.default_rng(3)
        n = 2 * _BLOCK + 5
        times = np.concatenate(([0.0], np.cumsum(rng.exponential(1e-4, n - 1))))
        states = rng.integers(0, 2, n).astype(np.uint8)
        counts = rng.integers(0, 5000, n)
        path = tmp_path / "t.csv"
        io.write_csv(path, "time_s,state,N", [(times, io._STATE_LABELS[states], counts)])
        blob = path.read_bytes()
        assert blob.count(b"\n") == n + 1
        assert hashlib.sha256(blob).hexdigest() == (
            "80fc6b433dcf8845cbe0ca92d36fff83d4612b8901b22bf878595dd554686d94")
        # a trajectory of such rows, each a flip or a change of N, cut
        # into segments across the blocks: the truth writer gives the same
        # bytes from its layers
        flip = np.diff(states, prepend=states[0]) != 0
        counts = counts[np.maximum.accumulate(np.where(flip, 0, np.arange(n)))]
        truth = TruthTrace(duration=float(times[-1]) + 1e-4, times=times, states=states,
                           counts=counts)
        io.write_truth_csv(path, trace_layers(truth, [3, _BLOCK, _BLOCK + 1, n - 2]))
        want = tmp_path / "want.csv"
        io.write_csv(want, "time_s,state,N", [(times, io._STATE_LABELS[states], counts)])
        assert path.read_bytes() == want.read_bytes()

    def test_qp_trace_csv(self, tmp_path):
        # qubit flips (0.1, 0.3) leave N alone and are not written
        layers = SegmentLayers(knot_t=np.array([0.0, 0.2, 0.4]), knot_n=np.array([3, 5, 4]),
                               flips=np.array([0.1, 0.3]), before=(3, 0), end=1.0)
        path = tmp_path / "qp.csv"
        io.write_qp_trace_csv(path, [layers])
        assert path.read_text().splitlines() == ["time_s,N", "0,3", "0.2,5", "0.4,4"]

    # cut before a flip (1, 3), before a change of N (2, 4), and into
    # one-knot segments
    @pytest.mark.parametrize("cuts", [[1, 3], [2, 4], [1, 2, 3, 4, 5]])
    def test_trajectory_writers_read_segments(self, tmp_path, cuts):
        truth = TruthTrace(duration=1.0, times=np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5]),
                           states=np.array([0, 1, 1, 0, 0, 1], dtype=np.uint8),
                           counts=np.array([3, 3, 5, 5, 4, 4], dtype=np.int64))
        for write in (io.write_truth_csv, io.write_qp_trace_csv):
            write(tmp_path / "whole.csv", trace_layers(truth))
            write(tmp_path / "cut.csv", trace_layers(truth, cuts))
            assert (tmp_path / "cut.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert (tmp_path / "whole.csv").read_text().splitlines() == [
            "time_s,N", "0,3", "0.2,5", "0.4,4"]

    def test_ode_csv(self, tmp_path):
        path = tmp_path / "ode.csv"
        io.write_ode_csv(path, [0.0, 1e-4], [4e-8, 3.5e-8])
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,x_qp"
        assert lines[1] == "0,4e-08"
        assert lines[2] == "0.0001,3.5e-08"

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "s.csv"
        io.write_series_csv(path, [1.0 / 3.0], [math.pi * 1e-7], "v")
        body = path.read_text().splitlines()[1]
        assert body == "0.333333333,3.14159265e-07"

    def test_series_round_trip(self, tmp_path):
        path = tmp_path / "s.csv"
        t = np.array([0.0, 1.0, 2.0])
        v = np.array([0.5, math.nan, 1.5])
        io.write_series_csv(path, t, v, "tau")
        t2, v2 = io.read_series_csv(path)
        assert np.array_equal(t, t2)
        assert v2[0] == 0.5 and math.isnan(v2[1]) and v2[2] == 1.5

    def test_series_reader_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,v\n1.0,x\n")
        with pytest.raises(io.DataFormatError, match="line 2"):
            io.read_series_csv(path)
        path.write_text("justone\n")
        with pytest.raises(io.DataFormatError):
            io.read_series_csv(path)

    def test_histogram_csv(self, tmp_path):
        hist = log_histogram([10e-6, 10e-6, 50e-6], 5e-6)
        predicted = poisson_prediction(hist)
        path = tmp_path / "h.csv"
        io.write_histogram_csv(path, hist, predicted)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lo_s,bin_hi_s,M,P"
        assert len(lines) == len(hist.counts) + 1

    def test_states_csv(self, tmp_path):
        # one row per run: its first sample's time, its state, its length
        path = tmp_path / "st.csv"
        for states, rows in (
            ([0, 1], ["0,g,1", "5e-06,e,1"]),
            ([1, 1, 0, 0, 0, 1, 1], ["0,e,2", "1e-05,g,3", "2.5e-05,e,2"]),
            ([0] * 4, ["0,g,4"]),
        ):
            est = StateEstimate(t_meas=5e-6, states=np.array(states, dtype=np.uint8))
            io.write_states_csv(path, [est])
            assert path.read_text().splitlines() == ["start_s,state,samples"] + rows

    def test_states_csv_joins_runs_across_blocks(self, tmp_path):
        # every way to cut the record into blocks gives the whole record's
        # rows: a run that crosses a cut is one row
        states = np.array([1, 1, 0, 0, 0, 1, 1], dtype=np.uint8)
        path = tmp_path / "st.csv"
        io.write_states_csv(path, [StateEstimate(t_meas=5e-6, states=states)])
        want = path.read_bytes()
        for mask in range(1 << (len(states) - 1)):
            cuts = [k for k in range(1, len(states)) if mask >> (k - 1) & 1]
            blocks = [StateEstimate(t_meas=5e-6, states=part)
                      for part in np.split(states, cuts)]
            io.write_states_csv(path, iter(blocks))
            assert path.read_bytes() == want, cuts

    def test_states_csv_of_no_blocks_is_the_header(self, tmp_path):
        path = tmp_path / "st.csv"
        io.write_states_csv(path, [])
        assert path.read_text() == "start_s,state,samples\n"


# values the row format has to keep: NaN, +-inf, signed zeros, negatives,
# two that round at the ninth digit (one of them up to 3) and 1e300
ODD = np.array([math.nan, math.inf, -math.inf, -2.5e-7, 0.1234567895, 1.0 / 3.0,
                0.0, -0.0, 2.99999999996, 1e300])
BIG = 1_234_567_891  # over 1e9: str writes 1234567891, the float format 1.23456789e+09


def _pinned_qp_trace(path):
    io.write_qp_trace_csv(path, [SegmentLayers(
        knot_t=np.array([0.0, 0.2, 0.4, 0.5]), knot_n=np.array([3, BIG, 4, 7]),
        flips=np.array([0.1, 0.3, 0.5]), before=(3, 0), end=1.0)])


def _pinned_histogram(path):
    hist = DwellHistogram(edges=np.array([1e-6, 2.1e-6, 4.4e-6, 9.999999995e-6, 2e-5]),
                          log_width=0.3, counts=np.array([0.0, 3.0, float(BIG), 5.0]),
                          total=float(BIG + 8), tau_mean=1e-5)
    io.write_histogram_csv(path, hist, np.array([math.nan, -1.5, 1.23456789e9, math.inf]))


def _pinned_report(path):
    n = len(ODD)
    io.write_report_csv(path, WindowedReport(
        window=0.5, t_start=np.arange(n) * 0.5, tau_ground=ODD, tau_excited=-ODD,
        fidelity_ground=np.array([0.5, math.nan, 1.0, 0.9999999996, -0.2, 2.0,
                                  math.inf, 0.3, 0.1234567895, 0.0]),
        sigma_z=np.linspace(-1, 1, n), dwells=[]))


def _pinned_states(path):
    # runs of 1 to 8 samples, cut into blocks so that runs cross the cuts;
    # t_meas has ten significant digits, so the start times round
    rng = np.random.default_rng(11)
    states = np.repeat(rng.integers(0, 2, 400).astype(np.uint8), rng.integers(1, 9, 400))
    cuts = [1, 2, 50, 51, 300, 777, len(states) - 1]
    io.write_states_csv(path, [StateEstimate(t_meas=5.00000001e-6, states=part)
                               for part in np.split(states, cuts)])


class TestWriterPins:
    # each digest was taken when every writer joined its own rows
    @pytest.mark.parametrize("write, digest", [
        (_pinned_qp_trace,
         "2eac7191b1e412ef41d285d6ed8888a078715252ec1601fc67feb217077e1998"),
        (lambda path: io.write_ode_csv(path, ODD, -ODD[::-1]),
         "c095c4dccb740ad8fb27612d1329961b913912fdc880ce65d53e4aa9a44faeb6"),
        (_pinned_histogram,
         "54cdccc7d4b4d1c2657d260d40006c39d4417a6b111f453833fe502cfa3e89f3"),
        (_pinned_report,
         "7a2c00cd10399026721339f2c8647415bab469e4098c97e8130ce4a72c2019c1"),
        (lambda path: io.write_series_csv(path, ODD, 3 * ODD[::-1], "tau_g_s"),
         "9afc615846c9e37b2916a9cd0fa77ac231e4d5bf3ee3ba6a26cc64e8891bc403"),
        (lambda path: io.write_fit_report_csv(path, {
            "a": 0.1234567895, "nan": math.nan, "inf": -math.inf, "neg": -3.0,
            "big": BIG, "count": 7, "status": "converged"}),
         "9b42de4d6324ebf2a4925149c419bde2055403c6092c81d6f5d736dc3eae0090"),
        (lambda path: io.write_residuals_csv(path, ODD, ODD[::-1], -ODD),
         "4db39a6564bc059a3036e7ce2d4fbeef976dfdcb972e8f6eaf658bfb4e012937"),
        (_pinned_states,
         "2ba390ff79ac9e25673024502259ff6dda069a5cf9df5c1b3e7a9c1cd6cbf44b"),
    ], ids=["qp_trace", "ode", "histogram", "report", "series", "fit_report",
            "residuals", "states"])
    def test_bytes_are_pinned(self, tmp_path, write, digest):
        path = tmp_path / "out.csv"
        write(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestManifest:
    def test_hash_matches_recomputation(self):
        config = validate_config("rng_seed = 5\nduration = 2\n")
        h1 = io.config_hash(config)
        h2 = io.config_hash(validate_config("duration = 2\nrng_seed = 5\n"))
        assert h1 == h2
        assert len(h1) == 64

    def test_manifest_json_stable(self, tmp_path):
        m = io.RunManifest(config_hash="ab", rng_seed=3, outputs=["x.csv"],
                           wall_clock_s=1.25, record_counts={"events": 7})
        path = tmp_path / "manifest.json"
        io.write_manifest(path, m)
        data = json.loads(path.read_text())
        assert data["config_hash"] == "ab"
        assert data["record_counts"] == {"events": 7}
        assert data["tool_version"] == io.TOOL_VERSION

    def test_tool_version_is_the_project_version(self):
        # read by hand: tomllib is not in Python 3.10
        pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
        section, version = None, None
        for line in pyproject.read_text(encoding="utf-8").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                section = line
            elif section == "[project]" and line.partition("=")[0].strip() == "version":
                version = line.partition("=")[2].strip().strip('"')
        assert version is not None
        assert io.TOOL_VERSION == version

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        io.atomic_write_text(tmp_path / "out.txt", "hello")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_removes_only_the_directories_it_made(self, tmp_path):
        def failing(rows):
            yield rows
            raise OSError("write failed")

        rows = [(np.arange(3.0),)]
        # the first file of a new nested directory: nothing is left
        with pytest.raises(OSError, match="write failed"):
            io.write_csv(tmp_path / "a" / "b" / "x.csv", "x", failing(rows[0]))
        assert list(tmp_path.iterdir()) == []
        # a later file keeps the directory that holds the ones before it,
        # and drops the empty one it made below
        io.write_csv(tmp_path / "a" / "x.csv", "x", rows)
        with pytest.raises(OSError, match="write failed"):
            io.write_csv(tmp_path / "a" / "b" / "y.csv", "x", failing(rows[0]))
        assert [p.name for p in (tmp_path / "a").iterdir()] == ["x.csv"]
