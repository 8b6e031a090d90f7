import json
import math

import numpy as np
import pytest

from qpjumps import io
from qpjumps.analysis import StateEstimate, log_histogram, poisson_prediction
from qpjumps.core import validate_config
from qpjumps.jumpsim import _BLOCK, IQRecord, TruthTrace


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
        assert np.array_equal(back.i, record.i)
        assert np.array_equal(back.q, record.q)

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
        back = io.read_iq(path)
        assert np.array_equal(back.i, record.i)
        assert np.array_equal(back.q, record.q)

    def test_record_without_q_is_refused_before_any_file(self, tmp_path):
        record = IQRecord(t_meas=5e-6, i=np.zeros(10), q=None)
        path = tmp_path / "r.iq"
        with pytest.raises(ValueError, match=str(path)):
            io.write_iq(path, record)
        assert list(tmp_path.iterdir()) == []

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
        truth = TruthTrace(
            duration=1.0,
            times=np.array([0.0, 0.25, 0.5]),
            states=np.array([0, 1, 1], dtype=np.uint8),
            counts=np.array([2, 2, 3], dtype=np.int64),
        )
        path = tmp_path / "t.csv"
        io.write_truth_csv(path, truth)
        lines = path.read_text().splitlines()
        assert lines[0] == "time_s,state,N"
        assert lines[1] == "0,g,2"
        assert lines[2] == "0.25,e,2"
        assert lines[3] == "0.5,e,3"

    def test_qp_trace_csv(self, tmp_path):
        # qubit flips (0.1, 0.3) leave N alone and are dropped
        truth = TruthTrace(
            duration=1.0,
            times=np.array([0.0, 0.1, 0.2, 0.3, 0.4]),
            states=np.array([0, 1, 1, 0, 0], dtype=np.uint8),
            counts=np.array([3, 3, 5, 5, 4], dtype=np.int64),
        )
        path = tmp_path / "qp.csv"
        io.write_qp_trace_csv(path, truth)
        assert path.read_text().splitlines() == ["time_s,N", "0,3", "0.2,5", "0.4,4"]

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
            io.write_states_csv(path, est)
            assert path.read_text().splitlines() == ["start_s,state,samples"] + rows


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

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        io.atomic_write_text(tmp_path / "out.txt", "hello")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
