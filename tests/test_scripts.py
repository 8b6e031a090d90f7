import hashlib
import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_paper_numbers_writes_csvs(tmp_path, monkeypatch, capsys):
    # the writers make the nested directory the script is pointed at
    out = tmp_path / "a" / "b"
    monkeypatch.setattr(sys, "argv", ["reproduce_paper_numbers.py", "--out", str(out)])
    runpy.run_path(str(SCRIPTS / "reproduce_paper_numbers.py"), run_name="__main__")
    assert "mean array population" in capsys.readouterr().out
    ode = (out / "recovery_ode.csv").read_text().splitlines()
    qp = (out / "qp_events.csv").read_text().splitlines()
    assert ode[0] == "time_s,x_qp" and len(ode) == 201
    assert qp[:2] == ["time_s,N", "0,15"] and len(qp) > 2
    assert hashlib.sha256((out / "qp_events.csv").read_bytes()).hexdigest() == (
        "97d4792993a657ebdf931a56fd5f88010ed423042c7b0322408e447f7625466b")


def test_run_all_experiments_quick(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["run_all_experiments.py", "--quick",
                                      "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(SCRIPTS / "run_all_experiments.py"), run_name="__main__")
    assert exit_.value.code == 0
    presets = ["field-cool", "psd", "qp-pulses", "quiet-noisy", "recovery"]
    assert sorted(p.name for p in tmp_path.iterdir()) == presets
    for name in presets:
        assert (tmp_path / name / "manifest.json").is_file()
