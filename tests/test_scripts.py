import pathlib
import runpy
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_paper_numbers_writes_csvs(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["reproduce_paper_numbers.py", "--out", str(tmp_path)])
    runpy.run_path(str(SCRIPTS / "reproduce_paper_numbers.py"), run_name="__main__")
    assert "mean array population" in capsys.readouterr().out
    ode = (tmp_path / "recovery_ode.csv").read_text().splitlines()
    qp = (tmp_path / "qp_events.csv").read_text().splitlines()
    assert ode[0] == "time_s,x_qp" and len(ode) == 201
    assert qp[:2] == ["time_s,N", "0,15"] and len(qp) > 2
