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


# sha256 of every data file of each preset at the --quick size.  The
# byte-determinism contract: a change that moves any of these bytes on
# purpose declares it and updates this table.  Left out are the files that
# rest on the last bits of the FFT (psd.csv) or of the optimizer (psd_fit.csv,
# recovery_fit.csv and both residuals.csv), which may differ between the
# numpy versions that pyproject.toml allows.
QUICK_DIGESTS = {
    "field-cool/example_noisy_e.csv":
        "61239b05240bda291817bd0a628582cc3f10d5b5a9d5180b4244b2947c5b4c13",
    "field-cool/example_noisy_g.csv":
        "0c4b0249cd5313990710595ea325c6d6e2b4d89657e997a944f804e18b0d85d0",
    "field-cool/example_quiet_e.csv":
        "cdd2610db5f41df38000e139a71b1211a26118ddb2741dc01d41f5b18edbac46",
    "field-cool/example_quiet_g.csv":
        "4a5bc83642285945580b1d52395bd0cc5e150c6b9e98c82894b2cd423f45fffd",
    "field-cool/report.csv":
        "7c3e13f7eae2a668d223cb60b6c745aec5fd47e5a50c2296b41b4db61303048d",
    "field-cool/summary.csv":
        "d94e9fedd1f3b2477b507988f0a6ed71aa0d4ec16625051644a375f1b49ece40",
    "psd/series.csv":
        "33c2bab2869077025c768eb696c102825c8df3a7f38cf0931d82aece6e5bc9d6",
    "qp-pulses/example_noisy_e.csv":
        "37f087ffe1582114bc1a2fb271522439c6b3c2623fec51471019e922fbbb861f",
    "qp-pulses/example_noisy_g.csv":
        "077a23f8daba98ea49c64ca73a6cbf439ac4ff4ed053a0248cb89841c11b78e1",
    "qp-pulses/example_quiet_e.csv":
        "ecb2235db911e5066d439df9aa3683c46b15738b192989fc46684e5f231695f9",
    "qp-pulses/example_quiet_g.csv":
        "a047fcd6d0d305a5c6721fadd5feb4f40cb0462ab0255345f4c70b3507d844cb",
    "qp-pulses/report.csv":
        "ad32dd4211a2bac3b63a93998dffd29029e7d240b56199e720cf6e365ee13dcb",
    "qp-pulses/summary.csv":
        "5d0d4d7542ca527fdca4d2574bc280a10cdc4c427f20ef0142bbc479b9f016d9",
    "quiet-noisy/example_noisy_e.csv":
        "f17769d26d0bdf6a13183e83c0269b2def3b8363436461aa6579bba944938e1c",
    "quiet-noisy/example_noisy_g.csv":
        "3a684810f55fbee27e963ef2bbc7650ba5e76c81d8d3cb805e1c4d5c1275f22f",
    "quiet-noisy/example_quiet_e.csv":
        "b970fa0d7a9f8b4c1b7560c7cdd194584e435d128897b81d95af9a9f8c97e24d",
    "quiet-noisy/example_quiet_g.csv":
        "316473f81a4c7407740c6cf38905006a0f2b4843bc942a7c5a44d43708790d43",
    "quiet-noisy/report.csv":
        "72a1f7fe131c272a17c330f4888c673f7680b7349e527620a880a9d17fbc7250",
    "quiet-noisy/summary.csv":
        "ad36aa8daf487f4583a020ebc8005ec8e0587f96472447f6855efef8d1b83c9a",
    "recovery/tau_e.csv":
        "fbcf9c698689a0be218896a8c32e58319a27fd8a2956a70c528c9f347541baa0",
}
NOT_DIGESTED = {"manifest.json", "psd.csv", "psd_fit.csv", "recovery_fit.csv",
                "residuals.csv"}


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
    digests = {f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.glob("*/*")) if path.name not in NOT_DIGESTED}
    assert digests == QUICK_DIGESTS
