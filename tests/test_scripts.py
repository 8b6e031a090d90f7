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
        "ab43092dac8000f7b28a3682913a87cf4cfb42f68e957adfdb8ad6bb8bb77208",
    "field-cool/example_noisy_g.csv":
        "982f3dd6ed3f9ad814ef0d3f446faab59039e38facc3ee0260241078db5939d0",
    "field-cool/example_quiet_e.csv":
        "a699a99822e39f7cdf122b69c534dd1af589ec38aa2ede265703180fb0b4a0ef",
    "field-cool/example_quiet_g.csv":
        "977557e933c29ea813ad93b2d3d686730b37dddf3ec7d2c92f09499c8afed646",
    "field-cool/report.csv":
        "f10395b8534886a2460ae64ba2762f7787dcff618773076275c6733f1a34ce99",
    "field-cool/summary.csv":
        "6896c1d9c3401680cd2c733d790a050d9d3b43f1b2919839b7e9b063a5298768",
    "psd/series.csv":
        "cca500df869621af3af1fd0ab708efe08ce7ef88ffe5f5c26ee12eea2b3e32f9",
    "qp-pulses/example_noisy_e.csv":
        "021731184a1fb874e30ed78d63a288307a68f22523e46948007c1aed50718b8e",
    "qp-pulses/example_noisy_g.csv":
        "9648bcd0fde62033a3eaed2aaccdd6e8f85af22d82c093cea8449334a7c02562",
    "qp-pulses/example_quiet_e.csv":
        "649feae73198c099e2141c3d99ab496250e04ce9055cb46fbe3105b868d7429b",
    "qp-pulses/example_quiet_g.csv":
        "81eb3db24445bd9fcb22a1fd47c76de74f40c9b995cdea3518a231704bb082c4",
    "qp-pulses/report.csv":
        "5714bb57720f4d82aced786c4996c83e600413faa81e1a615de1988031cc1e87",
    "qp-pulses/summary.csv":
        "05ee451faae654381e1bb08013680e6a5e95983a45d9321799a4ca751b372075",
    "quiet-noisy/example_noisy_e.csv":
        "31608a2ec3d391913d4cf54ac270697fc786a75791b0d8e61710f24787c6539d",
    "quiet-noisy/example_noisy_g.csv":
        "d6e1336ee6c33da636d9aee0a749eb52d838040d5179576662cc4748ce549329",
    "quiet-noisy/example_quiet_e.csv":
        "e48259b83f3811b267f58954d15114c4439c1079fe043aa954b1d6f5b1c1771d",
    "quiet-noisy/example_quiet_g.csv":
        "46678072e1c342e75fe59b5cac6c32429d55326fd1c87b1a1bbd226cf26c02fc",
    "quiet-noisy/report.csv":
        "ecbf92584a4dd2fde8171d0126ca81424be4ee28268c1849f1fe673d194aa06a",
    "quiet-noisy/summary.csv":
        "e014522e7897d86f3223d9995c2a94a110debca5a759e8465b0504b44d890e0c",
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
