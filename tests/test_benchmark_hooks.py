"""The benchmark's tracer (perfbench/spans.py) rebinds library names in
place; a rename or removal in the library breaks the traced benchmark, so
check here that every name it hooks exists and is restored afterwards."""

import importlib.util
import pathlib

import qpjumps.cli
import qpjumps.experiments
import qpjumps.fitting
import qpjumps.io

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_every_name_and_restores_it():
    spans = _load_spans()
    modules = {"experiments": qpjumps.experiments, "cli": qpjumps.cli}
    hooked = [(modules[caller], attr) for caller, attr, _, _ in spans._FUNCTIONS]
    hooked += [(module, "io") for module in modules.values()]
    hooked.append((qpjumps.fitting, "optimize"))
    before = [getattr(owner, attr) for owner, attr in hooked]
    io_before = {name: getattr(qpjumps.io, name) for name in spans._IO_FUNCTIONS}

    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(hooked, before):
            assert getattr(owner, attr) is not original, (owner.__name__, attr)
    finally:
        tracer.uninstall()

    for (owner, attr), original in zip(hooked, before):
        assert getattr(owner, attr) is original, (owner.__name__, attr)
    # the io functions are wrapped only behind a proxy module
    assert {name: getattr(qpjumps.io, name) for name in io_before} == io_before
