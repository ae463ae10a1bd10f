import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import rssdloc

ROOT = Path(__file__).resolve().parent.parent


def loads_scipy(code):
    """Whether running code after importing rssdloc, in a new process, loads scipy."""
    src = str(Path(rssdloc.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); import rssdloc; {code}; "
         "print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1] == "True"


def test_import_does_not_load_scipy():
    assert not loads_scipy("pass")


def test_receiver_chain_does_not_load_scipy():
    # scipy is a test dependency only, the oracle of the receiver's tests
    assert not loads_scipy(
        "import numpy as np; from rssdloc import receiver as rx; "
        "spec = rx.SignalSpec(); template = rx.transmit_template(spec); "
        "r = rx.generate_signal(spec, 12e-9, -3.0, noise_std=0.1, "
        "rng=np.random.default_rng(0)); "
        "rx.rss_from_correlation(rx.correlate_and_detect(r, template)); "
        "rx.bandpass(r)")


def load_spans():
    """perfbench/spans.py, the tracer behind `perfbench/run.py --trace 1`."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_traced_names_resolve():
    # the tracer wraps these functions by name; a renamed or moved one
    # breaks `--trace 1`, whose only other check is the traced CI smoke
    spans = load_spans()
    assert spans.TRACED
    for name in spans.TRACED:
        module, function = name.split(".")
        fn = getattr(importlib.import_module(f"rssdloc.{module}"), function, None)
        assert callable(fn), name
        # defined there, not only imported there from another module
        assert fn.__module__ == f"rssdloc.{module}", name


def test_benchmark_tracer_sees_every_locate_step():
    # the tracer patches module attributes, so run_trial must look each
    # traced function up by name at call time, in every mode
    from rssdloc import harness
    from rssdloc.scenario import Mode, load_scenario

    spans = load_spans()
    sim = load_scenario(ROOT / "scenarios" / "sim_8x8.yaml",
                        {"waypoint.total_length": 2.0, "region.coarse_step": 0.5})
    fp = load_scenario(ROOT / "scenarios" / "fp_3x3.yaml", {"circular.count": 4})
    tracer = spans.Tracer()
    with tracer.installed():
        for s in (sim.with_mode(Mode.SIM_RSSD), sim, fp.with_mode(Mode.FP_RSSD), fp):
            harness.run_trial(s, 0)
    stats = tracer.layer_stats()
    for name in spans.TRACED:
        if not name.startswith(("receiver.", "scenario.")):
            assert stats[name]["calls"] > 0, name
