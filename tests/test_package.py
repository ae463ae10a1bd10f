import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import rssdloc

ROOT = Path(__file__).resolve().parent.parent


def test_import_does_not_load_scipy():
    # only the receiver uses scipy; it imports it on first use
    src = str(Path(rssdloc.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); import rssdloc; "
         "print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_benchmark_traced_names_resolve():
    # perfbench/spans.py wraps these functions for `run.py --trace 1`
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name in spans.TRACED:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"rssdloc.{module}"), function)), name
