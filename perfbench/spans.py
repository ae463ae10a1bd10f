"""In-memory span tracing of rssdloc's public functions, applied from outside.

The package has no instrumentation of its own, so the tracer replaces each
traced function with a wrapper under every module attribute that refers to
it.  That covers the name each caller looks up: ``rssdloc.harness`` imports
``solve_rssd`` with ``from .solver import``, so patching ``rssdloc.solver``
alone would miss the calls that matter.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List

# "<module>.<function>" of every traced function, module relative to rssdloc.
TRACED = (
    "scenario.load_scenario",
    "harness.scenario_db",
    "harness.run_trial",
    "fingerprint.build_db",
    "fingerprint.coarse_estimate",
    "fingerprint.refine_with_tdoa",
    "geometry.project_onto_hyperbola",
    "geometry.golden_section",
    "channel.simulate_measurements",
    "channel.simulate_rss",
    "solver.solve_rssd",
    "solver.solve_rssd_tdoa",
    "mobility.generate_track",
    "mobility.apply_orientation",
    "mobility.update_orientation",
    "mobility.misorientation",
    "receiver.transmit_template",
    "receiver.generate_signal",
    "receiver.correlate_and_detect",
    "receiver.bandpass",
    "receiver.rss_from_correlation",
)

# The benchmark's own root span around each trial; its self time is the part
# of a trial that no traced function covers.
TRIAL_SPAN = "bench.trial"


class Tracer:
    """Records finished spans as (id, name, start, end, parent id, raised).

    Ids count up in the order spans start; a span is appended when it ends.
    Records are tuples of atomic values, so the garbage collector stops
    tracking them and a long run does not slow its collections.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn, recording a span named name around each call."""
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            raised = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, raised))

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function in all loaded rssdloc modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rssdloc" or n.startswith("rssdloc."))]
        patches = []
        try:
            for target in TRACED:
                mod_name, fn_name = target.split(".")
                orig = getattr(importlib.import_module(f"rssdloc.{mod_name}"), fn_name)
                wrapper = self.wrap(target, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            patches.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(patches):
                setattr(mod, attr, orig)

    def layer_stats(self) -> Dict[str, Dict[str, float]]:
        """calls, self_s and errors per span name, for every traced name."""
        child_time = [0.0] * len(self.spans)  # ids are 0 .. len - 1
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {name: {"calls": 0, "self_s": 0.0, "errors": 0}
                 for name in TRACED + (TRIAL_SPAN,)}
        for sid, name, start, end, _, raised in self.spans:
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += (end - start) - child_time[sid]
            s["errors"] += int(raised)
        return stats
