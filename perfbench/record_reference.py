"""Record the reference outputs of each workload for a range of seeds.

    python3 perfbench/record_reference.py --seeds 0-31 [--workload sim_2d ...]

For every seed it runs the workload's first ``min_trials`` trials, untimed,
and stores in perfbench/reference.json their pooled RMSE, the number of
estimates outside the region and the farthest of them from it.  run.py
checks each run against these.  Re-record only when a change is meant to
move the estimates, and say so in that change.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)


def _seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=_seed_range, default=_seed_range("0-31"))
    p.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS),
                   choices=list(workloads.WORKLOADS))
    args = p.parse_args(argv)

    path = BENCH_DIR / "reference.json"
    ref = json.loads(path.read_text()) if path.is_file() else {}
    for name in args.workload:
        spec = workloads.WORKLOADS[name]
        table = ref.setdefault(name, {})
        for seed in args.seeds:
            run = spec.make(ROOT, seed)
            outcomes = [run.check(run.trial(k)) for k in range(spec.min_trials)]
            rec = table[str(seed)] = workloads.reference_record(outcomes)
            print(f"{name} seed {seed}: rmse_m {rec['rmse_m']:.6g} m, "
                  f"{rec['outside']} outside by up to {rec['excursion_m']:.3g} m",
                  flush=True)
        values = [table[str(s)]["rmse_m"] for s in args.seeds]
        if len(values) >= 2:
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"{name}: median {med:.6g} m, quartile spread {(q3 - q1) / med:.3f}")
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
