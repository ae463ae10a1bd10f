"""Dump and compare the epoch records of the six acceptance campaigns.

The acceptance campaigns (tests/test_acceptance.py) run sim_8x8 under each
antenna model (DIRECTIONAL, OMNI) and each solver mode (SIM_RSSD,
SIM_RSSD_TDOA) on paired trial seeds, and fp_3x3 in each fingerprint mode
(FP_RSSD, FP_RSSD_TDOA) against one database.  `dump` runs them for a seed
and a trial count with the rssdloc package found on the import path, and
writes every epoch's estimate, bit for bit, and each campaign's
tdoa_fallbacks.
`compare` reads two dumps and prints, per campaign, how many records moved,
the largest move in metres, and whether tdoa_fallbacks agree.

    PYTHONPATH=src python scripts/campaign_records.py dump --seed 1 --trials 100 new.json
    PYTHONPATH=<other tree>/src python scripts/campaign_records.py dump --seed 1 --trials 100 old.json
    python scripts/campaign_records.py compare old.json new.json

`compare` exits with status 1 when the dumps do not hold the same
campaigns and epochs, and 0 otherwise, moved records or not.
"""

import argparse
import json
import math
import sys
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def dump(seed: int, trials: int) -> dict:
    """{campaign: {"records": [[trial, epoch, x, y], ...], "tdoa_fallbacks": n}},
    x and y as float.hex strings."""
    from rssdloc.harness import run_trial, scenario_db
    from rssdloc.scenario import Mode, load_scenario
    from rssdloc.solver import AntennaModel

    def campaign(s, db=None) -> dict:
        reports = [run_trial(s, k, db) for k in range(trials)]
        return {"records": [[k, e, r.estimate.x.hex(), r.estimate.y.hex()]
                            for k, rep in enumerate(reports)
                            for e, r in enumerate(rep.records)],
                "tdoa_fallbacks": sum(rep.tdoa_fallbacks for rep in reports)}

    overrides = {"seed": seed, "trials": trials}
    sim = load_scenario(SCENARIOS / "sim_8x8.yaml", overrides)
    out = {f"{antenna.value}/{mode.value}":
           campaign(sim.with_antenna_model(antenna).with_mode(mode))
           for antenna in (AntennaModel.DIRECTIONAL, AntennaModel.OMNI)
           for mode in (Mode.SIM_RSSD, Mode.SIM_RSSD_TDOA)}
    fp = load_scenario(SCENARIOS / "fp_3x3.yaml", overrides)
    db = scenario_db(fp)
    for mode in (Mode.FP_RSSD, Mode.FP_RSSD_TDOA):
        out[f"fp_3x3/{mode.value}"] = campaign(fp.with_mode(mode), db)
    return out


def compare(a: dict, b: dict) -> bool:
    """Print one line per campaign; False when the dumps do not line up."""
    if a.keys() != b.keys():
        print(f"campaigns differ: {sorted(a)} against {sorted(b)}")
        return False
    aligned = True
    for name in a:
        ra, rb = a[name]["records"], b[name]["records"]
        if [r[:2] for r in ra] != [r[:2] for r in rb]:
            print(f"{name}: the epochs differ ({len(ra)} against {len(rb)} records)")
            aligned = False
            continue
        moves = [math.dist(map(float.fromhex, p[2:]), map(float.fromhex, q[2:]))
                 for p, q in zip(ra, rb) if p[2:] != q[2:]]
        fa, fb = a[name]["tdoa_fallbacks"], b[name]["tdoa_fallbacks"]
        print(f"{name}: {len(moves)} of {len(ra)} records moved, "
              f"largest move {max(moves, default=0.0):.3g} m; tdoa_fallbacks {fa} and {fb}"
              f" {'agree' if fa == fb else 'DIFFER'}")
    return aligned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("dump", help="run the campaigns and write their records")
    d.add_argument("--seed", type=int, default=1)
    d.add_argument("--trials", type=int, default=100)
    d.add_argument("out", type=Path)
    c = sub.add_parser("compare", help="compare two dumps")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        args.out.write_text(json.dumps(dump(args.seed, args.trials)))
        return 0
    return 0 if compare(json.loads(args.a.read_text()), json.loads(args.b.read_text())) else 1


if __name__ == "__main__":
    sys.exit(main())
