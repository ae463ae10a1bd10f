"""Dump and compare the epoch records of the six acceptance campaigns.

The acceptance campaigns (tests/test_acceptance.py) run sim_8x8 under each
antenna model (DIRECTIONAL, OMNI) and each solver mode (SIM_RSSD,
SIM_RSSD_TDOA) on paired trial seeds, and fp_3x3 in each fingerprint mode
(FP_RSSD, FP_RSSD_TDOA) against one database.  `dump` runs them for a seed
and a trial count with the rssdloc package found on the import path, and
writes every epoch's estimate, bit for bit, and each campaign's
tdoa_fallbacks.  It also runs as many receive chains as trials: the
default pulse train at a delay drawn from the seed and the chain's index,
in white noise of 0.1 per sample, correlated with the default template;
it writes each chain's peak time and RSS, bit for bit.
`compare` reads two dumps and prints, per campaign, how many records moved,
the largest move in metres, and whether tdoa_fallbacks agree; and how many
receive chains moved, with the largest peak-time and relative RSS moves.

    PYTHONPATH=src python scripts/campaign_records.py dump --seed 1 --trials 100 new.json
    PYTHONPATH=<other tree>/src python scripts/campaign_records.py dump --seed 1 --trials 100 old.json
    python scripts/campaign_records.py compare old.json new.json

`compare` exits with status 1 when the dumps do not hold the same
campaigns, epochs and chain count, and 0 otherwise, moved records or not.
"""

import argparse
import json
import math
import sys
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CHAIN_NOISE_STD = 0.1       # per sample, unit-amplitude pulses
CHAIN_MAX_DELAY = 26e-9     # s


def receiver_chains(seed: int, count: int) -> list:
    """[[chain, peak_time, rss], ...], peak_time and rss as float.hex strings."""
    import numpy as np
    from rssdloc import receiver

    spec = receiver.SignalSpec()
    template = receiver.transmit_template(spec)
    out = []
    for k in range(count):
        rng = np.random.default_rng([seed, k])
        r = receiver.generate_signal(spec, rng.uniform(0.0, CHAIN_MAX_DELAY), 0.0,
                                     noise_std=CHAIN_NOISE_STD, rng=rng)
        c = receiver.correlate_and_detect(r, template)
        out.append([k, c.peak_time.hex(), receiver.rss_from_correlation(c).hex()])
    return out


def campaign(s, trials, db=None) -> dict:
    """{"records": [[trial, epoch, x, y], ...], "tdoa_fallbacks": n} over
    the given trials of one scenario, x and y as float.hex strings."""
    from rssdloc.harness import run_trial

    reports = [(k, run_trial(s, k, db)) for k in trials]
    return {"records": [[k, e, r.estimate.x.hex(), r.estimate.y.hex()]
                        for k, rep in reports for e, r in enumerate(rep.records)],
            "tdoa_fallbacks": sum(rep.tdoa_fallbacks for _, rep in reports)}


def dump(seed: int, trials: int) -> dict:
    """{name: campaign(...)} over trials 0 to trials - 1 of each acceptance
    campaign, and "receiver": receiver_chains(seed, trials)."""
    from rssdloc.harness import scenario_db
    from rssdloc.scenario import Mode, load_scenario
    from rssdloc.solver import AntennaModel

    overrides = {"seed": seed, "trials": trials}
    sim = load_scenario(SCENARIOS / "sim_8x8.yaml", overrides)
    out = {f"{antenna.value}/{mode.value}":
           campaign(sim.with_antenna_model(antenna).with_mode(mode), range(trials))
           for antenna in (AntennaModel.DIRECTIONAL, AntennaModel.OMNI)
           for mode in (Mode.SIM_RSSD, Mode.SIM_RSSD_TDOA)}
    fp = load_scenario(SCENARIOS / "fp_3x3.yaml", overrides)
    db = scenario_db(fp)
    for mode in (Mode.FP_RSSD, Mode.FP_RSSD_TDOA):
        out[f"fp_3x3/{mode.value}"] = campaign(fp.with_mode(mode), range(trials), db)
    out["receiver"] = receiver_chains(seed, trials)
    return out


def record_moves(ra: list, rb: list):
    """How far each moved record of one campaign moved, in metres; None
    when the two dumps' trials and epochs differ."""
    if [r[:2] for r in ra] != [r[:2] for r in rb]:
        return None
    return [math.dist(map(float.fromhex, p[2:]), map(float.fromhex, q[2:]))
            for p, q in zip(ra, rb) if p[2:] != q[2:]]


def chain_moves(a: list, b: list):
    """(peak-time move in s, relative RSS move) of each moved receive chain;
    None when the chain counts differ."""
    if len(a) != len(b):
        return None
    return [(abs(float.fromhex(p[1]) - float.fromhex(q[1])),
             abs(float.fromhex(p[2]) / float.fromhex(q[2]) - 1.0))
            for p, q in zip(a, b) if p[1:] != q[1:]]


def compare(a: dict, b: dict) -> bool:
    """Print one line per campaign; False when the dumps do not line up."""
    if a.keys() != b.keys():
        print(f"campaigns differ: {sorted(a)} against {sorted(b)}")
        return False
    aligned = True
    for name in (n for n in a if n != "receiver"):
        ra, rb = a[name]["records"], b[name]["records"]
        moves = record_moves(ra, rb)
        if moves is None:
            print(f"{name}: the epochs differ ({len(ra)} against {len(rb)} records)")
            aligned = False
            continue
        fa, fb = a[name]["tdoa_fallbacks"], b[name]["tdoa_fallbacks"]
        print(f"{name}: {len(moves)} of {len(ra)} records moved, "
              f"largest move {max(moves, default=0.0):.3g} m; tdoa_fallbacks {fa} and {fb}"
              f" {'agree' if fa == fb else 'DIFFER'}")
    return compare_chains(a["receiver"], b["receiver"]) and aligned


def compare_chains(a: list, b: list) -> bool:
    """Print one line for the receive chains; False when their counts differ."""
    moved = chain_moves(a, b)
    if moved is None:
        print(f"receiver: the chains differ ({len(a)} against {len(b)})")
        return False
    print(f"receiver: {len(moved)} of {len(a)} chains moved, largest peak-time move "
          f"{max((m[0] for m in moved), default=0.0):.3g} s, largest relative RSS move "
          f"{max((m[1] for m in moved), default=0.0):.3g}")
    return True


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
