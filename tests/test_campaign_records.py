"""The acceptance campaigns' records and the receive chains against a
committed dump of `scripts/campaign_records.py dump --seed 1 --trials 2`.

A change that moves outputs on purpose re-records tests/data/
campaign_records.json in the same change, after putting `compare`'s output
for the old dump against the new one on record.  The same holds for
tests/data/directional_trial_6.json, `campaign` over trial 6 of seed 1's
DIRECTIONAL SIM_RSSD sim_8x8 campaign.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "campaign_records.json"
SEED, TRIALS = 1, 2
# the first trial of that campaign whose estimates need the solver's
# secondary refine seeds: with one seed, 3 of its 38 move by up to 7.08 cm
BASIN_GOLDEN = ROOT / "tests" / "data" / "directional_trial_6.json"
BASIN_TRIAL = 6
# above a last-ulp flip of the TDOA line search (at most 4.9e-8 m) and far
# below a real change of an estimate
RECORD_TOL = 1e-6   # m
RSS_TOL = 1e-12     # relative


def load_records():
    """scripts/campaign_records.py, whose dump and readers the check reuses."""
    spec = importlib.util.spec_from_file_location(
        "campaign_records", ROOT / "scripts" / "campaign_records.py")
    records = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(records)
    return records


def test_campaign_records_match_golden_dump():
    records = load_records()
    golden = json.loads(GOLDEN.read_text())
    now = records.dump(SEED, TRIALS)
    assert now.keys() == golden.keys()
    for name in (n for n in golden if n != "receiver"):
        moves = records.record_moves(golden[name]["records"], now[name]["records"])
        # the same trials and epochs, none moved by more than RECORD_TOL
        assert moves is not None, name
        assert max(moves, default=0.0) <= RECORD_TOL, name
        assert now[name]["tdoa_fallbacks"] == golden[name]["tdoa_fallbacks"], name
    chains = records.chain_moves(golden["receiver"], now["receiver"])
    assert chains is not None
    assert all(dt == 0.0 for dt, _ in chains)
    assert max((rel for _, rel in chains), default=0.0) <= RSS_TOL


def test_directional_trial_needing_secondary_refine_seeds():
    from rssdloc.scenario import Mode, load_scenario
    from rssdloc.solver import AntennaModel

    records = load_records()
    golden = json.loads(BASIN_GOLDEN.read_text())
    s = (load_scenario(records.SCENARIOS / "sim_8x8.yaml", {"seed": SEED})
         .with_antenna_model(AntennaModel.DIRECTIONAL).with_mode(Mode.SIM_RSSD))
    moves = records.record_moves(golden["records"],
                                 records.campaign(s, [BASIN_TRIAL])["records"])
    assert moves is not None
    assert max(moves, default=0.0) <= RECORD_TOL
