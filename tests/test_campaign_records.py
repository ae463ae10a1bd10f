"""The acceptance campaigns' records and the receive chains against a
committed dump of `scripts/campaign_records.py dump --seed 1 --trials 2`.

A change that moves outputs on purpose re-records tests/data/
campaign_records.json in the same change, after putting `compare`'s output
for the old dump against the new one on record.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "campaign_records.json"
SEED, TRIALS = 1, 2
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
