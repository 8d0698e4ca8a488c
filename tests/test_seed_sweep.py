"""Every ledger row passes at perturbation seeds 0-15, for every catalog entry
and the flip = +1 `cylinder`, and the integer output matches its snapshot.

Morse homology does not depend on the perturbation, so no seed may fail a
row.  `morseflow verify` judges seeds 1-3 only, and only on the catalog.

`seed_sweep_snapshot.json` holds, per entry and seed, every integer an
analysis reports: the critical ids, kinds and gradings, each complex and its
homology, the pairing, the ledger rows and the pairing seed.  A refactor that
keeps the output keeps all of them.  Floats (locations, values, certificate
margins) are left out.
"""
import json
from pathlib import Path

import pytest

from morseflow import catalog
from morseflow.pipeline import build_package

SEEDS = range(16)
SNAPSHOT = json.loads((Path(__file__).parent / "seed_sweep_snapshot.json").read_text())


def integer_output(pkg) -> dict:
    """The package's integer data, as JSON reads it back."""
    return json.loads(json.dumps({
        "critical": [[cp.id, cp.kind, cp.grading] for cp in pkg.crit.points],
        "complexes": {k: cx.as_dict() for k, cx in pkg.complexes.items()},
        "homology": {k: h.as_dict() for k, h in pkg.homology.items()},
        "pairing": {str(k): rep.as_dict() for k, rep in pkg.pairing.items()},
        "ledger": [rec.as_dict() for rec in pkg.checks],
        "pairing_seed": pkg.pairing_seed,
    }))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", [*catalog.names(), "cylinder"])
def test_every_ledger_row_passes(cylinder, name, seed):
    entry = cylinder if name == "cylinder" else catalog.get(name)
    pkg = build_package(entry, seed=seed)
    assert [c.name for c in pkg.checks if not c.passed] == []
    if name == "cylinder":
        assert pkg.pairing[1].matrix == ((1,),)
    assert integer_output(pkg) == SNAPSHOT[f"{name}:{seed}"]
