"""Every ledger row passes at perturbation seeds 0-15, for every catalog entry
and the flip = +1 `cylinder`.

Morse homology does not depend on the perturbation, so no seed may fail a
row.  `morseflow verify` judges seeds 1-3 only, and only on the catalog.
"""
import pytest

from morseflow import catalog
from morseflow.pipeline import build_package

SEEDS = range(16)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", [*catalog.names(), "cylinder"])
def test_every_ledger_row_passes(cylinder, name, seed):
    entry = cylinder if name == "cylinder" else catalog.get(name)
    pkg = build_package(entry, seed=seed)
    assert [c.name for c in pkg.checks if not c.passed] == []
    if name == "cylinder":
        assert pkg.pairing[1].matrix == ((1,),)
