import math

import pytest

from morseflow.params import DEFAULT, Tolerances


@pytest.mark.parametrize("override", [
    {"cert_interior_samples": 0},
    {"max_steps": -3},
    {"build_retries": -1},
    {"r_n": 0.0},
    {"rtol": math.nan},
    {"t_max": math.inf},
])
def test_invalid_tolerances_rejected(override):
    with pytest.raises(ValueError):
        DEFAULT.override(**override)


def test_stop_radii_follow_r_launch():
    # the convergence and exit radii are derived from r_launch, so no
    # tolerance tracks it and any positive r_launch is a valid set
    assert not {"r_conv", "degeneracy_tol"} & set(Tolerances.names())
    assert DEFAULT.override(r_launch=1e-300).r_launch == 1e-300
    with pytest.raises(TypeError):
        DEFAULT.override(r_conv=1e-6)


def test_zero_retries_allowed():
    assert DEFAULT.override(perturb_retries=0, build_retries=0).build_retries == 0


@pytest.mark.parametrize("mapping", [{"r_launch": None},
                                     {"max_steps": math.inf}])
def test_untypeable_override_is_a_value_error(mapping):
    with pytest.raises(ValueError):
        Tolerances.from_mapping(mapping)


def test_whole_float_count_accepted_as_int():
    # the CLI parses every --tol value with float()
    steps = Tolerances.from_mapping({"max_steps": 3.0}).max_steps
    assert steps == 3 and type(steps) is int
