"""Numerical parameters shared across the pipeline, with override support."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    # geometry
    tol_geom: float = 1e-9        # membership / boundary-activity threshold
    # derivatives and classification
    tol_crit: float = 1e-10       # gradient norm at Newton convergence
    tol_type: float = 1e-8        # |<df, n>| below this: boundary type undecidable
    tol_nondeg: float = 1e-8      # hessian determinant / eigenvalue floor
    # searches
    seed_grid_density: int = 40   # interior Newton seeds per axis
    newton_max_iter: int = 50
    dedup_dist: float = 1e-6
    # vector-field construction
    r_n: float = 0.15             # model-patch radius at tangency points
    delta_c: float = 0.1          # boundary collar width
    eps_n: float = 0.2            # inward push magnitude cap
    r_excl: float = 0.05          # exclusion radius around critical points
    g_min: float = 1e-3           # collar activation floor on the tangential gradient
    cert_interior_samples: int = 10000
    cert_boundary_samples: int = 2000  # boundary points traced, all loops together
    build_retries: int = 3
    # flow
    r_launch: float = 1e-4
    r_conv: float = 1e-5
    t_max: float = 1e3
    rtol: float = 1e-5
    atol: float = 1e-7
    max_steps: int = 200000
    field_stop: float = 1e-8      # field norm at trajectory convergence
    # genericity perturbations
    perturb_amp: float = 1e-3
    perturb_retries: int = 3
    degeneracy_tol: float = 1e-4

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if f.name.endswith("_retries"):
                if val < 0:
                    raise ValueError(f"{f.name} = {val} is negative")
            elif isinstance(f.default, int):
                if val < 1:
                    raise ValueError(f"{f.name} = {val} is below one")
            elif not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{f.name} = {val} is not finite and positive")
        if self.r_conv >= self.r_launch:
            raise ValueError(f"r_conv = {self.r_conv} must be below "
                             f"r_launch = {self.r_launch}")

    def override(self, **kw) -> "Tolerances":
        return replace(self, **kw)

    @classmethod
    def names(cls) -> list[str]:
        return [f.name for f in fields(cls)]

    @classmethod
    def from_mapping(cls, mapping: dict, base: "Tolerances | None" = None) -> "Tolerances":
        base = base or cls()
        known = set(cls.names())
        bad = set(mapping) - known
        if bad:
            raise KeyError(f"unknown tolerance names: {sorted(bad)}")
        typed = {}
        for key, val in mapping.items():
            kind = type(getattr(base, key))
            try:
                typed[key] = kind(val)
            except (TypeError, OverflowError) as exc:
                raise ValueError(f"{key} = {val!r} is not a valid {kind.__name__}") from exc
            if kind is int and typed[key] != float(val):
                raise ValueError(f"{key} = {val!r} is not a whole number")
        return base.override(**typed)


DEFAULT = Tolerances()
