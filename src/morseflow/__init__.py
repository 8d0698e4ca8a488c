"""Morse complexes of height-like functions on compact manifolds with boundary."""

from . import catalog
from .chains import (HomologyResult, IntegerChainComplex, smith_normal_form,
                     staircase_quotient)
from .critical import CriticalPoint, CriticalSet, find_critical_set
from .fields import MorseField, boundary_restriction_derivatives
from .geometry import (BoundaryConstraint, Chart, Deck, MetricField, Point,
                       boundary_data, normalize_point)
from .params import DEFAULT, Tolerances
from .pipeline import MorsePackage, build_package
from .pseudogradient import (AdaptednessCertificate, PseudoGradientField,
                             build_adapted, certify_adapted)
from .flow import (ConnectingOrbit, IncidenceCount, Trajectory,
                   count_connecting_orbits, integrate, intersection_pairing)

__version__ = "0.1.0"
