"""Numerical real and complex Finsler geometry engine."""

__version__ = "0.1.0"

from .jets import CJet, Jet, JetSpace, wirtinger
from .geometry import MetricDef, SamplePlan, apply_J, realify_metric
from .metrics import build_map, build_profile, check_metric, instantiate
from .cartan import CartanData, cartan, radial_flag_bounds
from .chern import ChernFinslerData, chern_finsler, holomorphic_sectional_curvature
from .kahler import KahlerReport, classify, weakly_kahler_pde_residual
from .geodesic import (GeodesicFan, PoleDistance, distance_hessian, hessian_rho,
                       index_form, integrate_geodesic, jacobi_field)
from .levi import LeviField, LeviSample
from .schwarz import SchwarzCertificate, certify_schwarz, curvature_bounds
from .report import VerificationReport

__all__ = [
    "CJet", "Jet", "JetSpace", "wirtinger",
    "MetricDef", "SamplePlan", "apply_J", "realify_metric",
    "build_map", "build_profile", "check_metric", "instantiate",
    "CartanData", "cartan", "radial_flag_bounds",
    "ChernFinslerData", "chern_finsler", "holomorphic_sectional_curvature",
    "KahlerReport", "classify", "weakly_kahler_pde_residual",
    "GeodesicFan", "PoleDistance", "distance_hessian", "hessian_rho",
    "index_form", "integrate_geodesic", "jacobi_field",
    "LeviField", "LeviSample",
    "SchwarzCertificate", "certify_schwarz", "curvature_bounds",
    "VerificationReport",
]
