"""Finite-volume Gray-Scott simulator with a verification harness."""

__version__ = "0.1.0"

from .mesh import InvalidSize, UniformMesh, build_mesh
from .field import (CellField, MeshMismatch, full, project, inner_h,
                    grad_form_h, norm_l2_h, norm_linf, seminorm_h1_h)
from .diffusion import ImplicitDiffusionOperator, NoConvergence, apply, solve
from .imex import (GrayScottParams, MonitorReport, NonFiniteState, RunConfig,
                   SimState, reaction_f, reaction_g, run, step)
from .mms import (DomainError, ErrorRow, ErrorTable, ManufacturedCase,
                  SampleTimeUnreachable, UnresolvableInterface,
                  convergence_study, default_sample_times, error_norms,
                  interface_study, observed_orders, residual_check,
                  stability_study, tanh_case, trig_case)
from .patterns import (PatternPreset, UnknownPreset, preset, preset_names,
                       pattern_initial_condition, run_pattern)
from .cli import (IoFailure, read_field_csv, write_error_table,
                  write_field_snapshot)

__all__ = [
    "InvalidSize", "UniformMesh", "build_mesh",
    "CellField", "MeshMismatch", "full", "project", "inner_h", "grad_form_h",
    "norm_l2_h", "norm_linf", "seminorm_h1_h",
    "ImplicitDiffusionOperator", "NoConvergence", "apply", "solve",
    "GrayScottParams", "MonitorReport", "NonFiniteState", "RunConfig",
    "SimState", "reaction_f", "reaction_g", "run", "step",
    "DomainError", "ErrorRow", "ErrorTable", "ManufacturedCase",
    "SampleTimeUnreachable", "UnresolvableInterface",
    "convergence_study", "default_sample_times", "error_norms",
    "interface_study", "observed_orders", "residual_check",
    "stability_study", "tanh_case", "trig_case",
    "PatternPreset", "UnknownPreset", "preset", "preset_names",
    "pattern_initial_condition", "run_pattern",
    "IoFailure", "read_field_csv", "write_error_table", "write_field_snapshot",
]
