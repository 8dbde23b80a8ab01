"""Coupled-mode simulations of two magnon modes sharing a lossy microwave cavity."""

from .model import (
    AdiabaticModel,
    DriveParams,
    EffectiveHamiltonian,
    SystemParams,
    build_adiabatic_model,
    build_driven_system,
    build_full_hamiltonian,
    drive_amplitude_from_power,
)
from .spectra import (
    EigenBranchSet,
    ExceptionalPoint,
    ExceptionalPointNotFound,
    eigenvalues_3x3,
    find_exceptional_point,
    sweep_eigenvalues,
)
from .response import (
    ResponsePoint,
    SpectrumSweep,
    reflection_transmission,
    resonance_peak_height,
    spincurrent_spectrum,
    steady_state,
)
from .dynamics import (
    Trajectory,
    adiabatic_validity_report,
    integrate_adiabatic,
    integrate_full,
    propagate_exact,
)
from .cli import RunConfig, parse_config, run

__version__ = "0.1.0"

__all__ = [
    "AdiabaticModel",
    "DriveParams",
    "EffectiveHamiltonian",
    "EigenBranchSet",
    "ExceptionalPoint",
    "ExceptionalPointNotFound",
    "ResponsePoint",
    "RunConfig",
    "SpectrumSweep",
    "SystemParams",
    "Trajectory",
    "adiabatic_validity_report",
    "build_adiabatic_model",
    "build_driven_system",
    "build_full_hamiltonian",
    "drive_amplitude_from_power",
    "eigenvalues_3x3",
    "find_exceptional_point",
    "integrate_adiabatic",
    "integrate_full",
    "parse_config",
    "propagate_exact",
    "reflection_transmission",
    "resonance_peak_height",
    "run",
    "spincurrent_spectrum",
    "steady_state",
    "sweep_eigenvalues",
]
