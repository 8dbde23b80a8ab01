"""Coupled-mode simulations of two magnon modes sharing a lossy microwave cavity.

The package loads on use (PEP 562): `import cavitymagnons` imports no
submodule, and so no numpy.  An exported name is imported from its home module
the first time it is read and is then kept in the package namespace;
`cavitymagnons.<module>` imports that submodule.
"""

__version__ = "0.1.0"

# Home module of each exported name.
_EXPORTS = {
    "model": (
        "AdiabaticModel", "DriveParams", "EffectiveHamiltonian", "SystemParams",
        "build_adiabatic_model", "build_driven_system", "build_full_hamiltonian", "drive_amplitude_from_power",
    ),
    "spectra": (
        "EigenBranchSet", "ExceptionalPoint", "ExceptionalPointNotFound",
        "eigenvalues_3x3", "find_exceptional_point", "sweep_eigenvalues",
    ),
    "response": (
        "ResponsePoint", "SpectrumSweep",
        "reflection_transmission", "spincurrent_spectrum", "steady_state",
    ),
    "dynamics": ("Trajectory", "adiabatic_validity_report", "integrate_adiabatic", "integrate_full"),
    "closed_forms": ("propagate_exact", "resonance_peak_height"),
    "cli": ("RunConfig", "parse_config", "run"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _submodule(name):
    # The import statement's own hook, unlike importlib.import_module, is
    # logged by `python -X importtime`, so its report keeps one row per module.
    # Importing a submodule binds it in this namespace.
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name):
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
