"""opacue: exact and approximate opacity verification.

Finite metric transition systems are verified exactly by one forward
subset search over n-bit state sets that stops at the first revealing
class; the paper's observer, estimator and product constructions are kept
as independent oracles. Continuous-space discrete-time control systems are
handled soundly through opacity-preserving grid abstractions, candidate
barrier-certificate checking, and small-gain composition of two-subsystem
interconnections.

The public names below load on first access (PEP 562): `import opacue`
imports no submodule, and `opacue.X` or `from opacue import X` imports
only the module that defines X.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Defining submodule -> the public names it exports.
_EXPORTS = {
    "abstraction": ("Abstraction", "build_abstraction", "sample_system"),
    "api": ("verify_opacity",),
    "barrier": ("AugmentedRegions", "CheckReport", "build_regions",
                "check_lack_barrier", "check_opacity_barrier"),
    "boxes": ("Box", "BoxUnion", "grid"),
    "brute": ("brute_force_opacity", "confirm_witness"),
    "compositional": ("GainReport", "LinearSubsystem", "compose_barriers", "interconnect",
                      "small_gain"),
    "control": ("DtControlSystem", "IssCertificate", "QuantizationParams",
                "affine_certificate", "evaluate_quantization_inequality",
                "parse_control_system"),
    "delayed": ("product_opacity", "verify_delayed_opacity"),
    "errors": ("DimensionError", "DomainError", "OpacueError", "ParseError",
               "PrecisionError", "QuantizationError", "ResourceError",
               "SmallGainError", "ValidationError"),
    "estimator": ("EstimatorState", "InitialStateEstimator", "build_initial_estimator",
                  "estimator_verdict"),
    "observer": ("DEFAULT_STATE_CAP", "Observer", "ObserverState", "build_observer",
                 "observer_verdict", "verify_state_opacity"),
    "polynomial": ("Polynomial", "parse_polynomial"),
    "simrel": ("AbstractionStatus", "AbstractionVerdict", "SimRelation", "SimReport",
               "check_relation", "max_initsop_relation", "opacity_via_abstraction"),
    "system": ("MetricSystem", "NotionKind", "OpacityNotion", "delta_close",
               "parse_system", "serialize_system"),
    "verdict": ("Verdict", "Witness"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
