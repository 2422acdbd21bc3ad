"""Translation policies: the baseline, the ablations, the comparators, and
the paper's least-TLB design, behind one registry.

The DWS page-walk-stealing optimisation of Section 5.6 is not a policy —
it is a walker-scheduler configuration (``IOMMUConfig.walker_scheduler =
"dws"``, see :func:`repro.config.presets.dws_config`) that composes with
any policy here, exactly as the paper composes it with least-TLB.

The registry names each policy's class by module, so validating a policy
name never imports the simulator; classes load on first use (see
:mod:`repro._lazy`).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.policies.base import TranslationPolicy
    from repro.sim.system import MultiGPUSystem

#: Registry name → (defining module, class).  LeastTLBPolicy lives in
#: repro.core (it is the paper's contribution).
_REGISTRY: dict[str, tuple[str, str]] = {
    "baseline": ("repro.policies.mostly_inclusive", "MostlyInclusivePolicy"),
    "mostly-inclusive": ("repro.policies.mostly_inclusive", "MostlyInclusivePolicy"),
    "strictly-inclusive": ("repro.policies.strictly_inclusive", "StrictlyInclusivePolicy"),
    "exclusive": ("repro.policies.exclusive", "ExclusivePolicy"),
    "tlb-probing": ("repro.policies.tlb_probing", "TLBProbingPolicy"),
    "prefetch": ("repro.policies.prefetch", "SequentialPrefetchPolicy"),
    "least-tlb": ("repro.core.least_tlb", "LeastTLBPolicy"),
    "least-tlb-qos": ("repro.core.device_aware", "DeviceAwareLeastTLBPolicy"),
}


def policy_names() -> list[str]:
    """All registered policy names."""
    return sorted(_REGISTRY)


def policy_class(name: str) -> type[TranslationPolicy]:
    """The class registered under ``name`` (imported on first use)."""
    try:
        module, cls = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; choose from {policy_names()}"
        ) from None
    return getattr(importlib.import_module(module), cls)


def make_policy(name: str, system: "MultiGPUSystem", **options: Any) -> TranslationPolicy:
    """Instantiate a policy by registry name."""
    return policy_class(name)(system, **options)


_EXPORTS = {
    "repro.policies.base": ("TranslationPolicy",),
    "repro.policies.mostly_inclusive": ("MostlyInclusivePolicy",),
    "repro.policies.strictly_inclusive": ("StrictlyInclusivePolicy",),
    "repro.policies.exclusive": ("ExclusivePolicy",),
    "repro.policies.tlb_probing": ("TLBProbingPolicy",),
    "repro.policies.prefetch": ("SequentialPrefetchPolicy",),
}

__all__ = [
    "policy_names",
    "make_policy",
    "policy_class",
    "TranslationPolicy",
    "MostlyInclusivePolicy",
    "StrictlyInclusivePolicy",
    "ExclusivePolicy",
    "TLBProbingPolicy",
    "SequentialPrefetchPolicy",
]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
