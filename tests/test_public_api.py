"""The public API survives lazy exports.

The package ``__init__`` modules resolve their public names on first use
(PEP 562).  Every name in ``__all__`` must still resolve to the object
its defining module holds and appear in ``dir()``, and star imports must
still work: README, ``examples/`` and ``benchmarks/`` import these names.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.sim",
    "repro.sim.backends",
    "repro.workloads",
    "repro.policies",
)


def defining_module(package, name: str) -> str:
    """Where ``package`` says ``name`` is defined."""
    for module, names in getattr(package, "_EXPORTS", {}).items():
        if name in names:
            return module
    return package.__name__


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves_to_its_definition(name):
    package = importlib.import_module(name)
    listed = dir(package)
    assert len(set(package.__all__)) == len(package.__all__)
    for public in package.__all__:
        home = importlib.import_module(defining_module(package, public))
        assert getattr(package, public) is getattr(home, public), public
        assert public in listed, public


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    package = importlib.import_module(name)
    for public in package.__all__:
        assert namespace[public] is getattr(package, public)


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_is_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_application_names_match_the_specs():
    # The numpy-free name list the front end validates against is the
    # same list of applications the trace generators define.
    from repro.workloads.applications import APPLICATIONS
    from repro.workloads.tables import APPLICATION_NAMES, SINGLE_APP_NAMES

    assert APPLICATION_NAMES == tuple(APPLICATIONS)
    assert set(SINGLE_APP_NAMES) <= set(APPLICATION_NAMES)


def test_policy_registry_names_every_class():
    from repro.policies import make_policy, policy_class, policy_names
    from repro.policies.base import TranslationPolicy

    assert "least-tlb" in policy_names() and "baseline" in policy_names()
    for policy in policy_names():
        assert issubclass(policy_class(policy), TranslationPolicy)
    with pytest.raises(ValueError, match="unknown policy"):
        make_policy("no-such-policy", None)
