"""Public-API hygiene: everything exported exists and is documented."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.experiments",
    "repro.faults",
    "repro.gc",
    "repro.obs",
    "repro.oo7",
    "repro.service",
    "repro.sim",
    "repro.storage",
    "repro.tx",
    "repro.workload",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_packages_have_docstrings(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and package.__doc__.strip()


def test_top_level_exports_are_documented():
    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj) and not getattr(obj, "__doc__", None):
            undocumented.append(name)
    assert undocumented == []


def test_all_lists_are_sorted_sets():
    """No duplicates in any __all__ (sorted-ness is a style choice we keep
    only for the subpackages that already follow it)."""
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", [])
        assert len(exported) == len(set(exported)), f"duplicates in {package_name}"


def test_removed_trace_routes_stay_removed():
    """The engine has one trace route, through the trace cache: no
    shared-memory handoff, no cache-less ``ExperimentSpec.resolve`` fork."""
    import repro.workload
    from repro.sim.spec import ExperimentSpec

    for name in ("SharedTraceArena", "attach_trace"):
        assert not hasattr(repro.workload, name)
        assert name not in repro.workload.__all__
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.workload.shm")
    assert not hasattr(ExperimentSpec, "resolve")


def test_version_is_exposed():
    assert repro.__version__
