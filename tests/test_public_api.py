"""Public-API hygiene: everything exported exists, is documented and is
imported through its package by some caller."""

import ast
import dataclasses
import importlib
import re
import textwrap
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

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
    shared-memory handoff, no cache-less ``ExperimentSpec.resolve`` fork.
    A trace reaches a store only through the simulator: no event-by-event
    applier, no event-list twins of the OO7 graph's ``emit_*`` methods, no
    event-factory streams, and the phase users read no event objects."""
    import repro.workload
    from repro.oo7 import builder
    from repro.oo7.schema import Oo7Graph
    from repro.service.stream import ReplayableStream
    from repro.sim.spec import ExperimentSpec
    from repro.workload.compiled import CompiledTrace

    for name in ("SharedTraceArena", "attach_trace"):
        assert not hasattr(repro.workload, name)
        assert name not in repro.workload.__all__
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.workload.shm")
    assert not hasattr(ExperimentSpec, "resolve")

    assert not hasattr(builder, "apply_event")
    for name in ("generate", "insert_part", "replace_document", "delete_part"):
        assert not hasattr(Oo7Graph, name), name
    assert "factory" not in {f.name for f in dataclasses.fields(ReplayableStream)}
    assert not hasattr(CompiledTrace, "byte_size")
    phase_users = ("oo7/builder.py", "sim/clustering.py", "experiments/clustering_exp.py")
    for module in phase_users:
        tree = ast.parse((ROOT / "src" / "repro" / module).read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        events = {n for n in imported if n.endswith("Event") or n == "stream_events"}
        assert not events, f"{module} imports {sorted(events)}"


def test_removed_object_surfaces_stay_removed():
    """The object table has one read surface — ``locate`` / ``row`` /
    ``rows`` with ``len`` and ``in``: no ``Placement`` mapping over it, no
    ``store.objects`` view, no ``Placement`` records or the ``allocate``
    that made them, and no ``StoredObject`` helpers that only tests
    called."""
    from repro.storage.heap import ObjectStore
    from repro.storage.object_model import StoredObject
    from repro.storage.objtable import ObjectTable
    from repro.storage.partition import Partition

    refused = re.compile(
        r"\bStoredObjects\b|\bPlacement\b|\bPartitionFullError\b|\bplacement_of\b"
        r"|\._placement\b|\.allocate\(|\.objects\[|\.objects\.|\bpoints_to\b"
        r"|\b_as_tuples\b"
    )
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if refused.search(line)
    ]
    assert hits == []
    mapping = ("get", "__getitem__", "__setitem__", "put", "pop", "__delitem__")
    for name in (*mapping, "__iter__", "keys", "items", "values", "_as_tuples"):
        assert not hasattr(ObjectTable, name), name
    assert ObjectTable.__eq__ is object.__eq__
    assert ObjectTable.__hash__ is object.__hash__
    for name in ("objects", "placement_of", "_placement"):
        assert not hasattr(ObjectStore(), name), name
    assert not hasattr(Partition, "allocate")
    for name in ("targets", "slot_count", "points_to"):
        assert not hasattr(StoredObject, name), name
    kept = {"locate", "row", "rows", "__len__", "__contains__"}
    assert kept <= set(dir(ObjectTable))


def test_one_collection_path_stays_one():
    """Every run collects through the pipelined scheduler: no mode list,
    no ``repro fleet --collection``, and the simulator reads
    ``config.collection`` / ``config.gc_workers`` only to validate them —
    in an ``if`` whose body only raises."""
    from repro.fleet import _build_parser

    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "COLLECTION_MODES" in line
    ]
    assert hits == []
    assert "--collection" not in _build_parser()._option_string_actions

    tree = ast.parse((ROOT / "src" / "repro" / "sim" / "simulator.py").read_text())

    def reads(node):
        return [
            sub
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            and sub.attr in ("collection", "gc_workers")
            and isinstance(sub.value, ast.Attribute)
            and sub.value.attr == "config"
        ]

    validated = {
        id(read)
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and not node.orelse
        and all(isinstance(stmt, ast.Raise) for stmt in node.body)
        for read in reads(node)
    }
    unvalidated = [read.lineno for read in reads(tree) if id(read) not in validated]
    assert unvalidated == [], f"simulator.py reads the field at lines {unvalidated}"


def test_package_quickstart_runs_as_documented(capsys):
    """The package docstring's quickstart collects, and prints the GC I/O
    share its comment claims."""
    code = textwrap.dedent(repro.__doc__.split("Quickstart::", 1)[1])
    claimed = float(re.search(r"# ≈ ([0-9.]+)", code).group(1))
    namespace = {}
    exec(code, namespace)
    printed = float(capsys.readouterr().out.strip())
    assert namespace["result"].summary.collections >= 1
    assert abs(printed - claimed) <= 0.02


def test_version_is_exposed():
    assert repro.__version__


# A facade name earns its place when some caller imports it through the
# package: ``from repro.X import name`` or ``repro.X.name``. The callers are
# the package itself, the benchmark harnesses, the examples, the tests (this
# module aside: it names every export) and the code blocks of README and
# EXPERIMENTS.
_FROM_IMPORT = re.compile(r"from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n]*)")
_DOTTED = re.compile(r"\brepro(?:\.\w+)+")
_CODE_BLOCK = re.compile(r"```[a-z]*\n(.*?)```", re.S)


def _caller_texts():
    for top in ("src", "bench", "examples", "benchmarks", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.resolve() != Path(__file__).resolve():
                yield path.read_text()
    for doc in ("README.md", "EXPERIMENTS.md"):
        yield "\n".join(_CODE_BLOCK.findall((ROOT / doc).read_text()))


def _imported_through():
    """``{package: names some caller imports through it}``."""
    used = {}
    for text in _caller_texts():
        for package, names in _FROM_IMPORT.findall(text):
            for name in re.sub(r"#[^\n]*", "", names).strip("()").split(","):
                if name.split():
                    used.setdefault(package, set()).add(name.split()[0])
        for dotted in _DOTTED.findall(text):
            parts = dotted.split(".")
            for i in range(1, len(parts)):
                used.setdefault(".".join(parts[:i]), set()).add(parts[i])
    return used


def test_every_export_is_imported_through_its_package():
    used = _imported_through()
    unused = [
        f"{package_name}.{name}"
        for package_name in PACKAGES
        for name in getattr(importlib.import_module(package_name), "__all__", [])
        if name not in used.get(package_name, ())
    ]
    assert unused == [], f"{len(unused)} exports nothing imports: {unused}"
