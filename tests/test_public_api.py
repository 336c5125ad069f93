"""Contract tests on the public API surface.

Every name a subpackage exports must import, carry a docstring, and the
top-level package must re-export the documented core surface — the
"doc comments on every public item" deliverable, enforced.
"""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.crypto",
    "repro.edbms",
    "repro.core",
    "repro.plan",
    "repro.baselines",
    "repro.attacks",
    "repro.workloads",
    "repro.bench",
    "repro.obs",
]

MODULES = SUBPACKAGES + [
    "repro.edbms.owner",
    "repro.edbms.server",
    "repro.edbms.engine",
    "repro.edbms.sdb_backend",
    "repro.edbms.batching",
    "repro.edbms.persistence",
    "repro.edbms.audit",
    "repro.core.bootstrap",
    "repro.baselines.brc",
    "repro.attacks.kkno",
    "repro.workloads.trace",
    "repro.bench.plots",
    "repro.cli",
]


class TestExports:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__"), module_name
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_core_surface_reexported(self):
        for name in ("EncryptedDatabase", "PRKBIndex", "DataOwner",
                     "ServiceProvider", "SingleDimensionProcessor",
                     "MultiDimensionProcessor", "LogSRCiIndex",
                     "OrderReconstructionAttack"):
            assert name in repro.__all__

    def test_core_exports_no_scratch_pool(self):
        core = importlib.import_module("repro.core")
        assert not [name for name in core.__all__
                    if "arena" in name.lower()]
        with pytest.raises(ImportError):
            importlib.import_module("repro.core.arena")


class TestDocstrings:
    @pytest.mark.parametrize("module_name", MODULES)
    def test_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), module_name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_items_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            item = getattr(module, name)
            if inspect.isclass(item) or inspect.isfunction(item):
                assert item.__doc__ and item.__doc__.strip(), \
                    f"{module_name}.{name} lacks a docstring"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_methods_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            item = getattr(module, name)
            if not inspect.isclass(item):
                continue
            for method_name, method in inspect.getmembers(
                    item, inspect.isfunction):
                if method_name.startswith("_"):
                    continue
                if method.__qualname__.split(".")[0] != item.__name__:
                    continue  # inherited elsewhere
                assert method.__doc__ and method.__doc__.strip(), \
                    f"{module_name}.{name}.{method_name} lacks a docstring"


class TestApiDocDrift:
    """API.md's ``EncryptedDatabase`` member table and the class agree,
    so a deleted method cannot linger in the docs (nor a new one hide).
    """

    @staticmethod
    def _documented() -> set:
        import re
        from pathlib import Path

        text = (Path(__file__).parent.parent / "API.md").read_text()
        section = text.split("### `EncryptedDatabase(", 1)[1]
        table = section.split("| member | purpose |", 1)[1] \
                       .split("\n\n", 1)[0]
        members = [row.split("|")[1] for row in table.splitlines()[2:]]
        return {name for cell in members
                for name in re.findall(r"`(\w+)\(", cell)}

    def test_every_documented_method_exists(self):
        documented = self._documented()
        assert documented, "EncryptedDatabase table not found in API.md"
        missing = {name for name in documented
                   if not callable(getattr(repro.EncryptedDatabase, name,
                                           None))}
        assert not missing, f"API.md documents removed methods: {missing}"

    def test_every_public_method_is_documented(self):
        public = {name for name, member in inspect.getmembers(
                      repro.EncryptedDatabase, callable)
                  if not name.startswith("_")}
        undocumented = public - self._documented()
        assert not undocumented, f"not in API.md: {undocumented}"
