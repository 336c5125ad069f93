"""Every span target of the e2e tracer still resolves.

``benchmarks/e2e/tracer.py`` looks a target up in ``vars(owner)``, so a
method that moves to a base class (or is renamed) silently stops being
traced and its time lands in the enclosing layer.  The 25 s ``e2e-smoke``
CI job reports that as ``trace.unresolved_targets``; this is the same
check in tier-1.  The tracer is loaded by path and only read.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).parents[1] / "benchmarks" / "e2e" / "tracer.py"


def test_every_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("_e2e_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # @dataclass looks its module up in sys.modules while the body runs.
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert len(tracer.TARGETS) >= 50
    assert [target.path for target in tracer.TARGETS
            if tracer._resolve(target.path) is None] == []
