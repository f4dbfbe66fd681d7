"""The package surface, checked in fresh interpreters: what ``import
levelcross`` loads, the lazily resolved Monte Carlo names, and
``python3 -m levelcross``."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


_IMPORT_PROBE = """
import json, sys, types
import levelcross, levelcross.cli
loaded = [m for m in ("levelcross.montecarlo", "scipy.integrate", "scipy.linalg")
          if m in sys.modules]
unresolved = [n for n in levelcross.__all__ if not hasattr(levelcross, n)]
montecarlo_ok = isinstance(levelcross.montecarlo, types.ModuleType)
star = {}
exec("from levelcross import *", star)
print(json.dumps({
    "loaded": loaded,
    "unresolved": unresolved,
    "montecarlo": montecarlo_ok,
    "star_missing": sorted(set(levelcross.__all__) - set(star)),
    "same_objects": all(star[n] is getattr(levelcross, n) for n in levelcross.__all__),
    "sim_config": levelcross.SimConfig is levelcross.montecarlo.SimConfig,
    "montecarlo_names": sorted(set(levelcross.montecarlo.__all__)
                               ^ levelcross._MONTECARLO_NAMES),
}))
"""


def test_import_leaves_monte_carlo_unloaded_until_used():
    proc = _python("-c", _IMPORT_PROBE)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["loaded"] == []
    assert probe["unresolved"] == []
    assert probe["montecarlo"] is True
    assert probe["star_missing"] == []
    assert probe["same_objects"] is True
    assert probe["sim_config"] is True
    assert probe["montecarlo_names"] == []


def test_every_module_all_resolves():
    # Each public module declares __all__, and every module's names resolve,
    # once each; running __main__ would run the CLI.
    import importlib
    import pkgutil

    import levelcross
    for info in pkgutil.iter_modules(levelcross.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"levelcross.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            assert info.name.startswith("_"), info.name
            continue
        assert len(set(names)) == len(names), info.name
        assert [n for n in names if not hasattr(module, n)] == [], info.name


def test_python_dash_m_runs_the_cli():
    proc = _python("-m", "levelcross", "stats", "--kernel", "sdho", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["kernel"] == "sdho"
