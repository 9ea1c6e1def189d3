"""Import hygiene and the retired switch-resolution names.

Switches resolve through the model registry (:mod:`repro.models`) only.
The old module-level aliases (``SWITCH_BUILDERS``, ``build_switch``,
``FAST_ENGINE_SWITCHES``, ``supports_fast_engine``) and the seed-stacked
replay (``run_replications_fast``) are gone, so a stale caller fails at
import time instead of reaching a second source of truth.  Importing the
packages must stay free of deprecation warnings.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro import models
from repro.traffic.matrices import uniform_matrix

RETIRED = [
    ("repro.sim.experiment", "SWITCH_BUILDERS"),
    ("repro.sim.experiment", "build_switch"),
    ("repro.sim.fast_engine", "FAST_ENGINE_SWITCHES"),
    ("repro.sim.fast_engine", "supports_fast_engine"),
    ("repro.sim.fast_engine", "run_replications_fast"),
    ("repro.sim", "build_switch"),
    ("repro.sim", "supports_fast_engine"),
    ("repro.sim", "run_replications_fast"),
]


@pytest.mark.parametrize("module,name", RETIRED)
def test_retired_name_is_gone(module, name):
    mod = importlib.import_module(module)
    assert name not in getattr(mod, "__all__", ())
    with pytest.raises(AttributeError):
        getattr(mod, name)


def test_importing_repro_emits_no_deprecation_warnings():
    """Merely importing the library (or repro.sim) must stay silent;
    run in a subprocess so this module's own imports don't pollute."""
    code = (
        "import warnings\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('error', DeprecationWarning)\n"
        "    import repro\n"
        "    import repro.sim\n"
        "    import repro.sim.experiment\n"
        "    import repro.sim.fast_engine\n"
        "print('clean')\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert "clean" in out.stdout


def test_no_warning_from_registry_api():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        models.available(engine="vectorized")
        models.get("pf")
        models.build("output-queued", 4, uniform_matrix(4, 0.5), 0)
