"""First-class switch-model plugin API.

One registry for everything the system knows about a switch algorithm:

* the **object-engine builder** ``(n, matrix, seed, **params) -> switch``;
* the optional **vectorized kernel** ``(batch, matrix, seed) ->
  (Departures, extras)`` the batch engine dispatches to;
* the optional **stream kernel** ``(matrix, seed, total_slots,
  **params) -> streamer`` — the kernel's resumable form, replaying a run
  window-by-window with bounded memory;
* a declared **capability set** (:class:`Capability`: exact-replay vs
  feedback-coupled, supports-drift, supports-adaptive, streaming);
* a **parameter schema** (:class:`ParamSpec`) for constructor knobs.

Usage::

    from repro import models

    model = models.get("sprinklers")
    switch = model.build(32, matrix, seed=0)
    models.available(engine="vectorized")
    # ('foff', 'load-balanced', 'output-queued', 'pf', 'sprinklers', 'ufs')

Registering a custom switch::

    models.register(models.SwitchModel(
        name="my-switch",
        builder=lambda n, matrix, seed: MySwitch(n),
        capabilities={models.Capability.SUPPORTS_DRIFT},
    ))

Third-party packages can instead expose a ``repro.switch_models`` entry
point resolving to a :class:`SwitchModel` (or a factory / list thereof);
the registry discovers those lazily on first use.
"""

from .model import Capability, ParamSpec, SwitchModel
from .registry import (
    ENTRY_POINT_GROUP,
    available,
    build,
    canonical_name,
    discover_entry_points,
    get,
    register,
)

#: The five curves of the paper's Figs. 6-7, in the paper's legend order.
#: Defined here (not in .builtin) so the layers that import it during
#: package initialization — sim.experiment, sim.parallel, the figures —
#: find it on the partially initialized module while .builtin below pulls
#: those very layers in for the kernels.
PAPER_SWITCHES = (
    "load-balanced",
    "ufs",
    "foff",
    "pf",
    "sprinklers",
)

# Importing the built-ins registers them.
from . import builtin as _builtin  # noqa: E402,F401

# Composite fabrics resolve stage names against the registry at
# construction, so they load after the built-ins.
from .composite import (  # noqa: E402
    CompositeSwitchModel,
    FabricSpec,
    available_fabrics,
    get_fabric,
    lookup_fabric,
    register_fabric,
    resolve_fabric,
)

__all__ = [
    "Capability",
    "CompositeSwitchModel",
    "ENTRY_POINT_GROUP",
    "FabricSpec",
    "PAPER_SWITCHES",
    "ParamSpec",
    "SwitchModel",
    "available",
    "available_fabrics",
    "build",
    "canonical_name",
    "discover_entry_points",
    "get",
    "get_fabric",
    "lookup_fabric",
    "register",
    "register_fabric",
    "resolve_fabric",
]
