"""The :class:`SwitchModel` descriptor: one switch, fully described.

A model bundles everything the rest of the system needs to know about a
switch algorithm — how to build its object-engine instance, whether (and
how) the vectorized engine can replay it, what its capabilities are, and
what parameters it accepts — so that experiment orchestration, sweeps,
figures and the CLI can treat every switch uniformly through the
registry (:mod:`repro.models.registry`) instead of hardcoding per-switch
knowledge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["Capability", "ParamSpec", "SwitchModel"]


class Capability(str, enum.Enum):
    """Declared properties of a switch model (informational and load-
    bearing: engine routing and future schedulers key off these)."""

    #: The vectorized kernel reproduces the object engine bit-identically
    #: (per-packet departure slots, reordering counts, delay breakdown).
    EXACT_REPLAY = "exact-replay"
    #: The control loop feeds back on queue state (EWMA rate estimates,
    #: clearance feedback), so a feed-forward array replay cannot model
    #: it; such switches stay on the object engine.
    FEEDBACK_COUPLED = "feedback-coupled"
    #: Correct under nonstationary destination drift (scenarios with a
    #: ``drift`` section); switches provisioned once from a static matrix
    #: still *run*, but this capability marks those whose mechanism does
    #: not assume stationarity.
    SUPPORTS_DRIFT = "supports-drift"
    #: Has an online adaptation mode (e.g. Sprinklers' adaptive stripe
    #: resizing).
    SUPPORTS_ADAPTIVE = "supports-adaptive"
    #: The vectorized kernel has a resumable (windowed) form: the run
    #: can replay window-by-window with O(window) peak arrival memory
    #: and bit-identical results (``stream_kernel`` is set).  Derived
    #: automatically from the ``stream_kernel`` field at registration.
    STREAMING = "streaming"
    #: The switch can serve as one stage of a multi-stage fabric
    #: (:mod:`repro.models.composite`): its finalized slot-windows of
    #: departures are a valid arrival stream for a downstream stage.
    #: Derived automatically from ``stream_kernel`` — the resumable
    #: window interface *is* the composition surface.
    COMPOSABLE = "composable"
    #: The vectorized kernel's hot scalar-recursion passes have compiled
    #: (numba ``@njit``) implementations selectable via
    #: ``backend="compiled"``, bit-identical to the NumPy reference.
    #: Derived automatically from the ``kernel`` field — every
    #: vectorized kernel funnels through the shared compiled passes
    #: (:mod:`repro.sim.kernels.compiled`).
    COMPILED = "compiled"


class ParamSpec:
    """One declared constructor parameter of a switch model."""

    __slots__ = ("name", "type", "default", "doc")

    def __init__(self, name: str, type: type, default: Any, doc: str = "") -> None:
        self.name = name
        self.type = type
        self.default = default
        self.doc = doc

    def __repr__(self) -> str:
        return (
            f"ParamSpec({self.name!r}, {self.type.__name__}, "
            f"default={self.default!r})"
        )


#: Object-engine builder signature: ``(n, matrix, seed, **params) -> switch``.
SwitchBuilder = Callable[..., object]
#: Vectorized kernel signature:
#: ``(batch, matrix, seed, **params) -> (Departures, extras | None)``.
VectorizedKernel = Callable[..., tuple]
#: Stream-kernel factory signature: ``(matrix, seed, total_slots,
#: **params) -> streamer`` where the streamer exposes
#: ``feed(window) -> Departures`` and ``finish(window=None) ->
#: (Departures, extras | None)``.
StreamKernel = Callable[..., object]


@dataclass(frozen=True)
class SwitchModel:
    """A registered switch: builder, optional kernel, capabilities, schema.

    ``name`` is the canonical registry key (also the store cache-key
    value); ``aliases`` resolve to it in :func:`repro.models.get`.
    ``reported_name`` is the ``switch.name`` the object-engine instance
    reports in results (usually the registry name; the baseline
    load-balanced switch reports ``baseline-lb``) — the vectorized engine
    must label its results identically for parity.
    """

    name: str
    builder: SwitchBuilder
    description: str = ""
    aliases: Tuple[str, ...] = ()
    reported_name: Optional[str] = None
    kernel: Optional[VectorizedKernel] = None
    #: Optional resumable (windowed) form of the kernel;
    #: setting it implies :data:`Capability.STREAMING`.
    stream_kernel: Optional[StreamKernel] = None
    capabilities: frozenset = field(default_factory=frozenset)
    params: Tuple[ParamSpec, ...] = ()
    #: The subset of declared parameter names the vectorized kernel also
    #: honors.  A run requesting any parameter outside this set routes to
    #: the object engine (correctness over speed): e.g. UFS's finite
    #: ``input_buffer`` drops packets, which the array replay does not
    #: model, while PF's ``threshold`` is pure frame-formation input.
    kernel_params: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("switch model name must be nonempty")
        if self.reported_name is None:
            object.__setattr__(self, "reported_name", self.name)
        object.__setattr__(
            self, "capabilities", frozenset(Capability(c) for c in self.capabilities)
        )
        if self.kernel is not None and Capability.FEEDBACK_COUPLED in self.capabilities:
            raise ValueError(
                f"switch model {self.name!r}: a feedback-coupled control "
                f"loop cannot have an exact vectorized kernel"
            )
        if self.kernel is not None:
            object.__setattr__(
                self, "capabilities", self.capabilities | {Capability.COMPILED}
            )
        elif Capability.COMPILED in self.capabilities:
            raise ValueError(
                f"switch model {self.name!r} declares "
                f"{Capability.COMPILED.value!r} but has no vectorized kernel"
            )
        if self.stream_kernel is not None:
            if self.kernel is None:
                raise ValueError(
                    f"switch model {self.name!r}: a stream kernel requires "
                    f"the monolithic kernel (it is the parity oracle)"
                )
            object.__setattr__(
                self,
                "capabilities",
                self.capabilities
                | {Capability.STREAMING, Capability.COMPOSABLE},
            )
        else:
            for derived in (Capability.STREAMING, Capability.COMPOSABLE):
                if derived in self.capabilities:
                    raise ValueError(
                        f"switch model {self.name!r} declares "
                        f"{derived.value!r} but has no stream_kernel"
                    )
        declared = {p.name for p in self.params}
        stray = set(self.kernel_params) - declared
        if stray:
            raise ValueError(
                f"switch model {self.name!r}: kernel_params {sorted(stray)} "
                f"not in the declared parameter schema"
            )

    # -- engine support --------------------------------------------------------

    def supports_engine(self, engine: str, params: Optional[Dict] = None) -> bool:
        """Whether this switch runs natively on ``engine`` (with the
        given constructor parameters, if any)."""
        if engine == "object":
            return True
        if engine == "vectorized":
            if self.kernel is None:
                return False
            return not params or set(params) <= set(self.kernel_params)
        raise ValueError(f"unknown engine {engine!r}; known: object, vectorized")

    # -- construction ----------------------------------------------------------

    def validate_params(self, params: Dict[str, Any]) -> None:
        """Reject parameters outside the declared schema."""
        known = {p.name for p in self.params}
        unknown = set(params) - known
        if unknown:
            schema = ", ".join(sorted(known)) or "(none)"
            raise ValueError(
                f"switch {self.name!r}: unknown parameters "
                f"{sorted(unknown)}; declared: {schema}"
            )

    def build(self, n: int, matrix, seed: int, **params):
        """Instantiate the object-engine switch."""
        self.validate_params(params)
        return self.builder(n, matrix, seed, **params)

    def __repr__(self) -> str:
        caps = ",".join(sorted(c.value for c in self.capabilities)) or "-"
        engines = "object+vectorized" if self.kernel is not None else "object"
        return f"SwitchModel({self.name!r}, engines={engines}, caps=[{caps}])"
