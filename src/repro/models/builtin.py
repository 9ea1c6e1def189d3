"""Registration of the library's built-in switch models.

Importing :mod:`repro.models` imports this module, which registers every
switch the library ships — the five curves of the paper's Figs. 6-7 plus
the references and extensions — with its object-engine builder, its
vectorized kernel (where one exists), its capability set, and its
parameter schema.  This is the single place per-switch knowledge lives;
everything else resolves through the registry.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.interval_assignment import PlacementMode, StripeIntervalAssignment
from ..core.sprinklers_switch import SprinklersSwitch
from ..sim.kernels import foff as _k_foff
from ..sim.kernels import load_balanced as _k_lb
from ..sim.kernels import output_queued as _k_oq
from ..sim.kernels import pf as _k_pf
from ..sim.kernels import sprinklers as _k_sprinklers
from ..sim.kernels import ufs as _k_ufs
from ..sim.rng import spawn_generator
from ..switching.baseline import BaselineLoadBalancedSwitch
from ..switching.cms import CmsSwitch
from ..switching.foff import FoffSwitch
from ..switching.hashing import TcpHashingSwitch
from ..switching.output_queued import OutputQueuedSwitch
from ..switching.pf import PaddedFramesSwitch
from ..switching.ufs import UfsSwitch
from .model import Capability, ParamSpec, SwitchModel
from .registry import register

__all__: list = []


def _sprinklers_assignment(
    matrix: np.ndarray, seed: int
) -> StripeIntervalAssignment:
    rng = spawn_generator(seed, "sprinklers-placement")
    return StripeIntervalAssignment(matrix, rng=rng, mode=PlacementMode.OLS)


def _build_sprinklers(n: int, matrix: np.ndarray, seed: int) -> SprinklersSwitch:
    return SprinklersSwitch(_sprinklers_assignment(matrix, seed))


def _build_sprinklers_adaptive(
    n: int, matrix: np.ndarray, seed: int
) -> SprinklersSwitch:
    # Adaptive mode starts from the oracle assignment but re-sizes online.
    return SprinklersSwitch(_sprinklers_assignment(matrix, seed), adaptive=True)


def _build_lb(
    n: int, matrix: np.ndarray, seed: int, input_buffer: Optional[int] = None
) -> BaselineLoadBalancedSwitch:
    return BaselineLoadBalancedSwitch(n, input_buffer=input_buffer)


def _build_ufs(
    n: int, matrix: np.ndarray, seed: int, input_buffer: Optional[int] = None
) -> UfsSwitch:
    return UfsSwitch(n, input_buffer=input_buffer)


def _build_foff(n: int, matrix: np.ndarray, seed: int) -> FoffSwitch:
    return FoffSwitch(n)


def _build_pf(
    n: int, matrix: np.ndarray, seed: int, threshold: Optional[int] = None
) -> PaddedFramesSwitch:
    return PaddedFramesSwitch(n, threshold=threshold)


def _build_hashing(
    n: int, matrix: np.ndarray, seed: int, per_flow: bool = True
) -> TcpHashingSwitch:
    return TcpHashingSwitch(n, salt=seed, per_flow=per_flow)


register(SwitchModel(
    name="sprinklers",
    description=(
        "Randomized variable-size striping with LSF service (paper §3), "
        "oracle stripe sizing from the provisioned matrix."
    ),
    builder=_build_sprinklers,
    kernel=_k_sprinklers.departures,
    stream_kernel=_k_sprinklers.stream,
    capabilities={
        Capability.EXACT_REPLAY,
        Capability.SUPPORTS_DRIFT,
    },
))

register(SwitchModel(
    name="sprinklers-adaptive",
    description=(
        "Sprinklers with online EWMA rate estimation and stripe resizing "
        "— the feedback loop the static replay cannot model."
    ),
    builder=_build_sprinklers_adaptive,
    reported_name="sprinklers",  # the switch class reports its base name
    capabilities={
        Capability.FEEDBACK_COUPLED,
        Capability.SUPPORTS_ADAPTIVE,
        Capability.SUPPORTS_DRIFT,
    },
))

register(SwitchModel(
    name="ufs",
    description="Uniform Frame Spreading: full-frame aggregation (§2.2).",
    builder=_build_ufs,
    kernel=_k_ufs.departures,
    stream_kernel=_k_ufs.stream,
    capabilities={
        Capability.EXACT_REPLAY,
        Capability.SUPPORTS_DRIFT,
    },
    params=(
        ParamSpec("input_buffer", int, None,
                  "per-input buffer cap (packets); None = infinite"),
    ),
))

register(SwitchModel(
    name="foff",
    description=(
        "Full Ordered Frames First: partial frames plus per-output "
        "resequencers (§2.2)."
    ),
    builder=_build_foff,
    kernel=_k_foff.departures,
    stream_kernel=_k_foff.stream,
    capabilities={
        Capability.EXACT_REPLAY,
        Capability.SUPPORTS_DRIFT,
    },
))

register(SwitchModel(
    name="pf",
    description=(
        "Padded Frames: UFS with fake-cell padding of the longest VOQ "
        "past a threshold (§2.3)."
    ),
    builder=_build_pf,
    kernel=_k_pf.departures,
    stream_kernel=_k_pf.stream,
    capabilities={
        Capability.EXACT_REPLAY,
        Capability.SUPPORTS_DRIFT,
    },
    params=(
        ParamSpec("threshold", int, None,
                  "minimum VOQ length to pad (default N // 2)"),
    ),
    kernel_params=("threshold",),
))

register(SwitchModel(
    name="load-balanced",
    description=(
        "The plain two-stage load-balanced switch (Chang et al.): "
        "maximal throughput, unbounded reordering."
    ),
    builder=_build_lb,
    kernel=_k_lb.departures,
    stream_kernel=_k_lb.stream,
    reported_name="baseline-lb",
    aliases=("baseline-lb",),
    capabilities={
        Capability.EXACT_REPLAY,
        Capability.SUPPORTS_DRIFT,
    },
    params=(
        ParamSpec("input_buffer", int, None,
                  "per-input buffer cap (packets); None = infinite"),
    ),
))

register(SwitchModel(
    name="output-queued",
    description="Ideal output-queued reference (the delay lower bound).",
    builder=lambda n, matrix, seed: OutputQueuedSwitch(n),
    kernel=_k_oq.departures,
    stream_kernel=_k_oq.stream,
    aliases=("oq",),
    capabilities={
        Capability.EXACT_REPLAY,
        Capability.SUPPORTS_DRIFT,
    },
))

register(SwitchModel(
    name="cms",
    description=(
        "Concurrent Matching Switch: token-based distributed matching "
        "over the intermediate stage."
    ),
    builder=lambda n, matrix, seed: CmsSwitch(n),
    capabilities={Capability.SUPPORTS_DRIFT},
))

register(SwitchModel(
    name="tcp-hashing",
    description=(
        "Flow-hashing load balancing: order-safe per flow, skew-limited "
        "balance (salted from the run seed)."
    ),
    builder=_build_hashing,
    capabilities={Capability.SUPPORTS_DRIFT},
    params=(
        ParamSpec("per_flow", bool, True,
                  "hash on flow ids (True) or whole VOQs (False)"),
    ),
))
