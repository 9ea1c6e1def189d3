"""Rule registry: codes, docs, selection, and the run loop.

Each family module exposes ``check(project, active) -> List[Finding]``
and is skipped entirely when none of its codes are selected.  Codes are
stable identifiers (they appear in suppression comments and CI logs);
renaming one is a breaking change.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core import Finding, Project

__all__ = ["FAMILIES", "RULE_DOCS", "resolve_selection", "run_rules"]

FAMILIES: Tuple[str, ...] = ("RNG", "LOCK", "KEY", "TEL", "REG", "SUP")

RULE_DOCS: Dict[str, str] = {
    "RNG001": (
        "global RNG state is forbidden (np.random.seed / legacy "
        "np.random draws / random.seed) — use repro.sim.rng streams"
    ),
    "RNG002": (
        "bare stdlib `random` is forbidden — use numpy Generators from "
        "repro.sim.rng"
    ),
    "RNG003": (
        "np.random.default_rng(...) argument must flow from "
        "derive_seed(...) (or use spawn_generator/traffic_rng)"
    ),
    "RNG004": (
        "RNG draw inside a conditional branch of a parity-critical "
        "module (sim/kernels/, traffic/) — consumption-order hazard"
    ),
    "LOCK001": (
        "guarded attribute accessed outside `with <guard>` (and the "
        "enclosing method declares no `# requires:` for it)"
    ),
    "LOCK002": (
        "malformed guard annotation — `# guarded by:` must sit on a "
        "`self.<attr> = ...` line and name `self.<attr>` guards"
    ),
    "KEY001": (
        "wall-clock/entropy call (time.time, datetime.now, os.urandom, "
        "uuid4, id()) in a store-key-path function"
    ),
    "KEY002": (
        "unsorted os.listdir/glob/iterdir in a store-key-path function "
        "— wrap in sorted(...)"
    ),
    "KEY003": (
        "iteration over a bare set in a store-key-path function — "
        "iteration order is not deterministic across processes"
    ),
    "TEL001": (
        "span opened without a `with` block — use `with "
        "telemetry.trace(...)` (or assign and `with` it in the same "
        "function)"
    ),
    "TEL002": (
        "span name outside the telemetry vocabulary "
        "(run|replay|traffic|kernel|stage|fabric|sweep|figure|service|"
        "store, dot-separated lowercase segments)"
    ),
    "TEL003": (
        "telemetry instrument created inside a function — create "
        "counters/gauges/histograms once at module scope"
    ),
    "REG001": (
        "switch-model capability declaration inconsistent with its "
        "kernel module (STREAMING/COMPOSABLE/EXACT_REPLAY)"
    ),
    "REG002": (
        "vectorized coverage floor regressed — a paper-grid switch lost "
        "its exact kernel or its streamed form"
    ),
    "REG003": (
        "built-in fabric no longer resolves or lost vectorized support"
    ),
    "REG004": "__all__ does not match the module's public definitions",
    "REG005": (
        "switch advertises the COMPILED capability but its kernel module "
        "does not resolve compiled pass implementations"
    ),
    "SUP001": "unused `# repro: lint-ignore[...]` suppression",
}


def resolve_selection(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> Set[str]:
    """Expand ``--select`` / ``--ignore`` patterns into concrete codes.

    Patterns are exact codes (``RNG003``) or family prefixes (``RNG``).
    An empty/None *select* means all rules.  Unknown patterns raise.
    """
    all_codes = set(RULE_DOCS)

    def expand(patterns: Sequence[str]) -> Set[str]:
        out: Set[str] = set()
        for pat in patterns:
            pat = pat.strip().upper()
            if not pat:
                continue
            matched = {c for c in all_codes if c == pat or c.startswith(pat)}
            if not matched:
                raise ValueError(
                    "unknown rule or family %r; known families: %s"
                    % (pat, ", ".join(FAMILIES))
                )
            out |= matched
        return out

    active = expand(select) if select else set(all_codes)
    if ignore:
        active -= expand(ignore)
    return active


def run_rules(project: Project, active: Set[str]) -> List[Finding]:
    """Run every family with at least one active code; filter to *active*."""
    from . import keypath, locks, probes, registry, rng

    findings: List[Finding] = []
    for family, module in (
        ("RNG", rng),
        ("LOCK", locks),
        ("KEY", keypath),
        ("TEL", probes),
        ("REG", registry),
    ):
        if any(code.startswith(family) for code in active):
            findings.extend(module.check(project, active))
    return [f for f in findings if f.code in active]
