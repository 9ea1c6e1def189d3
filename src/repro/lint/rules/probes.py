"""Telemetry probe-discipline rules (TEL001-TEL003).

PR 7's probes are cheap and correct only when used idiomatically: spans
are context-managed (an unclosed span corrupts the nesting the
``telemetry check`` gate validates), span names come from the fixed
vocabulary (``summarize``/``diff`` group by prefix), and instruments
are created once at module scope (creation takes the registry lock —
per-call creation would put a lock acquisition on the hot path the
~80 ns budget explicitly excludes).
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Set

from ..core import Finding, ModuleSource, Project

__all__ = ["SPAN_NAME_RE", "check"]

#: The span-name vocabulary established in PR 7: a known prefix, then
#: dot-separated lowercase segments.
SPAN_NAME_RE = re.compile(
    r"^(run|replay|traffic|kernel|metrics|stage|fabric|sweep|figure|"
    r"service|store)(\.[a-z0-9_]+)*$"
)

#: The telemetry package implements the probes; its internals are the
#: one place manual span handling is legitimate.  The linter's own
#: modules mention the APIs in prose only.
_EXEMPT_PREFIXES = ("repro.telemetry", "repro.lint")

_INSTRUMENT_FACTORIES = frozenset({"counter", "gauge", "histogram"})


def _is_span_open(call: ast.Call) -> bool:
    """True for ``telemetry.trace(...)`` / ``<...>tracer.span(...)``."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "trace":
        base = func.value
        return isinstance(base, ast.Name) and base.id == "telemetry"
    if func.attr == "span":
        base = func.value
        # tracer.span(...), st.tracer.span(...), self._tracer.span(...)
        if isinstance(base, ast.Name):
            return "tracer" in base.id.lower()
        if isinstance(base, ast.Attribute):
            return "tracer" in base.attr.lower()
    return False


def _is_instrument_create(call: ast.Call) -> bool:
    """True for ``telemetry.counter/gauge/histogram(...)`` (and the
    ``metrics.`` / ``registry.`` spellings)."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr not in _INSTRUMENT_FACTORIES:
        return False
    base = func.value
    if isinstance(base, ast.Name):
        return base.id in ("telemetry", "metrics") or "registry" in base.id.lower()
    return False


def check(project: Project, active: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        if module.modname.startswith(_EXEMPT_PREFIXES):
            continue
        findings.extend(_check_module(module))
    return findings


def _check_module(module: ModuleSource) -> List[Finding]:
    findings: List[Finding] = []
    tree = module.tree
    parents = _parent_map(tree)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _is_span_open(node):
            findings.extend(_check_span(module, node, parents))
        if _is_instrument_create(node) and _enclosing_function(
            node, parents
        ) is not None:
            findings.append(
                Finding(
                    code="TEL003",
                    message=(
                        "instrument created inside a function — hoist "
                        "the counter/gauge/histogram to module scope "
                        "(creation locks the registry; lookups are the "
                        "hot path)"
                    ),
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                )
            )
    return findings


def _parent_map(tree: ast.Module) -> dict:
    parents: dict = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _enclosing_function(node: ast.AST, parents: dict) -> Optional[ast.AST]:
    cur = parents.get(node)
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return cur
        cur = parents.get(cur)
    return None


def _check_span(
    module: ModuleSource, call: ast.Call, parents: dict
) -> List[Finding]:
    findings: List[Finding] = []

    # TEL002 — vocabulary check on literal span names.
    if call.args and isinstance(call.args[0], ast.Constant):
        name = call.args[0].value
        if isinstance(name, str) and not SPAN_NAME_RE.match(name):
            findings.append(
                Finding(
                    code="TEL002",
                    message=(
                        "span name %r is outside the telemetry "
                        "vocabulary (%s)" % (name, SPAN_NAME_RE.pattern)
                    ),
                    path=module.relpath,
                    line=call.lineno,
                    col=call.col_offset,
                )
            )

    # TEL001 — the span must be context-managed.
    parent = parents.get(call)
    if isinstance(parent, ast.withitem):
        return findings
    if isinstance(parent, ast.Assign):
        # Assigned-then-`with`ed in the same function is fine:
        #   span = telemetry.trace(...); ...; with span: ...
        names = [
            t.id for t in parent.targets if isinstance(t, ast.Name)
        ]
        scope = _enclosing_function(call, parents) or module.tree
        for node in ast.walk(scope):
            if isinstance(node, ast.With):
                for item in node.items:
                    ctx = item.context_expr
                    if isinstance(ctx, ast.Name) and ctx.id in names:
                        return findings
    findings.append(
        Finding(
            code="TEL001",
            message=(
                "span opened without a `with` block — an unclosed span "
                "breaks nesting validation; use `with "
                "telemetry.trace(...)`"
            ),
            path=module.relpath,
            line=call.lineno,
            col=call.col_offset,
        )
    )
    return findings
