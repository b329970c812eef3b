"""REPRO005 — numpy scalar leakage into repr/fingerprint/JSON paths.

``repr(np.float64(3.0))`` differs across numpy versions (``3.0`` vs
``np.float64(3.0)``) and ``json.dumps`` rejects numpy scalars outright
— PR 3 shipped exactly this bug when arena columns started feeding
repr-based fingerprints.  Any value read out of a numpy array must be
converted (``float()`` / ``int()`` / ``bool()`` / ``.item()`` /
``.tolist()``) before it reaches:

* an f-string / ``str()`` / ``repr()`` / ``format()`` (fingerprints are
  repr-based),
* ``json.dumps`` (checkpoint and trace export),
* a dict literal built inside a serialization function
  (``snapshot_state`` / ``*_state`` / ``fingerprint*`` / ``to_json*``)
  or passed to ``ctx.record(...)`` (emission payloads).

Detection is per-function taint tracking, purely syntactic: names bound
from ``np.*`` calls or known array-producing methods
(``values_array``, ``tid_column``, ``field_values``, ...) or read off a
known array attribute (``MatchBatch.match_tids``, ...) are arrays;
subscripting an array (non-slice) or calling a reducer (``.max()``,
``.sum()``, ...) yields a tainted scalar; conversions sanitize.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set

from ..findings import Finding
from . import ModuleInfo, Rule, register_rule
from .common import AnyFunctionDef, ImportMap, dotted_name, iter_functions

#: Method and attribute names that produce numpy arrays in this
#: codebase (arena, sorted-run column caches, slice views, and the CSR
#: result plane of ``repro.core.matches``).
ARRAY_PRODUCERS = {
    "match_tids",
    "probe_tids",
    "offsets",
    "counts",
    "probe_column",
    "interleave",
    "concat",
    "values_array",
    "tids_array",
    "tid_column",
    "event_time_column",
    "field_values",
    "tid_values",
    "event_time_values",
    "stream_flags",
    "asarray",
    "array",
    "arange",
    "zeros",
    "ones",
    "empty",
    "full",
    "argsort",
    "searchsorted",
    "nonzero",
    "where",
    "cumsum",
    "concatenate",
    "copy",
}
_REDUCERS = {"max", "min", "sum", "mean", "prod", "ptp", "dot", "take"}
_SERIALIZER_HINTS = ("fingerprint", "to_json", "snapshot_state")


_SANITIZER_CALLS = {"float", "int", "bool", "round"}
_SANITIZER_METHODS = {"item", "tolist"}


def _walk_unsanitized(node: ast.AST) -> Iterator[ast.AST]:
    """Walk an expression without descending into scalar conversions."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Call):
            func = current.func
            if isinstance(func, ast.Name) and func.id in _SANITIZER_CALLS:
                continue
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SANITIZER_METHODS
            ):
                continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def _is_np_call(node: ast.AST, imports: ImportMap) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = imports.canonical(dotted_name(node.func))
    if name is None:
        return False
    if name.startswith("numpy."):
        return True
    tail = name.rsplit(".", 1)[-1]
    return tail in ARRAY_PRODUCERS


class _Taint(ast.NodeVisitor):
    def __init__(
        self,
        rule: Rule,
        module: ModuleInfo,
        imports: ImportMap,
        func: AnyFunctionDef,
        scope: str,
    ) -> None:
        self.rule = rule
        self.module = module
        self.imports = imports
        self.func = func
        self.scope = scope
        self.arrays: Set[str] = set()
        self.findings: List[Finding] = []
        self._is_serializer = func.name.endswith("_state") or any(
            hint in func.name for hint in _SERIALIZER_HINTS
        ) or func.name in ("__repr__", "__str__")

    # -- taint sources --------------------------------------------------
    def _infer_assign(
        self, targets: Sequence[ast.expr], value: ast.AST
    ) -> None:
        tainted = self._is_array_expr(value)
        for target in targets:
            name = dotted_name(target)
            if name is None:
                continue
            if tainted:
                self.arrays.add(name)
            else:
                self.arrays.discard(name)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._infer_assign(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._infer_assign([node.target], node.value)
        ann = dotted_name(node.annotation)
        if ann in ("np.ndarray", "numpy.ndarray", "ndarray"):
            name = dotted_name(node.target)
            if name:
                self.arrays.add(name)
        self.generic_visit(node)

    def _is_array_expr(self, node: ast.AST) -> bool:
        if _is_np_call(node, self.imports):
            return True
        name = dotted_name(node)
        if name is not None and name in self.arrays:
            return True
        if isinstance(node, ast.Attribute) and node.attr in ARRAY_PRODUCERS:
            return True
        # Slicing an array is still an array.
        if isinstance(node, ast.Subscript) and isinstance(
            node.slice, (ast.Slice, ast.Tuple)
        ):
            return self._is_array_expr(node.value)
        return False

    def _tainted_scalar(self, node: ast.AST) -> Optional[str]:
        """Symbol when ``node`` reads a numpy scalar out of an array."""
        if isinstance(node, ast.Subscript) and not isinstance(
            node.slice, (ast.Slice, ast.Tuple)
        ):
            if self._is_array_expr(node.value):
                return dotted_name(node.value) or "array"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _REDUCERS
            and self._is_array_expr(node.func.value)
        ):
            return (dotted_name(node.func.value) or "array") + (
                "." + node.func.attr
            )
        return None

    # -- sinks ----------------------------------------------------------
    def _flag(self, node: ast.AST, symbol: str, sink: str) -> None:
        finding = self.rule.finding(
            self.module,
            node,
            f"numpy scalar from `{symbol}` reaches {sink} without "
            "conversion; wrap in float()/int()/bool() or use .item() — "
            "numpy reprs differ across versions and json.dumps rejects "
            "them (the PR 3 fingerprint bug)",
            self.scope,
            symbol,
        )
        if finding:
            self.findings.append(finding)

    def _check_sink(self, value: ast.AST, sink: str) -> None:
        symbol = self._tainted_scalar(value)
        if symbol is not None:
            self._flag(value, symbol, sink)

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        for part in node.values:
            if isinstance(part, ast.FormattedValue):
                self._check_sink(part.value, "an f-string")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name in ("str", "repr", "format") and node.args:
            self._check_sink(node.args[0], f"`{name}()`")
        canonical = self.imports.canonical(name)
        if canonical in ("json.dumps", "json.dump"):
            for arg in node.args:
                for sub in _walk_unsanitized(arg):
                    self._check_sink(sub, "`json.dumps`")
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "record"
        ):
            # ctx.record(...) payloads are emitted results.
            for arg in node.args[1:] + [kw.value for kw in node.keywords]:
                self._check_dict(arg, "an emitted record payload")
        self.generic_visit(node)

    def _check_dict(self, node: ast.AST, sink: str) -> None:
        if isinstance(node, ast.Dict):
            for value in node.values:
                if value is not None:
                    self._check_sink(value, sink)
        elif isinstance(node, (ast.List, ast.Tuple)):
            for element in node.elts:
                self._check_sink(element, sink)

    def visit_FunctionDef(self, node: ast.AST) -> None:
        # Nested defs get their own per-function pass via iter_functions.
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Return(self, node: ast.Return) -> None:
        if self._is_serializer and node.value is not None:
            self._walk_payload(node.value)
        self.generic_visit(node)

    def _walk_payload(self, node: ast.AST) -> None:
        """Check every dict/list value inside a serializer's payload."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Dict):
                for value in sub.values:
                    if value is not None:
                        self._check_sink(
                            value, f"the `{self.func.name}` payload"
                        )
            elif isinstance(sub, (ast.List, ast.Tuple)):
                for element in sub.elts:
                    self._check_sink(
                        element, f"the `{self.func.name}` payload"
                    )


@register_rule
class NumpyScalarLeakRule(Rule):
    id = "REPRO005"
    name = "numpy-scalar"
    description = (
        "Numpy scalar flowing into a repr/fingerprint/JSON/emission "
        "path without float()/int()/.item() conversion."
    )
    include_dirs = ("core", "joins", "dspe", "obs", "indexes")

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        imports = ImportMap(module.tree)
        for func, enclosing in iter_functions(module.tree):
            scope = (
                f"{enclosing}.{func.name}"
                if enclosing != "<module>"
                else func.name
            )
            taint = _Taint(self, module, imports, func, scope)
            for stmt in func.body:
                taint.visit(stmt)
            yield from taint.findings
