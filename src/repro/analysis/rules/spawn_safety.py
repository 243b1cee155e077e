"""REP004 — spawn-safe process-pool submission.

The worker pool starts its workers from a fork server (they must not
inherit server connection fds), and like *spawn* that pickles every
submitted callable.  Lambdas and nested functions are not picklable, so
code that works under fork explodes the moment the context flips —
exactly the class of bug that only fires on the platform you did not
test.  The rule flags unpicklable callables handed to executor-shaped
call sites in modules that use process pools.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.engine import FileContext, FileRule
from repro.analysis.findings import Finding

_SUBMIT_METHODS = {"submit", "apply_async"}


def _uses_process_pools(tree: ast.AST) -> bool:
    """Does this module touch ProcessPoolExecutor / multiprocessing?"""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "ProcessPoolExecutor":
            return True
        if isinstance(node, ast.Attribute) and node.attr in (
            "ProcessPoolExecutor",
            "Pool",
        ):
            return True
        if isinstance(node, ast.Import):
            if any(
                alias.name.split(".")[0] == "multiprocessing"
                for alias in node.names
            ):
                return True
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "multiprocessing":
                return True
            if module.startswith("concurrent") and any(
                alias.name == "ProcessPoolExecutor"
                for alias in node.names
            ):
                return True
    return False


def _nested_function_names(tree: ast.AST) -> Set[str]:
    """Names of functions defined *inside* another function."""
    nested: Set[str] = set()

    def walk(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                if inside_function:
                    nested.add(child.name)
                walk(child, True)
            elif isinstance(child, ast.Lambda):
                walk(child, True)
            else:
                walk(child, inside_function)

    walk(tree, False)
    return nested


class SpawnSafeSubmitRule(FileRule):
    """REP004: only picklable callables go to process executors."""

    rule_id = "REP004"
    title = "no lambdas/closures submitted to process executors"
    hint = (
        "hoist the callable to module level (spawn pickles it by "
        "qualified name) and pass state through its arguments"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _uses_process_pools(ctx.tree):
            return
        nested = _nested_function_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr not in _SUBMIT_METHODS
                or not node.args
            ):
                continue
            target = node.args[0]
            reason = self._unpicklable_reason(target, nested)
            if reason is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"{reason} passed to .{func.attr}() — not "
                    f"picklable under a spawn context",
                )

    @staticmethod
    def _unpicklable_reason(
        target: ast.AST, nested: Set[str]
    ) -> Optional[str]:
        if isinstance(target, ast.Lambda):
            return "lambda"
        if isinstance(target, ast.Name) and target.id in nested:
            return f"nested function {target.id!r}"
        if (
            isinstance(target, ast.Call)
            and isinstance(target.func, (ast.Name, ast.Attribute))
            and (
                getattr(target.func, "id", None) == "partial"
                or getattr(target.func, "attr", None) == "partial"
            )
            and target.args
        ):
            inner = SpawnSafeSubmitRule._unpicklable_reason(
                target.args[0], nested
            )
            if inner is not None:
                return f"functools.partial over a {inner}"
        return None
