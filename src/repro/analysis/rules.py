"""Repo-specific lint rules (the ``RPR`` catalogue).

Five families, matching the places where this codebase's bugs are silent
until a long run hits them:

* **RPR1xx — autograd safety.** The hand-rolled :class:`repro.nn.Tensor`
  exposes its raw numpy buffer as ``.data``; touching it from model or
  experiment code silently detaches the graph (reads) or corrupts it
  (writes). Inference entry points must run under ``no_grad`` or they
  build graphs that are never freed.
* **RPR2xx — concurrency hygiene.** Classes that own a lock must route
  every write of lock-guarded attributes through that lock. The guarded
  set is approximated per class as "attributes ever written inside a
  ``with self.<lock>:`` block" (a static lockset, the same idea the
  dynamic :class:`~repro.analysis.races.LocksetMonitor` checks at runtime).
* **RPR3xx — observability hygiene.** Spans must be entered (a span that
  is created and dropped never records), and metric handles must be
  hoisted out of loops (``registry.counter(...)`` takes the registry lock
  per call).
* **RPR4xx — model configuration and resilience.** ``RPR401`` belongs to
  the shape checker (inconsistent model configuration). From ``RPR402``
  on, resilience hygiene: cloud-database calls fail transiently by design
  (see :mod:`repro.faults`); a bare ``except Exception`` around them
  swallows the retryable/permanent distinction. Such call sites should go
  through :class:`repro.faults.RetryPolicy`, which retries only
  fault-class errors and surfaces give-ups.
* **RPR5xx — inference throughput.** The model forward amortizes its
  fixed cost (layer setup, padding, pooling-matrix construction) over
  the batch dimension; ``collate([one_table])`` inside a loop runs a
  batch-of-1 forward per iteration and forfeits that amortization.
  Loops over tables should collect encodings and collate once, or route
  through :class:`repro.sched.InferenceBatcher`.

Every rule can be silenced on a line with ``# noqa: RPR###`` — visible,
greppable exceptions instead of silent drift.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .lint import FileContext, Rule, ancestors, register

__all__ = ["rule_catalogue"]

_LOCK_FACTORIES = ("Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore")
_CONTAINER_MUTATORS = {
    "append", "appendleft", "add", "insert", "extend", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "move_to_end",
}
_INFERENCE_NAME_PARTS = ("detect", "infer", "predict")
_MODEL_NON_FORWARD = {
    "eval", "train", "zero_grad", "parameters", "named_parameters",
    "state_dict", "load_state_dict",
}


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]``; empty when not a plain chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def _is_self_attr(node: ast.AST) -> str | None:
    """Return the attribute name for ``self.<attr>`` nodes, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _enclosing_function(node: ast.AST) -> ast.AST | None:
    for ancestor in ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def _under_no_grad(node: ast.AST, function: ast.AST) -> bool:
    """Whether ``node`` sits inside a ``with ...no_grad...:`` in ``function``."""
    for ancestor in ancestors(node):
        if isinstance(ancestor, ast.With):
            for item in ancestor.items:
                if "no_grad" in ast.unparse(item.context_expr):
                    return True
        if ancestor is function:
            break
    return False


# ----------------------------------------------------------------------
# RPR1xx — autograd safety
# ----------------------------------------------------------------------
@register
class FloatOnData(Rule):
    id = "RPR101"
    name = "autograd-float-on-data"
    description = "float(x.data) hides whether x is scalar; use Tensor.item()"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Attribute)
                and node.args[0].attr == "data"
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"float({ast.unparse(node.args[0])}) reads the raw autograd "
                    "buffer; use .item(), which asserts the tensor is scalar",
                )


@register
class DataMutation(Rule):
    id = "RPR102"
    name = "autograd-data-mutation"
    description = "writing to Tensor.data bypasses the recorded graph"
    # The engine itself (optimizers, serialization) owns the raw buffers.
    exclude = ("repro/nn/",)

    def _offending_target(self, target: ast.AST) -> ast.AST | None:
        if isinstance(target, ast.Attribute) and target.attr == "data":
            return target
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr == "data"
        ):
            return target
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if isinstance(target, ast.Tuple):
                    candidates = list(target.elts)
                else:
                    candidates = [target]
                for candidate in candidates:
                    bad = self._offending_target(candidate)
                    if bad is not None:
                        yield ctx.finding(
                            self,
                            node,
                            f"mutating {ast.unparse(bad)} detaches the autograd "
                            "graph silently; build a new Tensor or keep raw "
                            "buffers inside repro.nn",
                        )


@register
class InferenceWithoutNoGrad(Rule):
    id = "RPR103"
    name = "autograd-inference-no-grad"
    description = "model forward in an inference path must run under no_grad()"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        seen: set[tuple[int, int]] = set()
        for function in ast.walk(ctx.tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = function.name.lower()
            if not any(part in name for part in _INFERENCE_NAME_PARTS):
                continue
            if "train" in name:
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                chain = _attr_chain(node.func)
                if "model" not in chain:
                    continue
                if chain[-1] in _MODEL_NON_FORWARD:
                    continue
                if _enclosing_function(node) is not function:
                    continue  # nested defs are reported for their own scope
                key = (node.lineno, node.col_offset)
                if key in seen or _under_no_grad(node, function):
                    continue
                seen.add(key)
                yield ctx.finding(
                    self,
                    node,
                    f"{ast.unparse(node.func)}(...) in inference path "
                    f"'{function.name}' runs outside no_grad(); the forward "
                    "pass records a graph that is never backpropagated",
                )


@register
class DataSubscriptRead(Rule):
    id = "RPR104"
    name = "autograd-data-subscript"
    description = "indexing Tensor.data bypasses autograd; use .detach().numpy()"
    exclude = ("repro/nn/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "data"
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{ast.unparse(node)} indexes the raw autograd buffer; "
                    "use .detach().numpy()[...] to make the graph cut explicit",
                )


# ----------------------------------------------------------------------
# RPR2xx — concurrency hygiene
# ----------------------------------------------------------------------
_INIT_METHODS = {"__init__", "__post_init__", "__new__", "__del__"}


def _class_lock_attrs(cls: ast.ClassDef) -> set[str]:
    """Names of ``self.<attr>`` lock objects this class owns."""
    locks: set[str] = set()
    for node in ast.walk(cls):
        # self._lock = threading.Lock() (any method, usually __init__)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            factory = ast.unparse(node.value.func)
            if factory.split(".")[-1] in _LOCK_FACTORIES:
                for target in node.targets:
                    attr = _is_self_attr(target)
                    if attr is not None:
                        locks.add(attr)
    # dataclass style: _lock: threading.Lock = field(default_factory=threading.Lock)
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = ast.unparse(node.annotation)
            if any(factory in annotation for factory in _LOCK_FACTORIES):
                locks.add(node.target.id)
    return locks


def _locked_ancestor(node: ast.AST, lock_attrs: set[str], scope: ast.AST) -> bool:
    """Whether ``node`` is inside ``with self.<lock>:`` for any class lock."""
    for ancestor in ancestors(node):
        if isinstance(ancestor, ast.With):
            for item in ancestor.items:
                expr = item.context_expr
                # ``with self._lock:`` and ``with self._lock.acquire_timeout(..)``
                attr = _is_self_attr(expr)
                if attr is None and isinstance(expr, ast.Call):
                    attr = _is_self_attr(expr.func)
                    if attr is None:
                        chain = _attr_chain(expr.func)
                        if len(chain) >= 2 and chain[0] == "self":
                            attr = chain[1]
                if attr in lock_attrs:
                    return True
        if ancestor is scope:
            break
    return False


def _attribute_writes(node: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """Yield ``(attr_name, node)`` for writes to ``self.<attr>`` in ``node``.

    Covers plain and augmented assignment, tuple unpacking, subscript
    stores (``self._store[k] = v``) and mutating container method calls
    (``self._idle.append(...)``).
    """
    if isinstance(node, ast.Assign):
        targets: list[ast.AST] = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _CONTAINER_MUTATORS:
            attr = _is_self_attr(node.func.value)
            if attr is not None:
                yield attr, node
        return
    else:
        return
    flat: list[ast.AST] = []
    for target in targets:
        if isinstance(target, ast.Tuple):
            flat.extend(target.elts)
        else:
            flat.append(target)
    for target in flat:
        attr = _is_self_attr(target)
        if attr is not None:
            yield attr, node
            continue
        if isinstance(target, ast.Subscript):
            attr = _is_self_attr(target.value)
            if attr is not None:
                yield attr, node


@register
class UnlockedGuardedWrite(Rule):
    id = "RPR201"
    name = "lockset-unguarded-write"
    description = (
        "attribute written under the class lock elsewhere is written "
        "without it here"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            lock_attrs = _class_lock_attrs(cls)
            if not lock_attrs:
                continue
            methods = [
                node
                for node in cls.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            # Pass 1: the guarded set — attributes ever written under the lock.
            guarded: set[str] = set()
            writes: list[tuple[str, ast.AST, ast.AST]] = []  # attr, node, method
            for method in methods:
                for node in ast.walk(method):
                    for attr, write_node in _attribute_writes(node):
                        if attr in lock_attrs:
                            continue
                        if _locked_ancestor(write_node, lock_attrs, method):
                            guarded.add(attr)
                        else:
                            writes.append((attr, write_node, method))
            # Pass 2: unlocked writes of guarded attributes outside init.
            for attr, node, method in writes:
                if attr not in guarded:
                    continue
                if method.name in _INIT_METHODS:
                    continue
                yield ctx.finding(
                    self,
                    node,
                    f"{cls.name}.{attr} is written under "
                    f"'with self.{sorted(lock_attrs)[0]}:' elsewhere but "
                    f"written without the lock in {method.name}()",
                    cls=cls.name,
                    attr=attr,
                )


@register
class BareLockAcquire(Rule):
    id = "RPR202"
    name = "lock-acquire-no-with"
    description = "bare .acquire() leaks the lock on exceptions; use 'with'"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "acquire"
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{ast.unparse(node.value.func)}() without try/finally "
                    "release; prefer a 'with' block",
                )


# ----------------------------------------------------------------------
# RPR3xx — observability hygiene
# ----------------------------------------------------------------------
@register
class SpanNotEntered(Rule):
    id = "RPR301"
    name = "span-not-entered"
    description = "a span created but never entered records nothing"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "span"
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{ast.unparse(node.value.func)}(...) result is discarded; "
                    "spans only record via 'with' (enter starts, exit records)",
                )


@register
class MetricHandleInLoop(Rule):
    id = "RPR302"
    name = "metric-handle-in-loop"
    description = "metric get-or-create inside a loop; hoist the handle"

    _INSTRUMENTS = {"counter", "gauge", "histogram"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._INSTRUMENTS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            in_loop = False
            for ancestor in ancestors(node):
                if isinstance(ancestor, (ast.For, ast.While, ast.AsyncFor)):
                    in_loop = True
                    break
                if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    break
            if in_loop:
                yield ctx.finding(
                    self,
                    node,
                    f"{ast.unparse(node.func)}({node.args[0].value!r}) "
                    "get-or-creates the series (registry lock + dict lookup) "
                    "every iteration; hoist the handle out of the loop",
                )


# ----------------------------------------------------------------------
# RPR4xx — resilience hygiene
# ----------------------------------------------------------------------
@register
class BroadExceptAroundDBCall(Rule):
    id = "RPR402"
    name = "faults-broad-except-db"
    description = (
        "broad 'except Exception' around a cloud-db call swallows transient "
        "faults; route the call through repro.faults.RetryPolicy"
    )

    # The typed Connection / pool surface that crosses the simulated network.
    _DB_OPS = {
        "fetch_metadata",
        "fetch_values",
        "list_tables",
        "analyze_table",
        "connect",
        "acquire",
        "lease",
    }
    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:  # bare except:
            return True
        types = (
            handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        )
        for node in types:
            chain = _attr_chain(node)
            name = chain[-1] if chain else None
            if name in self._BROAD:
                return True
        return False

    def _db_calls(self, body: list[ast.stmt]) -> Iterator[ast.Call]:
        for statement in body:
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._DB_OPS
                ):
                    yield node

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            calls = list(self._db_calls(node.body))
            if not calls:
                continue
            for handler in node.handlers:
                if not self._is_broad(handler):
                    continue
                operations = sorted({call.func.attr for call in calls})  # type: ignore[union-attr]
                yield ctx.finding(
                    self,
                    handler,
                    f"broad except around db call(s) {', '.join(operations)} "
                    "hides the transient/permanent distinction; wrap the call "
                    "in RetryPolicy.run() and catch RetryGiveUpError instead",
                    operations=operations,
                )


@register
class LegacyDetectorKwargs(Rule):
    id = "RPR403"
    name = "api-legacy-detector-kwargs"
    description = (
        "TasteDetector(...) called with pre-1.1 flat keyword arguments; "
        "pass config=DetectorConfig(...) / runtime=RuntimeConfig(...) instead"
    )
    # The shim that translates (and deprecates) these lives in core/detector.
    exclude = ("repro/core/detector.py",)

    # Mirrors detector_config_field_names() + the runtime kwargs the shim
    # accepts; kept literal so the linter stays import-free.
    _CONFIG_KWARGS = {
        "caching",
        "pipelined",
        "prep_workers",
        "infer_workers",
        "scan_method",
        "sample_seed",
        "cache_capacity",
        "batching",
    }
    _RUNTIME_KWARGS = {"tracer", "metrics"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        legacy = self._CONFIG_KWARGS | self._RUNTIME_KWARGS
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and node.keywords):
                continue
            if isinstance(node.func, ast.Name):
                callee = node.func.id
            elif isinstance(node.func, ast.Attribute):
                callee = node.func.attr
            else:
                continue
            if callee != "TasteDetector":
                continue
            used = sorted(
                kw.arg for kw in node.keywords if kw.arg is not None and kw.arg in legacy
            )
            if not used:
                continue
            config_part = [kw for kw in used if kw in self._CONFIG_KWARGS]
            runtime_part = [kw for kw in used if kw in self._RUNTIME_KWARGS]
            hints = []
            if config_part:
                hints.append(f"config=DetectorConfig({', '.join(config_part)}=...)")
            if runtime_part:
                hints.append(f"runtime=RuntimeConfig({', '.join(runtime_part)}=...)")
            yield ctx.finding(
                self,
                node,
                f"TasteDetector(...) uses legacy kwarg(s) {', '.join(used)}; "
                f"pass {' and '.join(hints)} — the shim warns today and "
                "raises under RuntimeConfig(strict_api=True)",
                kwargs=used,
            )


# ----------------------------------------------------------------------
# RPR5xx — inference throughput
# ----------------------------------------------------------------------
@register
class SingleItemCollateInLoop(Rule):
    id = "RPR501"
    name = "sched-single-item-collate-in-loop"
    description = (
        "collate([<one item>]) inside a loop runs a batch-of-1 forward per "
        "iteration; collect encodings and collate once, or submit the chunks "
        "to repro.sched.InferenceBatcher"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and node.args
                and isinstance(node.args[0], ast.List)
                and len(node.args[0].elts) == 1
            ):
                continue
            if isinstance(node.func, ast.Name):
                func_name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                func_name = node.func.attr
            else:
                continue
            if func_name != "collate":
                continue
            in_loop = False
            for ancestor in ancestors(node):
                if isinstance(ancestor, (ast.For, ast.While, ast.AsyncFor)):
                    in_loop = True
                    break
                if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    break
            if in_loop:
                yield ctx.finding(
                    self,
                    node,
                    f"{ast.unparse(node.func)}([...]) with a single element "
                    "inside a loop runs one forward per item; batch the "
                    "encodings into a single collate() call (or use "
                    "repro.sched.InferenceBatcher) to amortize the forward",
                )


@register
class FreshAllocationInNoGradLoop(Rule):
    id = "RPR502"
    name = "nn-fresh-allocation-in-no-grad-loop"
    description = (
        "np.zeros/np.empty/np.concatenate allocated inside a loop on a "
        "repro.nn no-grad path; hoist the buffer out of the loop"
    )

    _ALLOCATORS = ("zeros", "empty", "concatenate")

    def applies_to(self, ctx: FileContext) -> bool:
        return "repro/nn/" in ctx.rel.replace("\\", "/")

    def _in_no_grad_branch(self, node: ast.AST, function: ast.AST | None) -> bool:
        """Inside an ``if`` arm that only runs when grad is disabled."""
        for ancestor in ancestors(node):
            if isinstance(ancestor, ast.If) and "is_grad_enabled" in ast.unparse(
                ancestor.test
            ):
                negated = isinstance(ancestor.test, ast.UnaryOp) and isinstance(
                    ancestor.test.op, ast.Not
                )
                arm = ancestor.body if negated else ancestor.orelse
                if any(node in ast.walk(stmt) for stmt in arm):
                    return True
            if ancestor is function:
                break
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._ALLOCATORS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"
            ):
                continue
            function = _enclosing_function(node)
            in_loop = False
            for ancestor in ancestors(node):
                if isinstance(ancestor, (ast.For, ast.While, ast.AsyncFor)):
                    in_loop = True
                    break
                if ancestor is function:
                    break
            if not in_loop:
                continue
            if not (
                (function is not None and _under_no_grad(node, function))
                or self._in_no_grad_branch(node, function)
            ):
                continue
            yield ctx.finding(
                self,
                node,
                f"np.{node.func.attr}(...) inside a loop on a no-grad path "
                "allocates a fresh buffer every iteration; hoist it out of "
                "the loop and reuse it through the out=-capable kernels",
            )


def rule_catalogue() -> list[tuple[str, str, str]]:
    """``(id, name, description)`` for every registered rule (for docs/CLI)."""
    from .lint import registered_rules

    return [(rule.id, rule.name, rule.description) for rule in registered_rules()]
