"""Repo-invariant rules: R301–R309 (R307 retired).

These encode decisions this codebase has already made, so drift is
caught at lint time instead of in review:

* **R301** — pickle is a deserialization attack surface: unpickling
  peer bytes runs peer code.  No module under ``src/repro`` imports or
  calls it; the wire speaks only the typed codec in ``repro.api.wire``.
* **R302** — similarity methods and indexes are dispatched through the
  ``repro.api`` registries; a hand-rolled ``if name == "trajcl": ...``
  chain silently misses newly registered backends.
* **R303** — mutable default arguments alias across calls.
* **R304** — bare ``except:`` swallows ``KeyboardInterrupt`` /
  ``SystemExit``, which breaks the serving stack's graceful shutdown.
* **R305** — ``np.asarray`` / ``np.array`` on an embedding array
  without ``dtype=`` silently re-infers dtype; the float32 cache work
  (PR 4) made embedding dtype part of the contract.
* **R306** — every ``.npz`` artifact writer stamps ``format_version``
  so snapshots stay loadable across releases.
* **R308** — a retry loop that sleeps a *constant* between attempts has
  no backoff: every retrier in a fleet wakes in lockstep and hammers
  the recovering peer (the serving stack's connect/retry paths all
  scale and jitter their waits — see ``SocketTransport.connect`` and
  the remote client's transient retry).
* **R309** — the quantized-index scan kernels (``repro/index/quant.py``,
  ``pq.py``, ``hnsw.py``) are dtype-preserving by contract: codes stay
  uint8/int16 and accumulators stay float32, so a scan over 10⁶ vectors
  never materializes an 8-byte-per-element intermediate. Inside those
  modules' search/scan/ADC/LUT functions, an ``astype(float64)``, a
  ``dtype=np.float64`` keyword, or a default-float64 allocator
  (``np.zeros``/``np.empty``/... without ``dtype=``) silently doubles
  the scan's working set and fires this rule.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional

from .core import Checker, FileContext, Finding, Rule, register_checker

__all__ = [
    "RULE_R301", "RULE_R302", "RULE_R303",
    "RULE_R304", "RULE_R305", "RULE_R306", "RULE_R308",
    "RULE_R309",
]

RULE_R301 = Rule(
    "R301", "error",
    "pickle import or call",
    "use an explicit format: the repro.api.wire codec for frames, json "
    "or npz (allow_pickle=False) for files",
)
RULE_R302 = Rule(
    "R302", "warning",
    "hand-rolled backend/index dispatch bypassing the registries",
    "call repro.api.get_backend(name) / the index registry instead of "
    "comparing the name against literals",
)
RULE_R303 = Rule(
    "R303", "warning",
    "mutable default argument",
    "default to None and create the list/dict/set inside the function",
)
RULE_R304 = Rule(
    "R304", "warning",
    "bare `except:` clause",
    "catch Exception (or something narrower); bare except swallows "
    "KeyboardInterrupt/SystemExit and breaks graceful shutdown",
)
RULE_R305 = Rule(
    "R305", "warning",
    "np.array/np.asarray on an embedding value without dtype=",
    "pass dtype= explicitly (embedding dtype is part of the cache/index "
    "contract since the float32 cache work)",
)
RULE_R306 = Rule(
    "R306", "warning",
    "np.savez* writer without a format_version field",
    "include format_version in the saved mapping so the artifact can be "
    "validated on load",
)
RULE_R308 = Rule(
    "R308", "warning",
    "constant time.sleep in a retry loop (no backoff)",
    "scale the wait between attempts (exponential backoff, ideally with "
    "jitter) so a fleet of retriers does not wake in lockstep against a "
    "recovering peer",
)
RULE_R309 = Rule(
    "R309", "warning",
    "float64 intermediate materialized in a quantized-index scan path",
    "quantized kernels are dtype-preserving: allocate with an explicit "
    "narrow dtype (float32/uint8/int16) and never astype/dtype=float64 "
    "inside ADC/int8/graph scan code",
)

#: modules whose loaders unpickle their input
_PICKLE_MODULES = {"pickle", "_pickle", "cPickle", "cloudpickle", "dill",
                   "shelve"}
#: modules that legitimately compare backend/index names
_DISPATCH_ALLOWED_MODULES = {"registry", "backends", "indexes", "service"}
#: registered similarity backends + index kinds (see repro.api.registry)
_KNOWN_DISPATCH_NAMES = {
    "trajcl", "t2vec", "neutraj", "traj2simvec", "cstrm", "e2dtc",
    "t3s", "trajgat", "trjsr", "hausdorff", "frechet", "edr", "edwp",
    "bruteforce", "ivf", "segment", "pq", "int8", "hnsw",
}

#: modules holding the quantized-index scan kernels R309 polices
_QUANTIZED_SCAN_MODULES = {"quant", "pq", "hnsw"}
#: function names that are part of a quantized scan path (training code —
#: k-means over float64 — is deliberately out of scope)
_QUANTIZED_SCAN_FUNC = re.compile(
    r"(search|scan|adc|lut|decode|distance)", re.IGNORECASE
)
#: numpy allocators whose dtype defaults to float64
_DEFAULT_FLOAT64_ALLOCATORS = {"zeros", "empty", "ones", "full"}


def _attr_chain(node: ast.AST) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _is_pickle_module(dotted: str) -> bool:
    return dotted.split(".")[0] in _PICKLE_MODULES


@register_checker
class PickleChecker(Checker):
    """R301 — no pickle anywhere: imports, calls, ``allow_pickle=True``."""

    rules = (RULE_R301,)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            hits: List[str] = []
            if isinstance(node, ast.Import):
                hits = [f"import {alias.name}" for alias in node.names
                        if _is_pickle_module(alias.name)]
            elif isinstance(node, ast.ImportFrom):
                if _is_pickle_module(node.module or ""):
                    hits = [f"from {node.module} import ..."]
            elif isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if "." in chain and _is_pickle_module(chain):
                    hits = [f"{chain}(...)"]
                elif chain.endswith("np.load") or chain == "numpy.load":
                    if any(kw.arg == "allow_pickle"
                           and isinstance(kw.value, ast.Constant)
                           and kw.value.value is True
                           for kw in node.keywords):
                        hits = ["np.load(..., allow_pickle=True)"]
            findings.extend(ctx.finding(RULE_R301, node, hit) for hit in hits)
        return findings


@register_checker
class RegistryBypassChecker(Checker):
    """R302 — if/elif ladders re-implementing registry dispatch."""

    rules = (RULE_R302,)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.module_name in _DISPATCH_ALLOWED_MODULES:
            return ()
        findings: List[Finding] = []
        seen_chain_heads = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.If) or id(node) in seen_chain_heads:
                continue
            # Walk the elif chain once, from its head.
            parent = FileContext.parent(node)
            if isinstance(parent, ast.If) and node in parent.orelse:
                continue
            matches = {}
            current: Optional[ast.If] = node
            while current is not None:
                seen_chain_heads.add(id(current))
                for var, value in self._dispatch_compares(current.test):
                    matches.setdefault(var, set()).add(value)
                nxt = current.orelse
                current = (
                    nxt[0]
                    if len(nxt) == 1 and isinstance(nxt[0], ast.If)
                    else None
                )
            for var, values in matches.items():
                if len(values) >= 2:
                    names = ", ".join(sorted(values))
                    findings.append(ctx.finding(
                        RULE_R302, node,
                        f"if/elif chain dispatches on {var!r} against "
                        f"registered names ({names}) instead of using the "
                        f"registry",
                    ))
        return findings

    @staticmethod
    def _dispatch_compares(test: ast.AST):
        """(variable, known-name) pairs compared for equality in a test."""
        out = []
        for node in ast.walk(test):
            if not isinstance(node, ast.Compare) or len(node.ops) != 1:
                continue
            if not isinstance(node.ops[0], ast.Eq):
                continue
            left, right = node.left, node.comparators[0]
            if isinstance(left, ast.Constant):  # "trajcl" == name
                left, right = right, left
            if (
                isinstance(left, ast.Name)
                and isinstance(right, ast.Constant)
                and isinstance(right.value, str)
                and right.value in _KNOWN_DISPATCH_NAMES
            ):
                out.append((left.id, right.value))
        return out


@register_checker
class MutableDefaultChecker(Checker):
    """R303 — list/dict/set literals as default arguments."""

    rules = (RULE_R303,)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in {"list", "dict", "set"}
                ):
                    findings.append(ctx.finding(
                        RULE_R303, default,
                        f"mutable default argument in {node.name}(...)",
                    ))
        return findings


@register_checker
class BareExceptChecker(Checker):
    """R304 — except clauses with no exception type."""

    rules = (RULE_R304,)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                findings.append(ctx.finding(
                    RULE_R304, node, "bare `except:` clause",
                ))
        return findings


@register_checker
class EmbeddingDtypeChecker(Checker):
    """R305 — dtype-dropping numpy conversions of embedding arrays."""

    rules = (RULE_R305,)

    _CONVERTERS = {"array", "asarray", "asanyarray", "ascontiguousarray"}

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in self._CONVERTERS
                and isinstance(func.value, ast.Name)
                and func.value.id in {"np", "numpy"}
            ):
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            for arg in node.args[:1]:
                text = _attr_chain(arg) if isinstance(
                    arg, (ast.Name, ast.Attribute)
                ) else ""
                if "emb" in text.lower():
                    findings.append(ctx.finding(
                        RULE_R305, node,
                        f"np.{func.attr}({text}, ...) without dtype= drops "
                        f"the embedding dtype contract",
                    ))
        return findings


@register_checker
class RetryBackoffChecker(Checker):
    """R308 — retry loops that sleep a constant between attempts.

    The shape it hunts: a ``for``/``while`` whose body both catches an
    exception (the retry) and calls ``time.sleep(<literal>)`` (the
    fixed wait). A *variable* sleep argument is taken as evidence of a
    backoff and left alone — the rule polices the pattern, not the
    math. Plain polling loops (sleep but no try) don't fire.
    """

    rules = (RULE_R308,)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _attr_chain(node.func) != "time.sleep":
                continue
            if not node.args or not isinstance(node.args[0], ast.Constant):
                continue  # variable wait: (presumably) already a backoff
            loop = ctx.enclosing(node, (ast.For, ast.While, ast.AsyncFor))
            if loop is None:
                continue
            if not any(isinstance(sub, ast.Try) for sub in ast.walk(loop)):
                continue  # a polling loop, not a retry loop
            findings.append(ctx.finding(
                RULE_R308, node,
                "retry loop sleeps a constant between attempts; scale "
                "the wait (exponential backoff, ideally jittered)",
            ))
        return findings


@register_checker
class NpzFormatVersionChecker(Checker):
    """R306 — npz writers that don't stamp format_version."""

    rules = (RULE_R306,)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in {"savez", "savez_compressed"}
            ):
                continue
            scope = ctx.enclosing(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) or ctx.tree
            stamped = any(
                isinstance(sub, ast.Constant) and sub.value == "format_version"
                for sub in ast.walk(scope)
            ) or any(
                kw.arg == "format_version" for kw in node.keywords
            )
            if not stamped:
                findings.append(ctx.finding(
                    RULE_R306, node,
                    f"np.{func.attr}(...) writer has no format_version field "
                    f"in scope",
                ))
        return findings


def _is_float64_ref(node: ast.AST) -> bool:
    """True when *node* names float64 — np.float64, "float64", or float."""
    if isinstance(node, ast.Constant):
        return node.value in ("float64", "float")
    if isinstance(node, ast.Name):
        return node.id == "float"
    chain = _attr_chain(node)
    return chain is not None and chain.endswith("float64")


@register_checker
class QuantizedScanDtypeChecker(Checker):
    """R309 — float64 intermediates in quantized-index scan paths.

    Scoped to the quantized-index modules (``quant``, ``pq``, ``hnsw``)
    and, within them, to functions whose name marks them as part of the
    scan path (search/scan/adc/lut/decode/distance). Three shapes fire:
    ``x.astype(float64-ish)``, an explicit ``dtype=float64-ish`` keyword,
    and the sneakiest one — a ``np.zeros/empty/ones/full`` call with no
    ``dtype=`` at all, whose numpy default is float64.
    """

    rules = (RULE_R309,)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.module_name not in _QUANTIZED_SCAN_MODULES:
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            scope = ctx.enclosing(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            if scope is None or not _QUANTIZED_SCAN_FUNC.search(scope.name):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "astype"
                and node.args
                and _is_float64_ref(node.args[0])
            ):
                findings.append(ctx.finding(
                    RULE_R309, node,
                    f"astype(float64) inside scan path {scope.name}(); "
                    f"quantized kernels must stay float32-or-narrower",
                ))
                continue
            widened = next(
                (
                    kw for kw in node.keywords
                    if kw.arg == "dtype" and kw.value is not None
                    and _is_float64_ref(kw.value)
                ),
                None,
            )
            if widened is not None:
                findings.append(ctx.finding(
                    RULE_R309, node,
                    f"dtype=float64 inside scan path {scope.name}(); "
                    f"quantized kernels must stay float32-or-narrower",
                ))
                continue
            chain = _attr_chain(func)
            if (
                chain is not None
                and chain.startswith(("np.", "numpy."))
                and chain.rsplit(".", 1)[-1] in _DEFAULT_FLOAT64_ALLOCATORS
                and not any(kw.arg == "dtype" for kw in node.keywords)
            ):
                findings.append(ctx.finding(
                    RULE_R309, node,
                    f"np.{chain.rsplit('.', 1)[-1]}(...) without dtype= in "
                    f"scan path {scope.name}() allocates float64; pass an "
                    f"explicit narrow dtype",
                ))
        return findings
