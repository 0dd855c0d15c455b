"""repro.analysis — static analysis + runtime sanitizer for the stack.

Two halves, one lock model:

* ``repro lint`` (see :mod:`.core`, :mod:`.lockgraph`,
  :mod:`.concurrency`, :mod:`.invariants`, :mod:`.lint_cli`): stdlib
  ``ast``/``symtable`` checkers for concurrency discipline (lock-order
  cycles, unlocked shared writes, daemon-less threads, blocking calls
  under a lock) and repo invariants (no pickle, registry
  dispatch, mutable defaults, bare except, embedding dtype, npz
  ``format_version``), with linted ``# repro: allow[RULE] reason``
  suppressions;
* the runtime lock-order sanitizer (see :mod:`.sanitizer`), enabled by
  ``REPRO_LOCK_SANITIZER=1`` in the slow suite, which order-checks real
  acquisitions and raises *before* an ABBA deadlock can form.

Importing this package registers every shipped checker.
"""

from .core import (
    Checker,
    FileContext,
    Finding,
    LintReport,
    Rule,
    all_rules,
    lint_paths,
    register_checker,
    rule_catalog,
)

# Importing the checker modules registers their rules.
from . import concurrency  # noqa: F401  (registration side effect)
from . import invariants  # noqa: F401  (registration side effect)
from . import lockgraph  # noqa: F401  (registration side effect)
from .sanitizer import (
    ENV_VAR,
    LockOrderError,
    disable_lock_sanitizer,
    enable_lock_sanitizer,
    install_from_env,
    lock_graph_snapshot,
    reset_lock_graph,
    sanitizer_active,
    sanitizer_enabled,
)

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "all_rules",
    "lint_paths",
    "register_checker",
    "rule_catalog",
    "ENV_VAR",
    "LockOrderError",
    "disable_lock_sanitizer",
    "enable_lock_sanitizer",
    "install_from_env",
    "lock_graph_snapshot",
    "reset_lock_graph",
    "sanitizer_active",
    "sanitizer_enabled",
]
