"""``repro.analysis`` — the ``repro-lint`` static invariant checker.

Every hard guarantee this reproduction makes is a *contract* that used
to live in comments and be enforced only by whichever test happened to
exercise the offending path.  This package turns those contracts into
AST-checked rules that run in CI on every push (``repro-lint``, next to
the ruff job), with per-line named suppressions, a checked-in baseline
(kept empty), and a ``--json`` mode for CI annotations.

Rules and the contracts they encode
===================================

==================== ========================================================= =============================================================
Rule                 Contract                                                  Where the contract was previously stated
==================== ========================================================= =============================================================
det-hash             Never builtin ``hash()``: salted by ``PYTHONHASHSEED``;   ``engine/database.py`` (dataset_fingerprint docstring),
                     use length-prefixed crc32.                                ``workloads/base.py`` ("a process-stable hash"),
                                                                               ``engine/wire.py`` module docstring.
det-unseeded-random  No global-state RNG calls (``random.random()``,           seeded-``default_rng`` discipline throughout
                     ``np.random.rand()``); only explicit generators.          ``catalog/datagen.py`` and ``workloads/base.py``;
                                                                               local == remote parity in ``tests/test_remote_backend.py``.
det-set-order        No bare set iteration where order can leak into           sorted iteration in ``optimizer/dp.py`` and the plan
                     output; wrap in ``sorted()``.                             encoders; trajectory-parity tests.
clock-wall           No ``time.time()`` / ``datetime.now()`` in ``src/``.      ``engine/context.py`` module docstring ("Timestamps are
                                                                               time.monotonic seconds").
clock-monotonic      ``time.monotonic`` only inside the sanctioned clock       same docstring; ``MonotonicClock`` is the injectable
                     (``engine/context.py``).                                  clock for every layer.
clock-perf-counter   ``perf_counter`` only in profiling/latency-measurement    ``nn/tensor.py`` (``Function.apply``); latency fields
                     code (declarative allowlist).                             in ``stats()``.
layer-import         Imports follow the declared package DAG                   ROADMAP architecture section; fixed day-one violation:
                     (``[tool.repro-lint.layers]``); engine never imports      ``engine/wire.py`` importing ``repro.api.context``.
                     api.
lock-blocking        No unbounded blocking call (recv/accept/join/wait
                     without timeout, pipe/socket round trips) while           connection discipline documented on
                     lexically holding a lock, unless annotated                ``RemoteBackend._call`` (lock held across one full
                     ``# repro-lint: allow[lock-blocking]`` with a reason.     send→recv round trip).
rpc-parity           Ops the ``RemoteBackend`` client emits == ops             ``engine/remote/server.py`` module docstring (protocol
                     ``EngineServer._dispatch`` handles (modulo declared       description); ``tests/test_remote_backend.py``.
                     server-only ops).
rpc-arity            (flow) Per op, the tuple payload the client encodes       the ``_dispatch`` destructuring assignments
                     matches what the server's dispatch branch                 (``queries, options = body``) vs the client's
                     destructures; ``None`` payloads never hit a               ``self._call("op", (...))`` tuples.
                     destructuring branch.
lock-order           (flow) The global lock-acquisition graph — ``with``       lock-ordering comments on ``OptimizerService``
                     nesting plus calls made while holding a lock,             (``_optimize_lock`` "only ever taken without _lock
                     resolved through the project call graph — has no          held"), ``ServiceGroup`` (build outside ``_lock``),
                     cross-lock cycle.  Bounded acquires                       per-connection locks in ``RemoteBackend._acquire``.
                     (``timeout=``/``blocking=False``) and re-entry on
                     one lock are exempt.
ctx-propagation      (flow) Every ``*_many`` backend implementation            ``RequestContext`` lifecycle docs in ``engine/context.py``
                     consults ``ctxs`` on every CFG path before the            and the per-item ``None``-slot convention on
                     planning work; every api function that mints a           ``EngineBackend`` batch methods.
                     ``RequestContext`` uses it on every normal return
                     path (raise paths may legitimately refuse).
resource-release     (flow) Sockets, worker pipes and acquired                 ``_Connection.drop``, ``RemoteBackend.close`` and
                     connection locks are released or ownership-               ``EngineServer._serve_client`` finally blocks.
                     transferred on every CFG path, exception edges
                     included.
bad-suppression      (engine) suppressions carry known rule names;             —
                     ``allow[]`` and typos are findings themselves.
parse-error          (engine) every linted file parses.                        —
==================== ========================================================= =============================================================

The four ``(flow)`` rules are built on the flow foundations in this
package: :mod:`repro.analysis.cfg` (per-function statement-level CFGs
with branch/loop/finally/exception edges), :mod:`repro.analysis.callgraph`
(a project-wide call graph with ``self``/hierarchy resolution and
explicit unknown nodes) and :mod:`repro.analysis.dataflow` (forward /
backward worklist solvers with per-edge-kind facts).  Soundness caveats,
on purpose and documented per rule: unknown callees are assumed to
acquire no locks, release calls are treated as non-raising, bounded lock
acquires generate no ordering edges, and a bare ``f(x)`` argument is a
use — not an ownership transfer — while container/collection hand-offs
transfer.

Usage::

    repro-lint                     # lint [tool.repro-lint] paths
    repro-lint src tests           # explicit paths
    repro-lint --format json src   # CI annotation mode (--json still works)
    repro-lint --format sarif src  # SARIF 2.1.0 for code-scanning upload
    repro-lint --since origin/main # only files changed against a revision
    repro-lint --cache src         # per-file result cache (content-fingerprinted)
    repro-lint --list-rules        # this table, one line per rule

Suppressing a finding (rule name mandatory, justify on the same line or
the line above)::

    conn.round_trip(req)  # repro-lint: allow[lock-blocking] — pipe discipline

Adding a rule: write a check function in a module under
``repro.analysis.rules`` and decorate it with
:func:`repro.analysis.registry.rule`, giving the rule name and the
one-line contract; import the module from ``repro.analysis.rules``.
File-scoped checks receive ``(SourceFile, Project)`` and yield
:class:`~repro.analysis.core.Finding`; project-scoped checks receive
``(Project,)``.  Configuration belongs in ``[tool.repro-lint]`` —
rules read it from ``project.config``, never hardcode paths.
"""

from repro.analysis.config import LintConfig, LintConfigError
from repro.analysis.core import Baseline, Finding, Project, SourceFile
from repro.analysis.registry import Rule, all_rules, known_rule_names, rule

__all__ = [
    "Baseline",
    "Finding",
    "LintConfig",
    "LintConfigError",
    "Project",
    "Rule",
    "SourceFile",
    "all_rules",
    "known_rule_names",
    "rule",
]
