"""Declarative experiment sweeps with parallel fan-out.

Every sweep in this codebase — block sensitivity (Fig. 3), threshold /
update-period analysis (Fig. 11), per-workload hardware evaluation
(Fig. 12), PE-scaling studies — has the same shape: a Cartesian grid of
parameter values, one evaluation function, one result per grid point.  This
module gives that shape a first-class API:

    spec = SweepSpec(name="pe-scaling", grid={"multipliers": [64, 128, 256]})
    result = run_sweep(lambda multipliers: simulate(multipliers), spec)
    result.values()  # in grid order, regardless of executor

Execution goes through the unified execution API
(:mod:`repro.core.execution`): pass any :class:`~repro.core.execution.Executor`
— an ``InlineExecutor``, an ``EvaluationService`` or a
``RemoteEvaluationClient`` — and the sweep's grid points are submitted as
jobs on it.  Omitting ``executor`` runs them on an evaluation service of the
sweep's own, whose thread pool fans them out (the NumPy-heavy evaluation
functions release the GIL for their array work).  Results always come back
in deterministic grid order;
failures either propagate (``on_error="raise"``) or are captured per-case
(``on_error="capture"``) so one bad design point cannot sink a
thousand-point sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from .execution import Executor, InlineExecutor, JobFailedError, LocalCallSpec


@dataclass(frozen=True)
class SweepSpec:
    """A named Cartesian parameter grid.

    ``grid`` maps parameter names to the values they sweep over; the sweep
    enumerates the full cross product in row-major order (last parameter
    varies fastest), matching nested-loop reading order.
    """

    name: str
    grid: Mapping[str, Sequence[Any]]

    def __post_init__(self) -> None:
        if not self.grid:
            raise ValueError("sweep grid must name at least one parameter")
        for param, values in self.grid.items():
            if len(values) == 0:
                raise ValueError(f"sweep parameter {param!r} has no values")

    @property
    def num_cases(self) -> int:
        size = 1
        for values in self.grid.values():
            size *= len(values)
        return size

    def cases(self) -> list[dict[str, Any]]:
        """All parameter assignments of the grid, in deterministic order."""
        names = list(self.grid)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self.grid[name] for name in names))
        ]


@dataclass
class SweepCaseResult:
    """Outcome of one grid point."""

    index: int
    params: dict[str, Any]
    value: Any = None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepResult:
    """All grid-point outcomes of one sweep, in grid order."""

    spec: SweepSpec
    cases: list[SweepCaseResult] = field(default_factory=list)

    def values(self) -> list[Any]:
        """The per-case values, raising if any case failed."""
        for case in self.cases:
            if not case.ok:
                raise RuntimeError(
                    f"sweep {self.spec.name!r} case {case.params} failed"
                ) from case.error
        return [case.value for case in self.cases]

    def failures(self) -> list[SweepCaseResult]:
        return [case for case in self.cases if not case.ok]


def run_sweep(
    fn: Callable[..., Any] | str,
    spec: SweepSpec | Mapping[str, Sequence[Any]],
    *,
    executor: Executor | None = None,
    max_workers: int | None = None,
    on_error: str = "raise",
) -> SweepResult:
    """Evaluate ``fn(**params)`` over every grid point of ``spec``.

    Parameters
    ----------
    fn:
        Evaluation function taking the grid's parameters as keyword
        arguments, or a registered wire-function *name*.  A
        :class:`~repro.serve.client.RemoteEvaluationClient` needs a
        registered wire function (or its name), since remote jobs cross the
        wire as typed JSON specs, never as code.
    spec:
        A :class:`SweepSpec`, or a bare ``{param: values}`` mapping which is
        wrapped into an anonymous spec.
    executor:
        Any :class:`~repro.core.execution.Executor` (left open for the
        caller to close), or None for an evaluation service of this call's
        own, closed when the sweep ends.
    max_workers:
        Thread count of that owned service (library default if None);
        ignored when an executor is given.
    on_error:
        ``"raise"`` propagates the first failure; ``"capture"`` records the
        exception on the affected :class:`SweepCaseResult` and continues.
        Remote failures carry the server-side error message, not the
        original exception type.
    """
    if not isinstance(spec, SweepSpec):
        spec = SweepSpec(name="sweep", grid=dict(spec))
    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture', got {on_error!r}")

    owned = executor is None
    if executor is None:
        from ..serve.service import EvaluationService

        executor = EvaluationService(max_workers=max_workers)
    elif not isinstance(executor, Executor):
        # Catch the likely slip (an executor *name*) before it surfaces as a
        # bare AttributeError deep in map().
        raise TypeError(
            "executor must be a repro.core.execution.Executor — an InlineExecutor, "
            "an EvaluationService or a RemoteEvaluationClient — or None for a "
            f"service of the sweep's own; got {type(executor).__name__}"
        )

    cases = [SweepCaseResult(index=i, params=params) for i, params in enumerate(spec.cases())]
    call_specs = [LocalCallSpec(fn=fn, kwargs=case.params) for case in cases]
    labels = [f"{spec.name}[{case.index}]" for case in cases]
    try:
        if isinstance(executor, InlineExecutor) and on_error == "raise":
            # Inline execution is synchronous, so submit case by case: the
            # first failure stops the sweep without running the rest of the
            # grid (the historical serial-executor contract).
            handles = []
            for call_spec, label in zip(call_specs, labels):
                handle = executor.submit(call_spec, label)
                if handle.error is not None:
                    raise handle.error
                handles.append(handle)
        else:
            handles = executor.map(call_specs, labels=labels)
        for case, handle in zip(cases, handles):
            handle.wait()
            if handle.ok:
                case.value = handle.result()
            else:
                error = handle.error or JobFailedError(f"job {handle.id} {handle.status.value}")
                if on_error == "raise":
                    raise error
                case.error = error
    finally:
        if owned:
            executor.close()

    return SweepResult(spec=spec, cases=cases)


def sweep_table(
    result: SweepResult, value_label: str = "value"
) -> tuple[list[str], list[list[Any]]]:
    """(header, rows) view of a sweep, ready for :func:`repro.analysis.tables.format_table`."""
    header = list(result.spec.grid) + [value_label]
    rows = [
        [case.params[name] for name in result.spec.grid]
        + [case.value if case.ok else f"error: {case.error}"]
        for case in result.cases
    ]
    return header, rows
