"""Shared test helpers: scenario shorthands and acceptance verdict lines."""

from __future__ import annotations

from sdexit import (
    ProblemSpec,
    ProblemVariant,
    acc_model,
    scenario_barrier,
)


def scenario_spec(index: int, w: float, delta: float = 10.0, **kw) -> ProblemSpec:
    variant = ProblemVariant.PROBLEM_II if index == 3 else ProblemVariant.PROBLEM_I
    return ProblemSpec(
        variant=variant,
        barrier=scenario_barrier(index),
        weight_w=w,
        delta=delta,
        **kw,
    )


def acc() -> "object":
    return acc_model()


# one verdict line per acceptance criterion, emitted after capture ends so
# the lines always appear in the terminal output (and in tee'd logs)
acceptance_verdicts: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)
