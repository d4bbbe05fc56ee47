"""Shared fixtures: scenario runs and property checks are expensive, so
trajectories, cross-check reports and property rows are computed once per
session and shared."""

import pytest

from degenlog.properties import suite_properties
from degenlog.scenarios import (cross_check, registry, run_scenario,
                                scenario_grid)


class ScenarioCache:
    """Lazily computed (trajectory, cross-check report) per label."""

    def __init__(self):
        self._reg = registry()
        self._data = {}

    @property
    def labels(self):
        return list(self._reg)

    def scenario(self, label):
        return self._reg[label]

    def entry(self, label):
        if label not in self._data:
            s = self._reg[label]
            grid = scenario_grid(s)
            tr = run_scenario(s, grid)
            self._data[label] = (tr, cross_check(s, tr, grid))
        return self._data[label]

    def trajectory(self, label):
        return self.entry(label)[0]

    def report(self, label):
        return self.entry(label)[1]


@pytest.fixture(scope="session")
def cache():
    return ScenarioCache()


@pytest.fixture(scope="session")
def properties():
    """Rows (name, ok, detail) of acceptance criteria 01-05."""
    return suite_properties()
