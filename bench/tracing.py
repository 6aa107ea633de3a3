"""In-process spans around the public functions of ``rbsde_lab``.

Nothing in the program is edited: ``instrument`` replaces, for the duration
of a ``with`` block, each function under the name by which the calling
module imported it (``rbsde_lab.penalty.solve_penalized`` is the name
``run_sweep`` calls), plus two methods on their classes. Spans nest by call
order, so a layer's self time is its span time minus the time covered by
the spans it called, and the self times of all spans add up to the time of
the root spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from dataclasses import dataclass, field

# (module or class path, attribute, span name). A span name is the layer.
PATCHES = (
    ("rbsde_lab.cli", "load_config", "config.load"),
    ("rbsde_lab.cli", "build_lattice", "lattice.build"),
    ("rbsde_lab.lattice:Lattice", "node_weights", "lattice.node_weights"),
    ("rbsde_lab.cli", "solve_snell", "snell.solve"),
    ("rbsde_lab.penalty", "solve_snell", "snell.solve"),
    ("rbsde_lab.cli", "snell_to_csv", "snell.csv"),
    ("rbsde_lab.cli", "run_sweep", "penalty.sweep"),
    ("rbsde_lab.cli", "check_uniform_bound", "penalty.sweep"),
    ("rbsde_lab.penalty", "solve_penalized", "penalty.solve"),
    ("rbsde_lab.cli", "validate_solution", "problem.validate"),
    ("rbsde_lab.estimates", "validate_solution", "problem.validate"),
    ("rbsde_lab.penalty", "lattice_sup_moment", "problem.sup_moment"),
    ("rbsde_lab.estimates", "lattice_sup_moment", "problem.sup_moment"),
    ("rbsde_lab.penalty", "lattice_accumulation_moment", "problem.accumulation_moment"),
    ("rbsde_lab.estimates", "lattice_accumulation_moment", "problem.accumulation_moment"),
    ("rbsde_lab.problem:SolutionTriple", "k_nodewise", "problem.k_nodewise"),
    ("rbsde_lab.cli", "check_y_estimate", "estimates"),
    ("rbsde_lab.cli", "check_z_estimate", "estimates"),
    ("rbsde_lab.cli", "check_k_estimate", "estimates"),
    ("rbsde_lab.cli", "check_stability", "estimates"),
    ("rbsde_lab.cli", "append_report_jsonl", "estimates"),
    ("rbsde_lab.cli", "solve_pde_projected", "pde.projected"),
    ("rbsde_lab.cli", "solve_pde_penalized", "pde.penalized"),
    ("rbsde_lab.cli", "pde_field_to_csv", "pde.csv"),
)

LAYERS = (
    "cli",
    "config.load",
    "lattice.build",
    "lattice.node_weights",
    "snell.solve",
    "snell.csv",
    "penalty.solve",
    "penalty.sweep",
    "problem.validate",
    "problem.sup_moment",
    "problem.accumulation_moment",
    "problem.k_nodewise",
    "estimates",
    "pde.projected",
    "pde.penalized",
    "pde.csv",
)


def _lattice_counts(args, kwargs, lattice):
    arrays = lattice.nodes + lattice.up_prob
    return {
        "nodes": sum(a.size for a in lattice.nodes),
        "bytes": sum(a.nbytes for a in arrays),
    }


def _solve_counts(args, kwargs, result):
    return {"nodes": sum(a.size for a in args[0].nodes)}


def _file_counts(args, kwargs, result):
    path = args[-1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _pde_counts(args, kwargs, result):
    grid = args[0]
    return {"cells": grid.m_nodes * grid.time.n_steps}


COUNTERS = {
    "lattice.build": _lattice_counts,
    "snell.solve": _solve_counts,
    "snell.csv": _file_counts,
    "pde.csv": _file_counts,
    "pde.projected": _pde_counts,
    "pde.penalized": _pde_counts,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    experiment: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; ``experiment`` tags every span opened meanwhile."""

    def __init__(self):
        self.spans = []
        self.experiment = ""
        self._stack = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.experiment)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list:
        """Self time of every span: its duration minus its children's durations."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def to_records(self) -> list:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "experiment": s.experiment,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every patch target and each CLI command; restore them on exit."""
    dispatch = importlib.import_module("rbsde_lab.cli")._DISPATCH
    commands = dict(dispatch)
    saved = []
    try:
        for target, attr, name in PATCHES:
            owner = _resolve(target)
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        for command, fn in commands.items():
            dispatch[command] = tracer.wrap("cli", fn)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        dispatch.update(commands)
