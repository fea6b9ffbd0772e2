"""Spans around the calls into each tancat layer, for the traced run.

The wrappers are installed from here only, in every namespace that binds
a wrapped function: tancat's modules, the benchmark's own modules, the
fields of ``DEFAULT_OPS`` (which captured the tanpoint functions when
it was made) and the entries of ``ALL_CHECKS``.  Methods are wrapped on
their class.  Each span records its name, start, end, parent span and
operation; spans stay in arrays in memory and are written out once, by
``save``.  A layer's self time is its span time minus the time of its
child spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from tancat import (algebroid, axioms, cli, domain, expr, fields, gbundle,
                    groupoid, report, tanpoint, tower)

import workloads

BLOCK_OPS = ("project", "zero_lift", "add_fiber", "sub_fiber", "swap_levels",
             "vertical_lift", "vertical_lift_pair", "vertical_pair_parts",
             "scale_level", "partial_tangent", "collapse_inner", "expand_inner",
             "fiber_component")

# (module or class, attribute, span name) for the wrapped public calls
CALLS = (
    [(tower, "lift_primitive", "tower.lift"),
     (expr.Expr, "evaluate", "expr.evaluate"),
     (domain.Domain, "sample", "domain.sample"),
     (tanpoint, "apply_tangent", "tanpoint.apply"),
     (tanpoint, "residual", "tanpoint.residual")]
    + [(tanpoint, name, "tanpoint.blockop") for name in BLOCK_OPS]
    + [(axioms, "run_axiom_suite", "axioms.suite"),
       (fields.VectorField, "at", "fields.at"),
       (fields.ScalarField, "at", "fields.at"),
       (fields, "kernel_residual", "fields.kernel_residual"),
       (fields, "jacobian_at", "fields.jacobian"),
       (fields, "bracket_by_jacobians", "fields.jacobian"),
       (fields, "check_related", "fields.check_related"),
       (fields, "check_bracket_laws", "fields.bracket_laws"),
       (groupoid, "check_groupoid_axioms", "groupoid.laws"),
       (groupoid, "check_differentiability", "groupoid.differentiability")]
    + [(groupoid.FiberedGroupoid, name, "groupoid.sample")
       for name in ("sample_objects", "sample_arrows", "sample_composable",
                    "_with_source")]
    + [(gbundle, name, "gbundle.invariance")
       for name in ("invariance_defect", "is_invariant",
                    "check_invariant_closure")]
    + [(algebroid, "algebroid_of", "algebroid.gate"),
       (algebroid, "check_algebroid_laws", "algebroid.laws"),
       (algebroid, "bracket_table", "algebroid.table"),
       (algebroid.Section, "at", "algebroid.section_at"),
       (report.Report, "dumps", "report.dumps"),
       (cli, "main", "cli.main")])


def _fiber_kind(qualname: str) -> str:
    if qualname.startswith("lie_bracket."):
        return "fields.fiber.bracket"
    if qualname.startswith("extend_to_invariant."):
        return "fields.fiber.extension"
    return "fields.fiber.leaf"


class Tracer:
    """Records spans while installed; ``metrics`` turns them into layers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("q")      # nodes per evaluate, bytes per tower_mul
        self._stack: list[int] = []
        self.op_id = -1
        self.gc_s: list[float] = []
        self.gc_n: list[int] = []
        self._gc_t0 = 0.0
        self._in_op = False
        self._root = None
        self._undo: list = []

    def nid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- recording ----------------------------------------------------

    def wrap(self, fn, pick, aux_of=None):
        """``fn`` recording a span per call; ``pick(args)`` is its name id."""
        kind, parent, op, aux = self.kind, self.parent, self.op, self.aux
        start, end, stack = self.start, self.end, self._stack
        clock, tracer = time.perf_counter, self

        def traced(*args, **kwargs):
            idx = len(start)
            kind.append(pick(args))
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            aux.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if aux_of is not None:
                aux[idx] = aux_of(args, result)
            return result

        return traced

    def run_op(self, run):
        """``run()`` as the next traced operation, under a root span."""
        if self._root is None:
            root = self.nid("bench.op")
            self._root = self.wrap(lambda fn: fn(), lambda args: root)
        self.op_id = len(self.gc_s)
        self.gc_s.append(0.0)
        self.gc_n.append(0)
        self._in_op = True
        try:
            return self._root(run)
        finally:
            self._in_op = False

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._in_op:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s[-1] += time.perf_counter() - self._gc_t0
            self.gc_n[-1] += 1

    # -- installing ---------------------------------------------------

    def _namespaces(self):
        mods = [m for name, m in sys.modules.items()
                if name == "tancat" or name.startswith("tancat.")]
        return mods + [workloads]

    def _rebind(self, original, wrapped) -> None:
        for mod in self._namespaces():
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((setattr, mod, key, original))
        ops = axioms.DEFAULT_OPS
        for f in dataclasses.fields(ops):
            if getattr(ops, f.name) is original:
                # DEFAULT_OPS is frozen; it is also the default argument
                # of run_axiom_suite, so it is changed in place
                object.__setattr__(ops, f.name, wrapped)
                self._undo.append((object.__setattr__, ops, f.name, original))

    def _patch(self, owner, attr: str, wrapped) -> None:
        if isinstance(owner, type):
            self._undo.append((setattr, owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)
        else:
            self._rebind(getattr(owner, attr), wrapped)

    def install(self) -> None:
        for owner, attr, name in CALLS:
            nid = self.nid(name)
            aux_of = ((lambda args, out: len(args[0].nodes))
                      if name == "expr.evaluate" else None)
            self._patch(owner, attr, self.wrap(getattr(owner, attr),
                                               lambda args, n=nid: n, aux_of))
        mul = [self.nid(f"tower.mul.o{k}") for k in range(tower.MAX_ORDER + 1)]
        self._patch(tower, "tower_mul", self.wrap(
            tower.tower_mul, lambda args: mul[args[0].order],
            lambda args, out: (args[0].coeffs.nbytes + args[1].coeffs.nbytes
                               + out.coeffs.nbytes)))
        kinds = {}

        def fiber_kind(args):
            qual = args[0].fn.__qualname__
            if qual not in kinds:
                kinds[qual] = self.nid(_fiber_kind(qual))
            return kinds[qual]

        self._patch(fields.VectorField, "fiber",
                    self.wrap(fields.VectorField.fiber, fiber_kind))
        self._patch(algebroid, "algebroid_bracket",
                    self._traced_bracket(algebroid.algebroid_bracket))
        check = self.nid("axioms.check")
        saved = dict(axioms.ALL_CHECKS)
        axioms.ALL_CHECKS.update({k: self.wrap(fn, lambda args: check)
                                  for k, fn in saved.items()})
        self._undo.append((lambda d, _, v: d.update(v), axioms.ALL_CHECKS,
                           None, saved))
        gc.callbacks.append(self._on_gc)

    def _traced_bracket(self, bracket):
        """Bracket sections whose evaluations record a span each."""
        nid = self.nid("algebroid.bracket_eval")

        def traced(*args, **kwargs):
            sec = bracket(*args, **kwargs)
            return dataclasses.replace(
                sec, fn=self.wrap(sec.fn, lambda a: nid))

        return traced

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo.clear()

    # -- results ------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"kind": np.frombuffer(self.kind, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "aux": np.frombuffer(self.aux, dtype=np.int64)}

    def save(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-operation means of every layer metric, and the counts that
        differ between operations (empty when every count is exact)."""
        a = self.arrays()
        kind, parent, op = a["kind"], a["parent"], a["op"]
        dur = a["end"] - a["start"]
        n_ops = len(self.gc_s)
        has_parent = parent >= 0
        self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                   minlength=len(dur))

        def mask(*prefixes):
            ids = [i for i, n in enumerate(self.names) if n.startswith(prefixes)]
            return np.isin(kind, ids)

        uneven = []

        def count(name, m):
            per_op = np.bincount(op[m], minlength=n_ops)
            if per_op.min() != per_op.max():
                uneven.append(name)
            return float(per_op.sum()) / n_ops

        def self_s(m):
            return float(self_t[m].sum()) / n_ops

        def incl_s(m):
            return float(dur[_outermost(parent, m)].sum()) / n_ops

        out: dict[str, float] = {}
        mul = mask("tower.mul.")
        out["tower.mul_calls"] = count("tower.mul_calls", mul)
        out["tower.mul_s"] = self_s(mul)
        for k in range(tower.MAX_ORDER + 1):
            m = mask(f"tower.mul.o{k}")
            out[f"tower.mul_calls.o{k}"] = count(f"tower.mul_calls.o{k}", m)
            out[f"tower.mul_s.o{k}"] = self_s(m)
        out["tower.mul_bytes"] = float(a["aux"][mul].sum()) / n_ops
        lift = mask("tower.lift")
        out["tower.lift_calls"] = count("tower.lift_calls", lift)
        out["tower.lift_s"] = self_s(lift)
        ev = mask("expr.evaluate")
        out["expr.evaluate_calls"] = count("expr.evaluate_calls", ev)
        nodes_per_op = np.bincount(op[ev], weights=a["aux"][ev], minlength=n_ops)
        if nodes_per_op.min() != nodes_per_op.max():
            uneven.append("expr.nodes")
        nodes = float(nodes_per_op.sum()) / n_ops
        out["expr.nodes"] = nodes
        out["expr.self_s"] = self_s(ev)
        out["expr.self_us_per_node"] = 1e6 * out["expr.self_s"] / max(nodes, 1.0)
        ap, bo = mask("tanpoint.apply"), mask("tanpoint.blockop")
        out["tanpoint.apply_calls"] = count("tanpoint.apply_calls", ap)
        out["tanpoint.apply_self_s"] = self_s(ap)
        out["tanpoint.blockop_calls"] = count("tanpoint.blockop_calls", bo)
        out["tanpoint.blockop_s"] = self_s(bo)
        out["tanpoint.residual_s"] = self_s(mask("tanpoint.residual"))
        out["axioms.self_s"] = self_s(mask("axioms."))
        out["axioms.checks"] = count("axioms.checks", mask("axioms.check"))
        out["fields.fiber_calls"] = count(
            "fields.fiber_calls", mask("fields.fiber.leaf", "fields.fiber.extension"))
        out["fields.bracket_evals"] = count(
            "fields.bracket_evals", mask("fields.fiber.bracket"))
        out["fields.self_s"] = self_s(mask("fields."))
        out["fields.jacobian_s"] = incl_s(mask("fields.jacobian"))
        out["groupoid.laws_s"] = incl_s(mask("groupoid.laws"))
        out["groupoid.differentiability_s"] = incl_s(mask("groupoid.differentiability"))
        out["groupoid.sample_s"] = incl_s(mask("groupoid.sample"))
        ds = mask("domain.sample")
        out["domain.sample_calls"] = count("domain.sample_calls", ds)
        out["domain.sample_s"] = incl_s(ds)
        inv = mask("gbundle.invariance")
        out["gbundle.invariance_calls"] = count("gbundle.invariance_calls", inv)
        out["gbundle.invariance_s"] = incl_s(inv)
        out["algebroid.extend_calls"] = count(
            "algebroid.extend_calls", mask("fields.fiber.extension"))
        out["algebroid.bracket_evals"] = count(
            "algebroid.bracket_evals", mask("algebroid.bracket_eval"))
        out["algebroid.laws_s"] = incl_s(mask("algebroid.laws"))
        out["algebroid.table_s"] = incl_s(mask("algebroid.table"))
        out["report.dumps_s"] = incl_s(mask("report.dumps"))
        out["cli.self_s"] = self_s(mask("cli.main"))
        out["bench.self_s"] = self_s(mask("bench.op"))
        out["interp.gc_collections"] = float(sum(self.gc_n)) / n_ops
        out["interp.gc_s"] = float(sum(self.gc_s)) / n_ops
        return out, uneven


def _outermost(parent: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Spans in ``m`` that have no ancestor in ``m``."""
    covered = np.zeros(len(m), dtype=bool)
    anc = parent.copy()
    live = m & (anc >= 0)
    while live.any():
        idx = np.flatnonzero(live)
        up = anc[idx]
        hit = m[up]
        covered[idx[hit]] = True
        anc[idx] = parent[up]
        live[idx] = ~hit & (parent[up] >= 0)
    return m & ~covered
