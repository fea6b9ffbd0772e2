"""The benchmark's three workloads: inputs, one operation, and its gates.

A workload builds every input once from the benchmark seed.  ``run()``
is one operation, the part that is timed; every operation of a workload
does the same work.  ``check(result)`` holds the operation's outputs
against numpy computations and properties that do not come from the
program, and returns the problems it found: an empty list means the
operation is correct.  It also sets ``points``, the sample points the
operation verified.

All calls into tancat go through its public entry points: ``cli.main``
for reports, and the package's functions for brackets.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np

import tancat
from tancat import cli
from tancat.axioms import ALL_CHECKS, DEFAULT_OPS, run_axiom_suite
from tancat.expr import ExprBuilder

TOL = 1e-9          # the CLI's default tolerance, passed explicitly
ROUNDOFF = 1e-10    # relative size allowed for an identity that holds exactly
OUT = Path(__file__).resolve().parent / "out"


# -- shared gates -----------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"not strict JSON: holds {name}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One ``tancat`` command in-process: its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class ReportGate:
    """Gates every report of a workload, and counts the points it checked.

    ``callers`` names the checks that call a corrupted operation; it is
    None for good inputs.  A good report exits 0 with every residual
    finite and within the tolerance.  A known-bad one exits 1, fails at
    least one check that calls the corruption, and fails no other.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.first: dict[str, str] = {}

    def gate(self, label: str, code: int, text: str,
             callers: set[str] | None = None) -> tuple[list[str], int, dict]:
        try:
            rep = json.loads(text, parse_constant=_reject_constant)
        except ValueError as err:
            return [f"{label}: {err}"], 0, {}
        problems = []
        if self.first.setdefault(label, text) != text:
            problems.append(f"{label}: report differs from the run's first")
        want = 0 if callers is None else 1
        if code != want:
            problems.append(f"{label}: exit {code}, want {want}")
        if rep.get("seed") != self.seed:
            problems.append(f"{label}: seed {rep.get('seed')}, want {self.seed}")
        checks = rep.get("checks") or []
        if not checks:
            problems.append(f"{label}: no checks")
        points, failed = 0, set()
        for c in checks:
            name, r = c["name"], c["max_residual"]
            points += c["samples"]
            if c["samples"] < 1 or c["tolerance"] != TOL:
                problems.append(f"{label}/{name}: samples {c['samples']}, "
                                f"tolerance {c['tolerance']}")
            holds = isinstance(r, (int, float)) and math.isfinite(r) and r <= TOL
            if c["pass"] is not holds:
                problems.append(f"{label}/{name}: verdict {c['pass']} "
                                f"for residual {r}")
            if not holds:
                failed.add(name)
        if callers is None:
            if failed:
                problems.append(f"{label}: failing checks {sorted(failed)}")
        else:
            if not failed & callers:
                problems.append(f"{label}: no check that calls the "
                                "corrupted operation fails")
            if failed - callers:
                problems.append(f"{label}: checks that do not call the "
                                f"corruption fail: {sorted(failed - callers)}")
        return problems, points, rep


def frame_brackets(n: int) -> dict[tuple[int, int], np.ndarray]:
    """[e_i, e_j] of gl(n)'s constant frame, as ``bracket_table`` signs it.

    The frame is E_k with k in row-major order, and the algebroid's
    bracket of constant sections is F_j F_i - F_i F_j, so that
    [E12, E21] = E22 - E11.
    """
    frame = np.eye(n * n).reshape(n * n, n, n)
    return {(i, j): (frame[j] @ frame[i] - frame[i] @ frame[j]).ravel()
            for i in range(n * n) for j in range(i + 1, n * n)}


def table_problems(label: str, rep: dict, n: int) -> list[str]:
    want = frame_brackets(n)
    got = {(r["i"], r["j"]): r for r in rep.get("bracket_table", [])}
    if set(got) != set(want):
        return [f"{label}: bracket table rows {sorted(got)}"]
    problems = []
    for key, w in want.items():
        mean = np.asarray(got[key]["mean"], dtype=float)
        if mean.shape != w.shape or not np.abs(mean - w).max() <= ROUNDOFF:
            problems.append(f"{label}: [e{key[0]}, e{key[1]}] mean {list(mean)}, "
                            f"want {list(w)}")
        if got[key]["spread"] != 0.0:
            problems.append(f"{label}: [e{key[0]}, e{key[1]}] spread "
                            f"{got[key]['spread']}")
    return problems


# -- known-bad inputs -------------------------------------------------

def broken_inverse_spec() -> Path:
    """``action_gl2`` written out with an inverse that forgets to invert g.

    The arrow (m, g) maps to (g m, g) instead of (g m, g^-1).  Only the
    inverse laws use the inverse map, so they are the checks that must
    fail: ``check_groupoid_axioms`` and ``check_tangent_functor`` call
    it for their ``inverse*`` residuals and for nothing else.
    """
    G = tancat.BUILTIN_GROUPOIDS["action_gl2"]()
    p = G.base.dim
    b = ExprBuilder(G.arrow_dim)
    hs = b.inputs()
    moved = b.splice(G.inverse.body, hs)[:p]
    bad = tancat.SmoothMap(G.inverse.dom, G.inverse.cod,
                           b.finish(moved + hs[p:]), name="inverse")
    spec = tancat.groupoid_to_json_dict(dataclasses.replace(G, inverse=bad))
    OUT.mkdir(exist_ok=True)
    path = OUT / "broken_inverse.json"
    path.write_text(json.dumps(spec, sort_keys=True))
    return path


def spec_inverse_callers(rep: dict) -> set[str]:
    return {c["name"] for c in rep.get("checks", []) if "inverse" in c["name"]}


@contextlib.contextmanager
def tainted_scale_level():
    """Structure ops whose fiber scaling multiplies by 1.05 r instead of r.

    Yields the ops and the set of axiom checks that call the scaling,
    which a thin wrapper around each entry of ``ALL_CHECKS`` records
    while the suite runs.
    """
    callers: set[str] = set()
    running = [""]
    scale = DEFAULT_OPS.scale_level

    def tainted(p, factor, level=None):
        callers.add(running[0])
        return scale(p, 1.05 * np.asarray(factor, dtype=float), level)

    def watched(name, check):
        def run(cfg, ops, rng):
            running[0] = name
            return check(cfg, ops, rng)
        return run

    saved = dict(ALL_CHECKS)
    ALL_CHECKS.update({name: watched(name, fn) for name, fn in saved.items()})
    try:
        yield dataclasses.replace(DEFAULT_OPS, scale_level=tainted), callers
    finally:
        ALL_CHECKS.update(saved)


# -- the workloads ----------------------------------------------------

def _common(seed: int, samples: int) -> list[str]:
    return ["--seed", str(seed), "--samples", str(samples), "--tol", repr(TOL)]


class AxiomsBulk:
    """One ``tancat axioms`` report over dims 1,2,3 at a large batch."""

    SAMPLES = 10000

    def __init__(self, seed: int) -> None:
        self.argv = ["axioms", "--dims", "1,2,3"] + _common(seed, self.SAMPLES)
        self.gate = ReportGate(seed)
        self.points = 0

    def run(self):
        return run_cli(self.argv)

    def check(self, result) -> list[str]:
        code, text = result
        problems, self.points, rep = self.gate.gate("axioms", code, text)
        names = {c["name"] for c in rep.get("checks", [])}
        if rep and names != set(ALL_CHECKS):
            problems.append(f"axioms: checks {sorted(names ^ set(ALL_CHECKS))} "
                            "missing or unknown")
        return problems


class SuitesSweep:
    """Every built-in report at the default samples, and two known-bad inputs."""

    SAMPLES = 200

    def __init__(self, seed: int) -> None:
        common = _common(seed, self.SAMPLES)
        suites = sorted(tancat.BUILTIN_GROUPOIDS)
        self.jobs = {"axioms": ["axioms"] + common,
                     "bracket": ["bracket"] + common}
        for cmd in ("groupoid", "differentiate"):
            for suite in suites:
                self.jobs[f"{cmd}/{suite}"] = [cmd, "--suite", suite] + common
        self.bad_spec = ["groupoid", "--spec", str(broken_inverse_spec())] + common
        self.bad_config = tancat.RunConfig(seed=seed, samples=self.SAMPLES,
                                           tol=TOL)
        self.gate = ReportGate(seed)
        self.points = 0

    def run(self):
        reports = {label: run_cli(argv) for label, argv in self.jobs.items()}
        spec = run_cli(self.bad_spec)
        with tainted_scale_level() as (ops, callers):
            rep = run_axiom_suite(self.bad_config, ops)
        return reports, spec, (0 if rep.ok else 1, rep.dumps(), callers)

    def check(self, result) -> list[str]:
        reports, spec, tainted = result
        problems, self.points = [], 0
        for label, (code, text) in reports.items():
            errs, points, rep = self.gate.gate(label, code, text)
            problems += errs
            self.points += points
            if label in ("differentiate/matrix2", "differentiate/matrix3") and rep:
                problems += table_problems(label, rep, int(label[-1]))
        code, text = spec
        try:
            callers = spec_inverse_callers(json.loads(text))
        except ValueError:
            callers = set()
        errs, points, _ = self.gate.gate("bad/inverse_spec", code, text, callers)
        problems += errs
        self.points += points
        code, text, callers = tainted
        errs, points, _ = self.gate.gate("bad/scale_level", code, text, callers)
        self.points += points
        return problems + errs


def _linear(row, s):
    """The linear form row . x on builder handles, for dim 3."""
    return float(row[0]) * s[0] + float(row[1]) * s[1] + float(row[2]) * s[2]


def _linear_field(dom, mat: np.ndarray):
    return tancat.VectorField.from_expr(
        dom, tancat.build(3, lambda s: [_linear(row, s) for row in mat]))


def _field_expr(rng: np.random.Generator):
    """A smooth dim-3 field of one fixed form with coefficients from ``rng``.

    Every seed gets the same expression shape, so every seed does the
    same work.  Component i is c0 sin(l) + c1 x_j exp(x_k / 3), with l a
    linear form of the coordinates and (i, j, k) a cyclic order of 0, 1, 2.
    """
    forms = rng.uniform(-1.0, 1.0, size=(3, 3))
    coef = rng.uniform(-1.0, 1.0, size=(3, 2))

    def body(s):
        return [float(c0) * tancat.sin(_linear(form, s))
                + float(c1) * s[(i + 1) % 3] * tancat.exp(s[(i + 2) % 3] / 3.0)
                for i, (form, (c0, c1)) in enumerate(zip(forms, coef))]

    return tancat.build(3, body)


def _closeness(total: np.ndarray, *terms: np.ndarray) -> float:
    """|total| relative to the largest term, with an absolute floor."""
    scale = 1.0 + max(float(np.abs(t).max()) for t in terms)
    return float(np.abs(total).max()) / scale


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix of [Ax, Bx] for linear fields: BA - AB."""
    return b @ a - a @ b


class BracketsDeep:
    """Nested field brackets and algebroid brackets on 1000 points."""

    POINTS = 1000

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        dom = tancat.box_domain(3, -1.5, 1.5, name="box3")
        self.fields = [tancat.VectorField.from_expr(dom, _field_expr(rng), name=n)
                       for n in "uvwx"]
        self.mats = rng.uniform(-1.0, 1.0, size=(3, 3, 3))
        self.linear = [_linear_field(dom, m) for m in self.mats]
        self.pts = dom.sample(rng, self.POINTS)
        # the points with a tangent direction each: evaluating a depth-3
        # bracket on these runs its leaf fields on order-4 towers
        dirs = rng.uniform(-1.0, 1.0, size=self.pts.shape)
        self.lifted = [tancat.join_top(tancat.Tower.constant(p),
                                       tancat.Tower.constant(d))
                       for p, d in zip(self.pts, dirs)]
        self.al = tancat.algebroid_of(tancat.BUILTIN_GROUPOIDS["action_gl2"]())
        self.frame = [self.al.constant_section(e, name=f"e{k + 1}")
                      for k, e in enumerate(np.eye(self.al.rank))]
        self.base_pts = self.al.base.sample(rng, self.POINTS)
        self.first = None
        self.points = 0

    def run(self) -> dict:
        br, pts = tancat.lie_bracket, self.pts
        u, v, w, x = self.fields
        vw = br(v, w)
        out = {"vw": vw.at(pts), "wv": br(w, v).at(pts)}
        out["jacobi2"] = [br(u, vw).at(pts), br(v, br(w, u)).at(pts),
                          br(w, br(u, v)).at(pts)]
        out["jacobi3"] = [
            np.stack([t.coeffs for t in f.fiber(self.lifted)])
            for f in (br(x, br(u, vw)), br(u, br(vw, x)), br(vw, br(x, u)))]
        a1, a2, a3 = self.linear
        out["linear1"] = br(a1, a2).at(pts)
        out["linear2"] = br(a1, br(a2, a3)).at(pts)
        al, bp, alb = self.al, self.base_pts, tancat.algebroid_bracket
        e1, e2, e3, e4 = self.frame
        out["e12"] = alb(al, e1, e2).at(bp)
        out["e21"] = alb(al, e2, e1).at(bp)
        out["algebroid_jacobi"] = [
            [alb(al, a, alb(al, b, c)).at(bp) for a, b, c in
             ((s, t, r), (t, r, s), (r, s, t))]
            for s, t, r in ((e1, e2, e3), (e2, e3, e4))]
        return out

    def check(self, out: dict) -> list[str]:
        m1, m2, m3 = self.mats
        want1 = _commutator(m1, m2) @ self.pts
        want2 = _commutator(m1, _commutator(m2, m3)) @ self.pts
        sizes = {
            "antisymmetry": _closeness(out["vw"] + out["wv"], out["vw"], out["wv"]),
            "jacobi/depth2": _closeness(sum(out["jacobi2"]), *out["jacobi2"]),
            "jacobi/depth3_tangent": _closeness(sum(out["jacobi3"]),
                                                *out["jacobi3"]),
            "linear/depth1": _closeness(out["linear1"] - want1, want1),
            "linear/depth2": _closeness(out["linear2"] - want2, want2),
            "algebroid/antisymmetry": _closeness(out["e12"] + out["e21"],
                                                 out["e12"], out["e21"]),
        }
        for k, terms in enumerate(out["algebroid_jacobi"]):
            sizes[f"algebroid/jacobi{k}"] = _closeness(sum(terms), *terms)
        problems = [f"{name}: {size:.3e} > {ROUNDOFF:.0e}"
                    for name, size in sizes.items() if not size <= ROUNDOFF]
        if self.first is None:
            self.first = out
        elif not all(np.array_equal(np.asarray(out[k]), np.asarray(self.first[k]))
                     for k in out):
            problems.append("outputs differ from the run's first operation")
        self.points = self.POINTS * len(sizes)
        return problems


WORKLOADS = {"axioms-bulk": AxiomsBulk, "suites-sweep": SuitesSweep,
             "brackets-deep": BracketsDeep}
