"""End-to-end acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible with -s, and in the
captured output on failure) carrying the measured number against its
threshold, so a run of this file doubles as the release checklist.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from tancat import tanpoint as tp
from tancat.algebroid import (algebroid_bracket, algebroid_of, anchor_field,
                              check_algebroid_laws, extend_to_invariant,
                              pullback_target, restrict_to_unit)
from tancat.axioms import ALL_CHECKS, DEFAULT_OPS, run_axiom_suite
from tancat.cli import main
from tancat.domain import SmoothMap, box_domain
from tancat.errors import KernelViolationError
from tancat.expr import ExprBuilder, build, cos, reindex_inputs, sin
from tancat.fields import (ScalarField, VectorField, bracket_by_jacobians,
                           check_bracket_laws, kernel_residual, lie_bracket)
from tancat.gbundle import check_invariant_closure
from tancat.groupoid import (BUILTIN_GROUPOIDS, check_differentiability,
                             check_groupoid_axioms, pair_groupoid,
                             tangent_groupoid)
from tancat.randexpr import random_expr
from tancat.report import RunConfig, rng_for
from tancat.tanpoint import TanPoint, residual


def _line(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {text}")
    assert ok, f"criterion {num:02d}: {text}"


# -- a fixed polynomial/trig field corpus over dims 1..3 --------------

def _corpus(d: int):
    dom = box_domain(d, -1.2, 1.2, name=f"box{d}")
    if d == 1:
        u = build(1, lambda s: [cos(s[0] + s[0])])
        v = build(1, lambda s: [s[0] * s[0] - 0.5 * s[0]])
        w = build(1, lambda s: [sin(s[0])])
        f = build(1, lambda s: [s[0] * s[0] * s[0]])
        g = build(1, lambda s: [sin(s[0]) + 0.3 * s[0]])
    elif d == 2:
        u = build(2, lambda s: [sin(s[0]) * s[1], cos(s[1])])
        v = build(2, lambda s: [-s[1], s[0]])
        w = build(2, lambda s: [s[0] * s[0], s[0] * s[1]])
        f = build(2, lambda s: [s[0] * s[1] + 0.2 * s[0]])
        g = build(2, lambda s: [cos(s[0]) + s[1] * s[1]])
    else:
        u = build(3, lambda s: [s[0] + s[1], s[1] * s[1], sin(s[2])])
        v = build(3, lambda s: [s[1] * s[2], -s[0] * s[2], s[0] * s[1]])
        w = build(3, lambda s: [sin(s[0]), s[0] * s[0] * s[1], s[2]])
        f = build(3, lambda s: [s[0] * s[2] + s[1]])
        g = build(3, lambda s: [sin(s[1]) * s[2]])
    return (dom,
            VectorField.from_expr(dom, u, name="u"),
            VectorField.from_expr(dom, v, name="v"),
            VectorField.from_expr(dom, w, name="w"),
            ScalarField.from_expr(dom, f, name="f"),
            ScalarField.from_expr(dom, g, name="g"))


def _fd_bracket(v: VectorField, w: VectorField, pts: np.ndarray,
                h: float = 1e-4) -> np.ndarray:
    vv, ww = v.at(pts), w.at(pts)
    acc = np.zeros_like(vv)
    d = v.dom.dim
    for j in range(d):
        step = np.zeros((d, 1))
        step[j] = h
        acc += (w.at(pts + step) - w.at(pts - step)) / (2.0 * h) * vv[j]
        acc -= (v.at(pts + step) - v.at(pts - step)) / (2.0 * h) * ww[j]
    return acc


@pytest.fixture(scope="module")
def gpds():
    return {name: make() for name, make in BUILTIN_GROUPOIDS.items()}


def test_criterion_01_axiom_suite():
    cfg = RunConfig(seed=7, samples=500, tol=1e-9, dims=(1, 2, 3))
    t0 = time.perf_counter()
    rep = run_axiom_suite(cfg)
    dt = time.perf_counter() - t0
    worst = max(c.max_residual for c in rep.checks)
    ok = rep.ok and len(rep.checks) == len(ALL_CHECKS) and dt <= 10.0
    _line(1, ok, f"axiom suite, {len(rep.checks)} diagrams at 500 samples "
                 f"x dims 1-3: worst {worst:.2e} <= 1e-9, {dt:.2f}s <= 10s")


def test_criterion_02_bracket_vs_oracles():
    worst_fd, worst_ad = 0.0, 0.0
    for d in (1, 2, 3):
        dom, u, v, w, f, g = _corpus(d)
        pts = dom.sample(rng_for(101, f"acc/bracket/dim{d}"), 100)
        br = lie_bracket(v, w).at(pts)
        worst_fd = max(worst_fd, residual(br, _fd_bracket(v, w, pts)))
        worst_ad = max(worst_ad, residual(br, bracket_by_jacobians(v, w, pts)))
        br2 = lie_bracket(u, w).at(pts)
        worst_fd = max(worst_fd, residual(br2, _fd_bracket(u, w, pts)))
        worst_ad = max(worst_ad, residual(br2, bracket_by_jacobians(u, w, pts)))
    ok = worst_fd <= 1e-5 and worst_ad <= 1e-10
    _line(2, ok, f"bracket on 300 points: vs finite differences "
                 f"{worst_fd:.2e} <= 1e-5, vs seeded-jet jacobians "
                 f"{worst_ad:.2e} <= 1e-10")


def test_criterion_03_kernel_identity():
    worst = 0.0
    for d in (1, 2, 3):
        dom, u, v, w, f, g = _corpus(d)
        pts = dom.sample(rng_for(102, f"acc/kernel/dim{d}"), 100)
        for a, b in ((u, v), (v, w), (u, w)):
            worst = max(worst, kernel_residual(a, b, pts))
            lie_bracket(a, b).at(pts)     # enforced on every evaluation

    # an evaluator that is not order-consistent must be refused
    dom1 = box_domain(1, -1.0, 1.0)
    honest = VectorField.from_expr(dom1, build(1, lambda s: [s[0] * s[0]]))

    def drifty(x):
        out = honest.fn(x)
        if len(x) > 1:      # above order 0
            out[0] += 1e-6
        return out

    bad = VectorField(dom1, drifty, name="drifty")
    ptsd = dom1.sample(rng_for(102, "acc/kernel/drift"), 50)
    try:
        lie_bracket(honest, bad).at(ptsd)
        refused = False
    except KernelViolationError:
        refused = True
    ok = worst <= 1e-10 and refused
    _line(3, ok, f"kernel block residual {worst:.2e} <= 1e-10 on every "
                 f"bracket; order-inconsistent evaluator refused: {refused}")


def test_criterion_04_bracket_laws():
    worst = {"jacobi": 0.0, "leibniz": 0.0, "derivation": 0.0}
    for d in (1, 2, 3):
        dom, u, v, w, f, g = _corpus(d)
        pts = dom.sample(rng_for(103, f"acc/laws/dim{d}"), 100)
        res = check_bracket_laws(u, v, w, f, g, pts)
        for k in worst:
            worst[k] = max(worst[k], res[k])
    ok = (worst["jacobi"] <= 1e-8 and worst["leibniz"] <= 1e-9
          and worst["derivation"] <= 1e-9)
    _line(4, ok, f"jacobi {worst['jacobi']:.2e} <= 1e-8, leibniz "
                 f"{worst['leibniz']:.2e} <= 1e-9, derivation "
                 f"{worst['derivation']:.2e} <= 1e-9")


def test_criterion_05_groupoid_suite(gpds):
    worst_pt, worst_tg = 0.0, 0.0
    for name, G in gpds.items():
        rng = rng_for(104, "acc/groupoid/" + name)
        worst_pt = max(worst_pt,
                       max(check_groupoid_axioms(G, rng, 200).values()),
                       max(check_differentiability(G, rng, 60).values()))
        TG = tangent_groupoid(G)
        worst_tg = max(worst_tg,
                       max(check_groupoid_axioms(TG, rng, 150).values()))
    ok = worst_pt <= 1e-10 and worst_tg <= 1e-9
    _line(5, ok, f"four builders: laws+differentiability {worst_pt:.2e} "
                 f"<= 1e-10, tangent groupoids {worst_tg:.2e} <= 1e-9")


def test_criterion_06_invariant_closure(gpds):
    worst = 0.0
    for name in ("pair", "matrix2", "action_gl2"):
        al = algebroid_of(gpds[name])
        rng = rng_for(105, "acc/closure/" + name)
        p, q = al.base.dim, al.rank
        if p:
            secs = [al.section(random_expr(rng, p, q, depth=3), name=f"s{i}")
                    for i in range(2)]
            f = ScalarField.from_expr(al.base, random_expr(rng, p, 1, depth=2))
        else:
            secs = [al.constant_section(rng.uniform(-1, 1, q), name=f"s{i}")
                    for i in range(2)]
            b = ExprBuilder(0)
            f = ScalarField.from_expr(al.base, b.finish([b.const(0.8)]))
        fields = [extend_to_invariant(al, s) for s in secs]
        res = check_invariant_closure(al.gpd, fields,
                                      pullback_target(al, f), rng, 200)
        worst = max(worst, max(res.values()))
    ok = worst <= 1e-8
    _line(6, ok, f"closure of invariance under bracket, sum, and "
                 f"function scaling at 200 pairs per builder: "
                 f"{worst:.2e} <= 1e-8")


def test_criterion_07_correspondence(gpds):
    worst_pf, worst_fp = 0.0, 0.0
    for name, G in gpds.items():
        al = algebroid_of(G)
        rng = rng_for(106, "acc/corr/" + name)
        p, q = al.base.dim, al.rank
        pts = al.base.sample(rng, 200) if p else np.zeros((0, 200))
        gs = G.sample_arrows(rng, 200)
        for i in range(2):
            if p:
                a = al.section(random_expr(rng, p, q, depth=3))
            else:
                a = al.constant_section(rng.uniform(-1, 1, q))
            phi_a = extend_to_invariant(al, a)
            worst_pf = max(worst_pf, residual(
                restrict_to_unit(al, phi_a, check=False).at(pts), a.at(pts)))
            worst_fp = max(worst_fp, residual(
                extend_to_invariant(al, restrict_to_unit(al, phi_a)).at(gs),
                phi_a.at(gs)))
    ok = worst_pf <= 1e-10 and worst_fp <= 1e-9
    _line(7, ok, f"sections->fields->sections {worst_pf:.2e} <= 1e-10, "
                 f"fields->sections->fields {worst_fp:.2e} <= 1e-9")


def test_criterion_08_classical_oracles(gpds):
    al = algebroid_of(gpds["matrix2"])
    rng = rng_for(107, "acc/classic/matrix")
    point = np.zeros((0, 1))
    worst_m = 0.0
    for _ in range(100):
        A = rng.uniform(-1.0, 1.0, (2, 2))
        B = rng.uniform(-1.0, 1.0, (2, 2))
        got = algebroid_bracket(al, al.constant_section(A.ravel()),
                                al.constant_section(B.ravel())).at(point)[:, 0]
        worst_m = max(worst_m, residual(got, (B @ A - A @ B).ravel()))

    worst_p = 0.0
    for d in (1, 2):
        alp = algebroid_of(pair_groupoid(box_domain(d, name=f"pbase{d}")))
        rngp = rng_for(107, f"acc/classic/pair{d}")
        pts = alp.base.sample(rngp, 100)
        for _ in range(2):
            ba = random_expr(rngp, d, d, depth=3)
            bb = random_expr(rngp, d, d, depth=3)
            got = algebroid_bracket(alp, alp.section(ba),
                                    alp.section(bb)).at(pts)
            want = bracket_by_jacobians(VectorField.from_expr(alp.base, ba),
                                        VectorField.from_expr(alp.base, bb),
                                        pts)
            worst_p = max(worst_p, residual(got, want))

    ala = algebroid_of(gpds["action_gl2"])
    rnga = rng_for(107, "acc/classic/action")
    m = ala.base.sample(rnga, 100)
    worst_a = 0.0
    for _ in range(10):
        xi = rnga.uniform(-1.0, 1.0, (2, 2))
        got = anchor_field(ala, ala.constant_section(xi.ravel())).at(m)
        worst_a = max(worst_a, residual(got, np.einsum("ij,jn->in", xi, m)))

    ok = worst_m <= 1e-10 and worst_p <= 1e-9 and worst_a <= 1e-10
    _line(8, ok, f"matrix bracket vs BA-AB over 100 pairs {worst_m:.2e} "
                 f"<= 1e-10, pair bracket vs field bracket {worst_p:.2e} "
                 f"<= 1e-9, action anchor vs xi.m {worst_a:.2e} <= 1e-10")


def test_criterion_09_algebroid_laws(gpds):
    worst = 0.0
    detail = {}
    for name, G in gpds.items():
        al = algebroid_of(G)
        res = check_algebroid_laws(al, rng_for(108, "acc/alglaws/" + name),
                                   samples=150)
        detail[name] = max(res["leibniz"], res["anchor_morphism"])
        worst = max(worst, detail[name])
    ok = worst <= 1e-8
    _line(9, ok, f"leibniz and anchor-morphism on all builders: worst "
                 f"{worst:.2e} <= 1e-8 ({detail})")


def test_criterion_10_mutation_sensitivity(gpds):
    fast = RunConfig(seed=11, samples=60)

    # corrupted level swap: right permutation, wrong on the block that
    # carries both swapped levels
    def tainted_swap(p: TanPoint, level: int) -> TanPoint:
        q = tp.swap_levels(p, level)
        arr = np.array(q.blocks)
        mask = 0b11 << (level - 1)
        arr[mask] = 1.05 * arr[mask]
        return TanPoint(p.order, arr)

    rep = run_axiom_suite(fast, dataclasses.replace(
        DEFAULT_OPS, swap_levels=tainted_swap))
    failed = {c.name for c in rep.failures}
    swap_area = {n for n in ALL_CHECKS
                 if n.startswith(("T3/", "T5/"))
                 or n in ("naturality/level_swap", "scalar/partial_slot2")}
    swap_ok = ({"naturality/level_swap", "T3/involution",
                "T5/swap_fixes_lift"} <= failed and failed <= swap_area)

    # transposed multiplication
    G = gpds["action_gl2"]
    a = G.arrow_dim
    flipped = dataclasses.replace(G, compose=SmoothMap(
        G.compose.dom, G.compose.cod,
        reindex_inputs(G.compose.body,
                       list(range(a, 2 * a)) + list(range(a)), 2 * a)))
    res = check_groupoid_axioms(flipped, rng_for(109, "acc/mut/flip"), 120)
    bad = {k for k, v in res.items() if v > 1e-9}
    flip_ok = ({"compose_source", "compose_target"} <= bad
               and res["associativity"] <= 1e-9
               and res["inverse_exchange"] <= 1e-9)

    # dropped unit law: the unit stops being neutral
    M = gpds["matrix2"]
    b = ExprBuilder(M.base.dim)
    hs = b.inputs()
    doubled = [h + h for h in b.splice(M.unit.body, hs)[M.base.dim:]]
    broken = dataclasses.replace(M, unit=SmoothMap(
        M.unit.dom, M.unit.cod, b.finish(hs + doubled)))
    res2 = check_groupoid_axioms(broken, rng_for(109, "acc/mut/unit"), 120)
    bad2 = {k for k, v in res2.items() if v > 1e-9}
    unit_ok = (bad2 == {"unit_left", "unit_right",
                        "inverse_left", "inverse_right"})

    ok = swap_ok and flip_ok and unit_ok
    _line(10, ok, f"three corruptions caught by their own checks only: "
                  f"swap {swap_ok}, transposed compose {flip_ok}, "
                  f"broken unit {unit_ok}")


def test_criterion_11_full_run_determinism(tmp_path):
    jobs = [["axioms"], ["bracket"]]
    jobs += [["groupoid", "--suite", s] for s in sorted(BUILTIN_GROUPOIDS)]
    jobs += [["differentiate", "--suite", s] for s in sorted(BUILTIN_GROUPOIDS)]
    t0 = time.perf_counter()
    outputs = []
    for run in (0, 1):
        blobs = []
        for i, job in enumerate(jobs):
            out = tmp_path / f"r{run}_{i}.json"
            code = main(job + ["--out", str(out)])
            assert code == 0, job
            blobs.append(out.read_bytes())
        outputs.append(blobs)
    dt = time.perf_counter() - t0
    identical = all(x == y for x, y in zip(*outputs))
    parsed = json.loads(outputs[0][0])
    ok = identical and dt < 60.0 and parsed["suite"] == "axioms"
    _line(11, ok, f"{2 * len(jobs)} default-flag suite runs in {dt:.1f}s "
                  f"< 60s, repeat reports byte-identical: {identical}")
