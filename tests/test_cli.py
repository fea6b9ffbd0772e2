"""Exit codes, determinism, and report shapes of the command line."""

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tancat.algebroid
import tancat.cli
import tancat.errors
from tancat.cli import main
from tancat.domain import Domain, SmoothMap, box_domain, product_domain
from tancat.expr import ExprBuilder, build
from tancat.groupoid import (BUILTIN_GROUPOIDS, FiberedGroupoid,
                             check_groupoid_axioms, groupoid_to_json_dict,
                             pair_groupoid)
from tancat.report import CheckResult, Report


def test_axioms_deterministic(tmp_path):
    f1, f2, f3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert main(["axioms", "--samples", "40", "--out", str(f1)]) == 0
    assert main(["axioms", "--samples", "40", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert main(["axioms", "--samples", "40", "--seed", "9",
                 "--out", str(f3)]) == 0
    assert f1.read_bytes() != f3.read_bytes()
    rep = json.loads(f1.read_text())
    assert rep["seed"] == 7
    assert len(rep["checks"]) == 29
    assert all(c["pass"] for c in rep["checks"])


def test_report_on_stdout(capsys):
    assert main(["axioms", "--samples", "20", "--dims", "1,2"]) == 0
    cap = capsys.readouterr()
    rep = json.loads(cap.out)           # stdout is exactly the report
    assert rep["suite"] == "axioms"
    assert "checks passed" in cap.err


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    # one parser serves every call; flags of one call must not leak into
    # the defaults of the next
    out = tmp_path / "m.json"
    assert main(["groupoid", "--suite", "matrix2", "--out", str(out)]) == 0
    suite = {k: f"groupoid/{make().name}"
             for k, make in BUILTIN_GROUPOIDS.items()}
    assert json.loads(out.read_text())["suite"] == suite["matrix2"]
    capsys.readouterr()
    assert main(["groupoid", "--samples", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["suite"] == suite["pair"]


def test_differentiate_runs_the_groupoid_axioms_once(tmp_path, monkeypatch):
    # the gate/* checks are the gate: algebroid_of's would repeat them
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return check_groupoid_axioms(*args, **kwargs)

    for mod in (tancat.algebroid, tancat.cli):
        monkeypatch.setattr(mod, "check_groupoid_axioms", counted)
    out = tmp_path / "d.json"
    assert main(["differentiate", "--suite", "matrix2", "--samples", "30",
                 "--out", str(out)]) == 0
    assert calls == ["gl2"]


def test_groupoid_builtins(tmp_path):
    for name in BUILTIN_GROUPOIDS:
        out = tmp_path / f"{name}.json"
        code = main(["groupoid", "--suite", name, "--samples", "60",
                     "--out", str(out)])
        assert code == 0, name
        rep = json.loads(out.read_text())
        names = [c["name"] for c in rep["checks"]]
        assert any(n.startswith("laws/") for n in names)
        assert any(n.startswith("differentiability/") for n in names)


def test_groupoid_from_spec_file(tmp_path):
    spec = tmp_path / "pair.json"
    G = pair_groupoid(box_domain(2, name="square"))
    spec.write_text(json.dumps(groupoid_to_json_dict(G)))
    assert main(["groupoid", "--spec", str(spec), "--samples", "50"]) == 0


def test_differentiate_matrix2(tmp_path):
    out = tmp_path / "d.json"
    assert main(["differentiate", "--suite", "matrix2", "--samples", "60",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["rank"] == 4 and rep["base_dim"] == 0
    rows = {(r["i"], r["j"]): r for r in rep["bracket_table"]}
    assert len(rows) == 6
    assert np.abs(np.array(rows[(1, 2)]["mean"])
                  - [-1.0, 0.0, 0.0, 1.0]).max() < 1e-12
    assert all(r["spread"] < 1e-12 for r in rows.values())


def test_differentiate_rejects_broken_groupoid(tmp_path):
    G = pair_groupoid(box_domain(2, name="square"))
    bad = SmoothMap(G.compose.dom, G.compose.cod,
                    build(8, lambda s: [s[0], s[1], s[6], s[7]]))
    spec = tmp_path / "broken.json"
    spec.write_text(json.dumps(groupoid_to_json_dict(replace(G, compose=bad))))
    out = tmp_path / "rep.json"
    assert main(["differentiate", "--spec", str(spec),
                 "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    failed = [c["name"] for c in rep["checks"] if not c["pass"]]
    assert failed and all(n.startswith("gate/") for n in failed)
    assert "bracket_table" not in rep    # stops before differentiating


def drifting_compose_spec(tmp_path) -> Path:
    """action_gl2 whose composite's source coordinate moves by 1e-6 times
    the first entry of the first arrow's matrix: every gate law is off
    by about 1e-6, and the field phi_psi restricts is not vertical."""
    G = BUILTIN_GROUPOIDS["action_gl2"]()
    b = ExprBuilder(G.compose.dom.dim)
    hs = b.inputs()
    outs = b.splice(G.compose.body, hs)
    outs[0] = outs[0] + 1e-6 * hs[G.base.dim]
    bad = SmoothMap(G.compose.dom, G.compose.cod, b.finish(outs),
                    name="compose")
    spec = tmp_path / "drift.json"
    spec.write_text(json.dumps(groupoid_to_json_dict(replace(G, compose=bad))))
    return spec


def test_structure_error_past_a_loose_gate_is_exit_2(tmp_path, capsys):
    # at --tol 1e-3 the gate passes, then restrict_to_unit's fixed
    # verticality check refuses the field: a message, not a traceback
    spec = drifting_compose_spec(tmp_path)
    args = ["differentiate", "--spec", str(spec), "--samples", "50",
            "--seed", "7", "--out", str(tmp_path / "rep.json")]
    assert main(args + ["--tol", "1e-3"]) == 2
    err = capsys.readouterr().err
    assert re.search(r"^error: field inv\(s0\) has anchor components of "
                     r"size [0-9.e+-]+ at the units", err, re.M)
    assert "Traceback" not in err
    # at the default --tol the same spec fails its gate checks
    assert main(args) == 1
    rep = json.loads((tmp_path / "rep.json").read_text())
    failed = [c["name"] for c in rep["checks"] if not c["pass"]]
    assert failed and all(n.startswith("gate/") for n in failed)


def test_arrow_chart_that_admits_no_arrow_is_exit_2(tmp_path, capsys):
    # the sampler gives up on a chart whose constraint no point meets:
    # one line that names the chart, not a traceback
    G = pair_groupoid(box_domain(2, name="square"))
    never = replace(G.arrows, constraints=(build(4, lambda x: [x[0] - 2.0]),))
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps(groupoid_to_json_dict(replace(G, arrows=never))))
    out = tmp_path / "rep.json"
    assert main(["groupoid", "--spec", str(spec), "--samples", "50",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: domain pairs(square): rejection budget exhausted "
        "(0/50 points after 64 rounds)\n")
    assert not out.exists()


@pytest.mark.parametrize("error", [tancat.errors.VerticalityError,
                                   tancat.errors.KernelViolationError,
                                   tancat.errors.FiberMismatchError])
def test_construction_errors_are_exit_2(error, monkeypatch, capsys):
    def raise_it(*args, **kwargs):
        raise error("the construction refused its input")
    monkeypatch.setattr(tancat.cli, "check_algebroid_laws", raise_it)
    assert main(["differentiate", "--samples", "10"]) == 2
    assert (capsys.readouterr().err
            == "error: the construction refused its input\n")


def _units_of_interval() -> FiberedGroupoid:
    # the unit groupoid of an interval: every arrow is a unit, so the
    # fiber and every section are empty
    line = box_domain(1, name="interval")
    units = Domain(1, line.box, name="units", split=(1, 0))
    ident = build(1, lambda s: [s[0]])
    return FiberedGroupoid(
        base=line, arrows=units, target=SmoothMap(units, line, ident),
        compose=SmoothMap(product_domain(units, units), units,
                          build(2, lambda s: [s[1]])),
        unit=SmoothMap(line, units, ident),
        inverse=SmoothMap(units, units, ident), name="units(interval)")


def _trivial_group() -> FiberedGroupoid:
    # one object and one arrow: base, arrows and fiber are all empty
    pt = box_domain(0, name="pt")
    e = Domain(0, name="e", split=(0, 0))
    empty = build(0, lambda s: [])
    return FiberedGroupoid(
        base=pt, arrows=e, target=SmoothMap(e, pt, empty),
        compose=SmoothMap(product_domain(e, e), e, empty),
        unit=SmoothMap(pt, e, empty), inverse=SmoothMap(e, e, empty),
        name="trivial")


@pytest.mark.parametrize("make, base_dim", [(_units_of_interval, 1),
                                            (_trivial_group, 0)],
                         ids=["units", "trivial"])
def test_differentiate_rank_zero_groupoid(tmp_path, make, base_dim):
    G = make()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(groupoid_to_json_dict(G)))
    out = tmp_path / "rep.json"
    assert main(["differentiate", "--spec", str(spec), "--samples", "40",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["base_dim"] == base_dim and rep["rank"] == 0
    assert rep["bracket_table"] == []
    # the same gate and law checks as a positive-rank groupoid
    golden = Path(__file__).parent / "golden" / "differentiate-pair.json"
    want = [c["name"] for c in json.loads(golden.read_text())["checks"]]
    assert [c["name"] for c in rep["checks"]] == want
    assert all(c["pass"] and c["samples"] == 40 for c in rep["checks"])


def test_bracket_subcommand(tmp_path):
    out = tmp_path / "b.json"
    assert main(["bracket", "--samples", "80", "--dims", "1,2",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["checks"]) == 14      # 7 checks for each dimension
    assert all(c["pass"] for c in rep["checks"])


def test_malformed_json_is_exit_2(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text('{"base": tru')
    out = tmp_path / "never.json"
    assert main(["groupoid", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err
    assert not out.exists()


def test_overlong_integer_is_exit_2(tmp_path, capsys):
    # json refuses integer literals past 4300 digits with a plain
    # ValueError, not a JSONDecodeError
    spec = tmp_path / "long.json"
    spec.write_text('{"base": {"dim": %s}}' % ("1" * 5000))
    assert main(["groupoid", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_key_spec_is_exit_2(tmp_path, capsys):
    spec = tmp_path / "partial.json"
    spec.write_text('{"name": "hollow"}')
    assert main(["groupoid", "--spec", str(spec)]) == 2
    assert "base" in capsys.readouterr().err


def test_unreadable_spec_is_exit_2(tmp_path):
    assert main(["groupoid", "--spec", str(tmp_path / "nope.json")]) == 2


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["groupoid", "--suite", "nonesuch"])
    assert exc.value.code == 2


def test_bad_dims_is_exit_2():
    assert main(["axioms", "--dims", "1,x"]) == 2
    assert main(["bracket", "--dims", ""]) == 2


@pytest.mark.parametrize("flags", [["--samples", "0"], ["--samples", "-5"],
                                   ["--tol", "-0.5"], ["--tol", "nan"],
                                   ["--tol", "inf"]])
def test_bad_flag_values_are_exit_2(flags, capsys):
    assert main(["axioms", "--dims", "1"] + flags) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and flags[0] in cap.err


@pytest.mark.parametrize("spec", [
    {"base": {"dim": None}, "arrows": {"dim": 1}},
    {"base": {"dim": 1}, "arrows": "x"},
    [1, 2],
])
def test_malformed_spec_is_exit_2(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["groupoid", "--spec", str(path)]) == 2
    assert "malformed spec" in capsys.readouterr().err


@pytest.mark.parametrize("bad, message", [
    ({"op": "mystery", "args": []}, "unknown op 'mystery'"),
    ({"op": "neg", "args": [99]}, "not topologically earlier"),
    ({"op": "const"}, "const without value"),
    ({"op": "input", "args": [], "index": 99}, "input slot 99 out of range"),
])
def test_malformed_node_in_a_spec_is_exit_2(bad, message, tmp_path, capsys):
    # a node that no output reads is appended to the inverse map, so only
    # validation at construction can refuse it
    spec = groupoid_to_json_dict(BUILTIN_GROUPOIDS["action_gl2"]())
    spec["inverse"]["body"]["nodes"].append(bad)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for command in ("groupoid", "differentiate"):
        assert main([command, "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "malformed spec" in err and message in err


def test_reports_are_strict_json():
    rep = Report("strict", 1)
    rep.add(CheckResult.from_residual("a/nan", 5, float("nan"), 1e-9))
    rep.add(CheckResult.from_residual("b/no_samples", 0, 0.0, 1e-9))
    rep.extra["bracket_table"] = [{"mean": [float("-inf"), 1.0],
                                   "spread": float("inf")}]

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    data = json.loads(rep.dumps(), parse_constant=reject)
    # a NaN residual fails, and so does a check that saw no sample
    assert [(c["max_residual"], c["pass"]) for c in data["checks"]] == \
        [("nan", False), (0.0, False)]
    assert data["bracket_table"] == [{"mean": ["-inf", 1.0], "spread": "inf"}]


def test_env_seed(tmp_path, monkeypatch):
    out = tmp_path / "s.json"
    monkeypatch.setenv("TANCAT_SEED", "123")
    assert main(["axioms", "--samples", "20", "--dims", "1",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 123
    assert main(["axioms", "--samples", "20", "--dims", "1", "--seed", "5",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 5
    monkeypatch.setenv("TANCAT_SEED", "elephant")
    assert main(["axioms", "--samples", "20"]) == 2


def test_negative_seed_is_exit_2(monkeypatch, capsys):
    # numpy's SeedSequence refuses a negative seed with a traceback
    assert main(["axioms", "--samples", "20", "--dims", "1",
                 "--seed", "-1"]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "error: --seed" in cap.err
    monkeypatch.setenv("TANCAT_SEED", "-5")
    assert main(["axioms", "--samples", "20", "--dims", "1"]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "error: TANCAT_SEED='-5'" in cap.err


@pytest.mark.parametrize("where", ["missing/r.json", "."])
def test_unwritable_out_is_exit_2(where, tmp_path, capsys):
    # a missing directory, and a directory in place of a file
    out = tmp_path / where
    assert main(["axioms", "--samples", "20", "--dims", "1",
                 "--out", str(out)]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and f"error: cannot write {out}: " in cap.err


def test_module_invocation(tmp_path):
    out = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tancat", "groupoid", "--suite", "pair",
         "--samples", "40", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["suite"].startswith("groupoid/")


# a bound on the address space of the child, so that an unbounded
# allocation fails the test instead of exhausting the machine
AS_LIMIT = 1 << 30

LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from tancat.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _huge_arity(d):
    d["compose"]["body"]["inputs"] = 1e308


def _box_lo_above_hi(d):
    d["base"]["box"][0] = [2, 1.0]


def _box_not_finite(d):
    d["arrows"]["box"][1] = [-1.0, float("inf")]


def _box_too_wide(d):
    d["base"]["box"][0] = [-1e308, 1e308]  # hi - lo overflows


def _negative_dim(d):
    d["base"]["dim"] = -1


# counts and indices that once loaded truncated by int()
def _fractional_arity(d):
    d["compose"]["body"]["inputs"] = 8.7


def _fractional_index(d):
    d["compose"]["body"]["nodes"][2]["index"] = 2.9


def _bool_index(d):
    d["compose"]["body"]["nodes"][1]["index"] = True


def _string_arity(d):
    d["compose"]["body"]["inputs"] = "8"


def _constraint_leaves_domain(d):
    # log(x) on the square [-1, 1]^2: sampling raises DomainError
    d["base"]["constraints"] = [
        {"inputs": 2, "outputs": [1],
         "nodes": [{"op": "input", "args": [], "index": 0},
                   {"op": "log", "args": [0]}]}]


@pytest.mark.parametrize("command", ["groupoid", "differentiate"])
@pytest.mark.parametrize("edit", [_huge_arity, _box_lo_above_hi,
                                  _box_not_finite, _box_too_wide,
                                  _negative_dim, _fractional_arity,
                                  _fractional_index, _bool_index,
                                  _string_arity, _constraint_leaves_domain])
def test_malformed_spec_exits_2_under_a_memory_limit(tmp_path, edit, command):
    data = groupoid_to_json_dict(BUILTIN_GROUPOIDS["pair"]())
    edit(data)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(data))
    src = str(Path(__import__("tancat").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", LIMITED_MAIN.format(limit=AS_LIMIT), command,
         "--spec", str(spec), "--samples", "20"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert not re.search(r"\d{20}", proc.stderr)  # no 309-digit count


# -- a seeded mutation fuzz of the spec loader -------------------------

FUZZ_SEED = 20240611
FUZZ_MUTANTS = 200
FUZZ_VALUES = [None, True, False, 0, 1, -1, 2, 10 ** 6, 10 ** 18, 2.5, -0.0,
               1e308, -1e308, "", "x", "8", [], [1, 2], {}, {"op": "input"}]

# One child imports tancat once and forks a grandchild per mutant, which
# sets RLIMIT_AS and runs the command with its output sent to files, so
# 200 runs take seconds, not 200 interpreter starts.  The environment
# pins BLAS and OpenMP to one thread, so the fork copies a process with
# one thread.  A grandchild always leaves by os._exit: an escaping
# exception is printed to its stderr and must not unwind into the loop.
FUZZ_MAIN = """
import json, os, resource, sys, traceback
from tancat.cli import main
with open(sys.argv[1]) as fh:
    jobs = json.load(fh)
codes = []
for k, (spec, argv) in enumerate(jobs):
    path = os.path.join(sys.argv[2], "%d" % k)
    with open(path + ".json", "w") as fh:
        fh.write(spec)
    sys.stdout.flush(); sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
            os.dup2(os.open(path + ".out", os.O_WRONLY | os.O_CREAT), 1)
            os.dup2(os.open(path + ".err", os.O_WRONLY | os.O_CREAT), 2)
            code = main(argv + ["--spec", path + ".json"])
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush(); sys.stderr.flush()
            os._exit(code)
    codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
print(json.dumps(codes))
"""


def _leaves(node, path=()):
    """Paths to every dict key and every leaf below ``node``."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield path + (key,), "key"
            yield from _leaves(val, path + (key,))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _leaves(val, path + (i,))
    else:
        yield path, "leaf"


def _mutants(rng):
    """Seeded mutants: one key deleted or one leaf replaced.

    The site is drawn by its key name first (``dim``, ``box``,
    ``index``, ...), so the few box and split entries are hit as often
    as the many node entries.
    """
    specs = {name: groupoid_to_json_dict(make())
             for name, make in sorted(BUILTIN_GROUPOIDS.items())}
    sites = {}
    for name, d in specs.items():
        for path, kind in _leaves(d):
            key = [k for k in path if isinstance(k, str)][-1]
            sites.setdefault(key, []).append((name, path, kind))
    keys = sorted(sites)
    for _ in range(FUZZ_MUTANTS):
        group = sites[keys[rng.integers(len(keys))]]
        name, path, kind = group[rng.integers(len(group))]
        data = json.loads(json.dumps(specs[name]))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if kind == "key" and rng.random() < 0.5:
            del parent[path[-1]]
        else:
            parent[path[-1]] = FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))]
        command = ["groupoid", "differentiate"][rng.integers(2)]
        yield json.dumps(data), [command, "--samples", "20"]


def test_spec_loader_fuzz(tmp_path):
    # malformed input exits 2 with a message; whatever loads reports in
    # strict JSON; nothing escapes as a traceback or exhausts memory
    jobs = list(_mutants(np.random.default_rng(FUZZ_SEED)))
    (tmp_path / "jobs.json").write_text(json.dumps(jobs))
    src = str(Path(__import__("tancat").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", FUZZ_MAIN.format(limit=AS_LIMIT),
         str(tmp_path / "jobs.json"), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout)
    assert len(codes) == len(jobs)

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    for k, ((spec, argv), code) in enumerate(zip(jobs, codes)):
        out = (tmp_path / f"{k}.out").read_text()
        err = (tmp_path / f"{k}.err").read_text()
        where = f"mutant {k} ({argv[0]}): {spec[:300]}\n{err[-2000:]}"
        assert code in (0, 1, 2), where
        assert "Traceback" not in err, where
        if code == 2:
            assert out == "" and err.startswith("error:"), where
        else:
            json.loads(out, parse_constant=reject)
    # the mutants reach both the error path and the report path
    assert {0, 2} <= set(codes)
