"""Command line verification reports.

Subcommands:
    axioms         tangent-structure suite on random charts
    groupoid       laws and differentiability of one groupoid
    differentiate  its algebroid laws plus a frame bracket table
    bracket        vector-field bracket checks on random charts

Reports are JSON with sorted keys and a fixed layout, so repeated runs
with the same flags are byte identical.  The human summary goes to
stderr; stdout carries only the report (unless --out redirects it).

Exit status: 0 when every check passes, 1 when some check fails, 2 when
the input could not be read or parsed, the samples did not fit in
memory, or the report could not be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .algebroid import Algebroid, bracket_table, check_algebroid_laws
from .axioms import run_axiom_suite
from .domain import box_domain
from .errors import (DomainError, FiberMismatchError, KernelViolationError,
                     SamplerError, StructureError, VerticalityError)
from .fields import (ScalarField, VectorField, bracket_by_jacobians,
                     check_bracket_laws, kernel_residual, lie_bracket)
from .groupoid import (BUILTIN_GROUPOIDS, FiberedGroupoid,
                       check_differentiability, check_groupoid_axioms,
                       groupoid_from_json_dict)
from .randexpr import random_expr
from .report import CheckResult, Report, RunConfig, rng_for
from .tanpoint import residual

DEFAULT_SEED = 7


class InputError(Exception):
    """A problem with what the user handed us, reported as exit code 2."""


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise InputError(f"--dims wants a comma list of integers, got {text!r}") from None
    if not dims or any(d < 1 for d in dims):
        raise InputError(f"--dims wants positive dimensions, got {text!r}")
    return dims


def _load_groupoid(args) -> FiberedGroupoid:
    if args.spec is not None:
        try:
            text = Path(args.spec).read_text()
        except OSError as err:
            raise InputError(f"cannot read {args.spec}: {err}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise InputError(f"{args.spec}: invalid JSON at line {err.lineno} "
                             f"column {err.colno}: {err.msg}") from None
        except ValueError as err:  # an integer past the digit limit
            raise InputError(f"{args.spec}: invalid JSON: {err}") from None
        try:
            return groupoid_from_json_dict(data)
        except (ValueError, TypeError, AttributeError, OverflowError) as err:
            # OverflowError: an integer past the range of a float
            raise InputError(f"{args.spec}: malformed spec: {err}") from None
    return BUILTIN_GROUPOIDS[args.suite]()


def _check_flags(args) -> None:
    if args.seed < 0:  # numpy's SeedSequence refuses it with a traceback
        raise InputError(f"--seed wants a non-negative integer, got {args.seed}")
    if args.samples < 1:
        raise InputError(f"--samples wants a positive count, got {args.samples}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise InputError(f"--tol wants a finite non-negative number, got {args.tol}")


def _add_checks(rep: Report, prefix: str, residuals: dict, samples: int,
                tol: float) -> None:
    """One check per residual, named ``prefix + key``."""
    for k, v in sorted(residuals.items()):
        rep.add(CheckResult.from_residual(prefix + k, samples, v, tol))


def _finish(report: Report, args) -> int:
    text = report.dumps()
    if args.out is not None:
        try:
            Path(args.out).write_text(text)
        except OSError as err:
            raise InputError(f"cannot write {args.out}: {err}") from None
    else:
        sys.stdout.write(text)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    good = sum(c.passed for c in report.checks)
    print(f"{report.suite}: {good}/{len(report.checks)} checks passed",
          file=sys.stderr)
    return 0 if report.ok else 1


# -- subcommands ------------------------------------------------------

def _cmd_axioms(args) -> int:
    cfg = RunConfig(seed=args.seed, samples=args.samples, tol=args.tol,
                    dims=_parse_dims(args.dims))
    return _finish(run_axiom_suite(cfg), args)


def _cmd_groupoid(args) -> int:
    G = _load_groupoid(args)
    rep = Report(suite=f"groupoid/{G.name or 'spec'}", seed=args.seed)
    rng = rng_for(args.seed, "cli/groupoid/laws")
    _add_checks(rep, "laws/", check_groupoid_axioms(G, rng, args.samples),
                args.samples, args.tol)
    n_diff = max(20, args.samples // 4)
    rng = rng_for(args.seed, "cli/groupoid/diff")
    _add_checks(rep, "differentiability/",
                check_differentiability(G, rng, n_diff), n_diff, args.tol)
    return _finish(rep, args)


def _cmd_differentiate(args) -> int:
    G = _load_groupoid(args)
    rep = Report(suite=f"differentiate/{G.name or 'spec'}", seed=args.seed)
    rng = rng_for(args.seed, "cli/differentiate/gate")
    _add_checks(rep, "gate/", check_groupoid_axioms(G, rng, args.samples),
                args.samples, args.tol)
    if not rep.ok:
        # nothing downstream is meaningful on a broken groupoid
        return _finish(rep, args)
    # the gate/* checks above are the axioms algebroid_of would run again
    al = Algebroid(G, name=f"A({G.name})")
    laws = check_algebroid_laws(al, rng_for(args.seed, "cli/differentiate/laws"),
                                samples=args.samples)
    _add_checks(rep, "laws/", laws, args.samples, args.tol)
    pts = al.base.sample(rng_for(args.seed, "cli/differentiate/table"), 16)
    rep.extra["base_dim"] = al.base.dim
    rep.extra["rank"] = al.rank
    rep.extra["bracket_table"] = bracket_table(al, pts)
    return _finish(rep, args)


def _cmd_bracket(args) -> int:
    rep = Report(suite="bracket", seed=args.seed)
    for d in _parse_dims(args.dims):
        rng = rng_for(args.seed, f"cli/bracket/dim{d}")
        dom = box_domain(d, -1.5, 1.5, name=f"box{d}")
        u = VectorField.from_expr(dom, random_expr(rng, d, d, depth=4), name="u")
        v = VectorField.from_expr(dom, random_expr(rng, d, d, depth=4), name="v")
        w = VectorField.from_expr(dom, random_expr(rng, d, d, depth=4), name="w")
        f = ScalarField.from_expr(dom, random_expr(rng, d, 1, depth=3), name="f")
        g = ScalarField.from_expr(dom, random_expr(rng, d, 1, depth=3), name="g")
        pts = dom.sample(rng, args.samples)
        res = {"jacobian_route": residual(lie_bracket(v, w).at(pts),
                                         bracket_by_jacobians(v, w, pts)),
               "kernel": kernel_residual(v, w, pts),
               **check_bracket_laws(u, v, w, f, g, pts)}
        _add_checks(rep, f"dim{d}/", res, args.samples, args.tol)
    return _finish(rep, args)


# -- wiring -----------------------------------------------------------

@functools.cache  # one parser per process: building it costs about 1 ms
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tancat",
        description="deterministic verification reports for tangent "
                    "structure, groupoids, and their algebroids")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, groupoid_input: bool = False):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"RNG seed (default {DEFAULT_SEED})")
        p.add_argument("--samples", type=int, default=200,
                       help="sample points per check (default 200)")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="residual tolerance (default 1e-9)")
        p.add_argument("--out", default=None, metavar="FILE",
                       help="write the JSON report to FILE instead of stdout")
        if groupoid_input:
            pick = p.add_mutually_exclusive_group()
            pick.add_argument("--suite", choices=sorted(BUILTIN_GROUPOIDS),
                              default="pair", help="a built-in groupoid")
            pick.add_argument("--spec", default=None, metavar="FILE",
                              help="a groupoid description in JSON")

    pa = sub.add_parser("axioms", help="tangent-structure suite")
    common(pa)
    pa.add_argument("--dims", default="1,2,3",
                    help="chart dimensions, comma separated (default 1,2,3)")
    pa.set_defaults(run=_cmd_axioms)

    pg = sub.add_parser("groupoid", help="groupoid laws and differentiability")
    common(pg, groupoid_input=True)
    pg.set_defaults(run=_cmd_groupoid)

    pd = sub.add_parser("differentiate",
                        help="algebroid laws and frame bracket table")
    common(pd, groupoid_input=True)
    pd.set_defaults(run=_cmd_differentiate)

    pb = sub.add_parser("bracket", help="vector-field bracket checks")
    common(pb)
    pb.add_argument("--dims", default="1,2,3",
                    help="chart dimensions, comma separated (default 1,2,3)")
    pb.set_defaults(run=_cmd_bracket)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.run(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (StructureError, SamplerError, DomainError, VerticalityError,
            KernelViolationError, FiberMismatchError) as err:
        # a spec that parses but cannot be worked with, such as a domain
        # constraint that leaves a primitive's domain, or a groupoid
        # that passes its gate at a loose --tol but fails a construction
        # check of fixed tolerance
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # a --samples past what memory holds
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())
