"""Command line interface.

Exit codes: 0 for success or a positive decision, 1 for a negative
decision (aspherical, non-generic, no common refinement, failed
deformation), 2 for invalid input.  All artifacts are canonical JSON:
sorted keys, two-space indent, trailing newline, rationals as num/den
strings, so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .boxorder import Params
from .combinatorics import enumerate_multipartitions
from .deform import DeformationError, LocalizeOptions, localize
from .loci import (
    IndexMode,
    Stability,
    aspherical_witnesses,
    genericity_witness,
    theta_of_p,
)
from .mporder import OrderInstance, relation_p
from .poset import Relation, common_refinement, label_json, to_dot
from .scalars import KappaMode, parse_scalar

MAX_ELL_DEFAULT = 4
MAX_N_DEFAULT = 8


def canonical_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass
class JobSpec:
    """One resolved invocation: a command plus its inputs and options."""

    command: str
    ell: int | None = None
    n: int | None = None
    params: Params | None = None
    theta: Stability | None = None
    inputs: tuple[str, ...] = ()
    index_mode: IndexMode = IndexMode.LITERAL
    oracle_bound: int = LocalizeOptions.oracle_bound
    retry_bound: int = LocalizeOptions.retry_bound
    out: str | None = None
    dot: str | None = None
    max_n: int | None = None

    @classmethod
    def from_json(cls, data: dict) -> JobSpec:
        if not isinstance(data, dict):
            raise ValueError("a job file must hold a JSON object")
        options = data.get("options", {})
        if not isinstance(options, dict):
            raise ValueError("job options must be a JSON object")
        params = Params.from_json(data["params"]) if data.get("params") else None
        theta = Stability.from_json(data["theta"]) if data.get("theta") else None
        inputs = _field(data, "inputs", list, [])
        if not all(isinstance(path, str) for path in inputs):
            raise ValueError("job field 'inputs' must list file paths")
        return cls(
            command=_field(data, "command", str),
            ell=_field(data, "ell", int),
            n=_field(data, "n", int),
            params=params,
            theta=theta,
            inputs=tuple(inputs),
            index_mode=IndexMode(options.get("index_mode", "literal")),
            oracle_bound=_field(options, "oracle_bound", int, LocalizeOptions.oracle_bound),
            retry_bound=_field(options, "retry_bound", int, LocalizeOptions.retry_bound),
            out=_field(options, "out", str),
            dot=_field(options, "dot", str),
            max_n=_field(options, "max_n", int),
        )


def _field(data: dict, key: str, kind: type, default=None):
    """data[key] checked to be a kind (never a bool), or default when absent."""
    value = data.get(key)
    if value is None:
        return default
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"job field {key!r} must be of type {kind.__name__}")
    return value


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _guard_sizes(job: JobSpec) -> None:
    cap = MAX_N_DEFAULT if job.max_n is None else job.max_n
    ells = [job.ell]
    ells += [source.ell for source in (job.params, job.theta) if source is not None]
    if any(ell is not None and ell > MAX_ELL_DEFAULT for ell in ells):
        raise ValueError(f"ell > {MAX_ELL_DEFAULT} refused by the size guard")
    if job.n is not None and job.n > cap:
        raise ValueError(f"n > {cap} refused by the size guard (--max-n raises it)")


def _run_enumerate(job: JobSpec) -> int:
    labels = enumerate_multipartitions(job.ell, job.n)
    artifact = {
        "ell": job.ell,
        "n": job.n,
        "labels": [mp.to_json() for mp in labels],
    }
    _emit(canonical_dumps(artifact), job.out)
    return 0


def _run_order(job: JobSpec) -> int:
    rel = relation_p(OrderInstance(job.params, job.n))
    if job.dot is not None:
        _emit(to_dot(rel), job.dot)
    _emit(canonical_dumps(rel.to_json()), job.out)
    return 0


def _run_spherical(job: JobSpec) -> int:
    witnesses = aspherical_witnesses(job.params, job.n)
    artifact = {
        "spherical": not witnesses,
        "witnesses": [w.to_json() for w in witnesses],
    }
    _emit(canonical_dumps(artifact), job.out)
    return 0 if not witnesses else 1


def _run_generic(job: JobSpec) -> int:
    witness = genericity_witness(job.theta, job.n, job.index_mode)
    artifact = {
        "generic": witness is None,
        "index_mode": job.index_mode.value,
        "witness": None if witness is None else witness.to_json(),
    }
    _emit(canonical_dumps(artifact), job.out)
    return 0 if witness is None else 1


def _run_theta(job: JobSpec) -> int:
    _emit(canonical_dumps(theta_of_p(job.params).to_json()), job.out)
    return 0


def _run_localize(job: JobSpec) -> int:
    options = LocalizeOptions(job.index_mode, job.oracle_bound, job.retry_bound)
    try:
        certificate = localize(job.params, job.n, options)
    except DeformationError as err:
        artifact = {"failed": "deformation", **err.diagnostics}
        _emit(canonical_dumps(artifact), job.out)
        return 1
    _emit(canonical_dumps(certificate.to_json()), job.out)
    return 0


def _run_common_refinement(job: JobSpec) -> int:
    relations = []
    for path in job.inputs:
        with open(path, encoding="utf-8") as handle:
            relations.append(Relation.from_json(json.load(handle)))
    result = common_refinement(*relations)
    if result.order is not None:
        _emit(canonical_dumps(result.order.to_json()), job.out)
        return 0
    artifact = {"cycle": [label_json(label) for label in result.cycle]}
    _emit(canonical_dumps(artifact), job.out)
    return 1


# command -> (handler, the JobSpec fields it reads)
_HANDLERS = {
    "enumerate": (_run_enumerate, ("ell", "n")),
    "order": (_run_order, ("n", "params")),
    "spherical": (_run_spherical, ("n", "params")),
    "generic": (_run_generic, ("n", "theta")),
    "theta": (_run_theta, ("params",)),
    "localize": (_run_localize, ("n", "params")),
    "common-refinement": (_run_common_refinement, ("inputs",)),
}


def run(job: JobSpec) -> int:
    if job.command not in _HANDLERS:
        raise ValueError(f"unknown command: {job.command}")
    handler, required = _HANDLERS[job.command]
    missing = [name for name in required if getattr(job, name) in (None, ())]
    if missing:
        raise ValueError(f"{job.command} needs {', '.join(missing)}")
    if job.command == "common-refinement" and len(job.inputs) != 2:
        raise ValueError("common-refinement needs two relation files")
    _guard_sizes(job)
    return handler(job)


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    if "ell" in names:
        parser.add_argument("--ell", type=int, required=True)
    if "n" in names:
        parser.add_argument("--n", type=int, required=True)
    if "kappa" in names:
        parser.add_argument("--kappa", required=True, help="rational like 1/2, or 'formal'")
    if "h" in names:
        parser.add_argument("--h", help="comma list of scalars, e.g. 1/4,-1/4 or 0,1/2k")
    if "theta" in names:
        parser.add_argument("--theta", required=True, help="comma list of scalars")
    if "index-mode" in names:
        parser.add_argument(
            "--index-mode",
            choices=[mode.value for mode in IndexMode],
            default=IndexMode.LITERAL.value,
            dest="index_mode",
        )
    parser.add_argument("--out", help="write the JSON artifact here instead of stdout")
    parser.add_argument("--max-n", type=int, dest="max_n", help="raise the size guard")


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 2 with one `cherloc: ...` line."""

    def error(self, message: str):
        self.exit(2, f"cherloc: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cherloc",
        description="Exact multipartition box orders, aspherical loci, and "
        "deformation certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("enumerate", help="list all multipartitions of n")
    _add_common(sp, "ell", "n")

    sp = sub.add_parser("order", help="compute the order relation on multipartitions")
    _add_common(sp, "ell", "n", "kappa", "h")
    sp.add_argument("--dot", help="also write the Hasse diagram as DOT")

    sp = sub.add_parser("spherical", help="list aspherical hyperplanes through p")
    _add_common(sp, "ell", "n", "kappa", "h")

    sp = sub.add_parser("generic", help="check genericity of a stability vector")
    _add_common(sp, "ell", "n", "kappa", "theta", "index-mode")

    sp = sub.add_parser("theta", help="read the stability vector off p")
    _add_common(sp, "ell", "kappa", "h")

    sp = sub.add_parser("localize", help="deform p and emit a certificate")
    _add_common(sp, "ell", "n", "kappa", "h", "index-mode")
    sp.add_argument("--oracle-bound", type=int, default=LocalizeOptions.oracle_bound)
    sp.add_argument("--retry-bound", type=int, default=LocalizeOptions.retry_bound)

    sp = sub.add_parser(
        "common-refinement", help="minimum common refinement of two relation files"
    )
    sp.add_argument("inputs", nargs=2, metavar="RELATION_JSON")
    sp.add_argument("--out")
    sp.add_argument("--max-n", type=int, dest="max_n")

    sp = sub.add_parser("job", help="run a JobSpec JSON file")
    sp.add_argument("jobfile")

    return parser


def _params_from_args(args: argparse.Namespace) -> Params:
    mode = KappaMode.from_label(args.kappa)
    if args.h:
        entries = [parse_scalar(chunk, mode) for chunk in args.h.split(",")]
    else:
        entries = [mode.zero()] * args.ell
    if len(entries) != args.ell:
        raise ValueError("--h length must equal --ell")
    return Params(mode, tuple(entries))


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    job = JobSpec(command=args.command)
    for name in ("ell", "n", "oracle_bound", "retry_bound", "out", "dot", "max_n"):
        if hasattr(args, name):
            setattr(job, name, getattr(args, name))
    if hasattr(args, "index_mode"):
        job.index_mode = IndexMode(args.index_mode)
    if hasattr(args, "kappa") and hasattr(args, "h"):
        job.params = _params_from_args(args)
    if hasattr(args, "theta"):
        mode = KappaMode.from_label(args.kappa)
        entries = [parse_scalar(chunk, mode) for chunk in args.theta.split(",")]
        if len(entries) != args.ell:
            raise ValueError("--theta length must equal --ell")
        job.theta = Stability(tuple(entries))
    if hasattr(args, "inputs"):
        job.inputs = tuple(args.inputs)
    return job


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "job":
            with open(args.jobfile, encoding="utf-8") as handle:
                job = JobSpec.from_json(json.load(handle))
        else:
            job = _job_from_args(args)
        return run(job)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as err:
        print(f"cherloc: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
