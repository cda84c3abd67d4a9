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
from collections.abc import Callable

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
from .poset import Relation, common_refinement, to_dot
from .scalars import KappaMode, parse_scalar

MAX_ELL_DEFAULT = 4
MAX_N_DEFAULT = 8


def canonical_dumps(payload: dict | Relation) -> str:
    """The canonical JSON text of an artifact; a Relation writes its own."""
    if isinstance(payload, Relation):
        return payload.dumps()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class JobSpec:
    """One resolved invocation: a command plus its inputs and options."""

    def __init__(
        self,
        command: str,
        ell: int | None = None,
        n: int | None = None,
        params: Params | None = None,
        theta: Stability | None = None,
        inputs: tuple[str, ...] = (),
        index_mode: IndexMode = IndexMode.LITERAL,
        oracle_bound: int = LocalizeOptions.oracle_bound,
        retry_bound: int = LocalizeOptions.retry_bound,
        out: str | None = None,
        dot: str | None = None,
        max_n: int | None = None,
    ) -> None:
        self.command, self.ell, self.n = command, ell, n
        self.params, self.theta, self.inputs = params, theta, inputs
        self.index_mode = index_mode
        self.oracle_bound, self.retry_bound = oracle_bound, retry_bound
        self.out, self.dot, self.max_n = out, dot, max_n

    @classmethod
    def from_json(cls, data: dict) -> JobSpec:
        if not isinstance(data, dict):
            raise ValueError("a job file must hold a JSON object")
        options = data.get("options", {})
        if not isinstance(options, dict):
            raise ValueError("job options must be a JSON object")
        ells = [data.get("ell"), _length(data.get("params"), "h"),
                _length(data.get("theta"), "theta")]
        _guard_sizes(ells, data.get("n"), options.get("max_n"))
        _refuse_foreign_keys(data, options)
        params = Params.from_json(data["params"]) if data.get("params") else None
        theta = Stability.from_json(data["theta"]) if data.get("theta") else None
        if type(ells[0]) is int and any(size not in (None, ells[0]) for size in ells[1:]):
            raise ValueError("job field 'ell' must equal the lengths of params.h and theta.theta")
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


def _refuse_foreign_keys(data: dict, options: dict) -> None:
    """Refuse a job key no flag of its command declares; run() reports unknown commands."""
    if isinstance(data.get("command"), str) and data["command"] in COMMANDS:
        flags = COMMANDS[data["command"]].arguments.split()
        top = {"command", "options", *(_TOP_LEVEL.get(flag) for flag in flags)}
        taken = {flag[2:].replace("-", "_") for flag in flags if flag not in _TOP_LEVEL}
        foreign = [key for key in data if key not in top] + [k for k in options if k not in taken]
        if foreign:
            raise ValueError(f"{data['command']} takes no job field {foreign[0]!r}")


def _read_json(path: str):
    """The JSON value held in a job or relation file; NaN and Infinity are not JSON."""
    def refuse(token: str):
        raise ValueError(f"not JSON: {token}")

    with open(path, encoding="utf-8") as handle:
        return json.load(handle, parse_constant=refuse)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _length(source, key: str) -> int | None:
    """len(source[key]) when source is a JSON object holding a list there."""
    if isinstance(source, dict) and isinstance(source.get(key), list):
        return len(source[key])
    return None


def _guard_sizes(ells: list, n, max_n) -> None:
    """Refuse oversized raw sizes before any scalar is parsed; parsing reports non-ints."""
    if any(type(ell) is int and ell > MAX_ELL_DEFAULT for ell in ells):
        raise ValueError(f"ell > {MAX_ELL_DEFAULT} refused by the size guard")
    cap = MAX_N_DEFAULT if max_n is None else max_n
    if type(n) is type(cap) is int and n > cap:
        raise ValueError(f"n > {cap} refused by the size guard (--max-n raises it)")


def _run_enumerate(job: JobSpec) -> tuple[dict, int]:
    labels = enumerate_multipartitions(job.ell, job.n)
    return {"ell": job.ell, "n": job.n, "labels": [mp.to_json() for mp in labels]}, 0


def _run_order(job: JobSpec) -> tuple[Relation, int]:
    rel = relation_p(OrderInstance(job.params, job.n))
    if job.dot is not None:
        _emit(to_dot(rel), job.dot)
    return rel, 0


def _run_spherical(job: JobSpec) -> tuple[dict, int]:
    witnesses = aspherical_witnesses(job.params, job.n)
    artifact = {"spherical": not witnesses, "witnesses": [w.to_json() for w in witnesses]}
    return artifact, 0 if not witnesses else 1


def _run_generic(job: JobSpec) -> tuple[dict, int]:
    witness = genericity_witness(job.theta, job.n, job.index_mode)
    artifact = {
        "generic": witness is None,
        "index_mode": job.index_mode.value,
        "witness": witness,
    }
    return artifact, 0 if witness is None else 1


def _run_theta(job: JobSpec) -> tuple[dict, int]:
    return theta_of_p(job.params).to_json(), 0


def _run_localize(job: JobSpec) -> tuple[dict, int]:
    options = LocalizeOptions(job.index_mode, job.oracle_bound, job.retry_bound)
    try:
        return localize(job.params, job.n, options).to_json(), 0
    except DeformationError as err:
        return {"failed": "deformation", **err.diagnostics}, 1


def _run_common_refinement(job: JobSpec) -> tuple[dict | Relation, int]:
    relations = []
    for path in job.inputs:
        relations.append(Relation.from_json(_read_json(path)))
    result = common_refinement(*relations)
    if result.order is not None:
        return result.order, 0
    return {"cycle": result.cycle}, 1


# Every argument a subcommand may take -> its add_argument keywords.
_ARGUMENTS = {
    "--ell": {"type": int, "required": True},
    "--n": {"type": int, "required": True},
    "--kappa": {"required": True, "help": "rational like 1/2, or 'formal'"},
    "--h": {"help": "comma list of scalars, e.g. 1/4,-1/4 or 0,1/2k"},
    "--theta": {"required": True, "help": "comma list of scalars"},
    "--index-mode": {"choices": [m.value for m in IndexMode], "default": IndexMode.LITERAL.value},
    "--out": {"help": "write the JSON artifact here instead of stdout"},
    "--max-n": {"type": int, "help": "raise the size guard"},
    "--dot": {"help": "also write the Hasse diagram as DOT"},
    "--oracle-bound": {"type": int, "default": LocalizeOptions.oracle_bound},
    "--retry-bound": {"type": int, "default": LocalizeOptions.retry_bound},
    "inputs": {"nargs": 2, "metavar": "RELATION_JSON"},
}

# Top-level job keys of flags; kappa rides in params or theta, other flags are options by dest.
_TOP_LEVEL = {"--ell": "ell", "--n": "n", "--kappa": None, "--h": "params",
              "--theta": "theta", "inputs": "inputs"}


class Command:
    """A subcommand: help, handler returning (artifact, exit code), required
    JobSpec fields, and arguments in the order argparse reports them missing."""

    def __init__(self, help: str, handler: Callable[[JobSpec], tuple[dict | Relation, int]],
                 required: tuple[str, ...], arguments: str) -> None:
        self.help, self.handler = help, handler
        self.required, self.arguments = required, arguments


COMMANDS = {
    "enumerate": Command("list all multipartitions of n", _run_enumerate, ("ell", "n"),
                         "--ell --n --out --max-n"),
    "order": Command("compute the order relation on multipartitions", _run_order,
                     ("n", "params"), "--ell --n --kappa --h --out --max-n --dot"),
    "spherical": Command("list aspherical hyperplanes through p", _run_spherical,
                         ("n", "params"), "--ell --n --kappa --h --out --max-n"),
    "generic": Command("check genericity of a stability vector", _run_generic, ("n", "theta"),
                       "--ell --n --kappa --theta --index-mode --out --max-n"),
    "theta": Command("read the stability vector off p", _run_theta, ("params",),
                     "--ell --kappa --h --out"),
    "localize": Command("deform p and emit a certificate", _run_localize, ("n", "params"),
                        "--ell --n --kappa --h --index-mode --out --max-n "
                        "--oracle-bound --retry-bound"),
    "common-refinement": Command("minimum common refinement of two relation files",
                                 _run_common_refinement, ("inputs",), "inputs --out"),
}


def run(job: JobSpec) -> int:
    if job.command not in COMMANDS:
        raise ValueError(f"unknown command: {job.command}")
    command = COMMANDS[job.command]
    missing = [name for name in command.required if getattr(job, name) in (None, ())]
    if missing:
        raise ValueError(f"{job.command} needs {', '.join(missing)}")
    if job.command == "common-refinement" and len(job.inputs) != 2:
        raise ValueError("common-refinement needs two relation files")
    artifact, code = command.handler(job)
    _emit(canonical_dumps(artifact), job.out)
    return code


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 2 with one `cherloc: ...` line."""

    def error(self, message: str):
        self.exit(2, f"cherloc: {message}\n")


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv: every subcommand, but only the one that argv
    names (its first token that is not an option) gets its arguments."""
    chosen = next((token for token in argv if not token.startswith("-")), None)
    parser = _Parser(
        prog="cherloc",
        description="Exact multipartition box orders, aspherical loci, and "
        "deformation certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for argument in command.arguments.split() if name == chosen else ():
            sp.add_argument(argument, **_ARGUMENTS[argument])
    sp = sub.add_parser("job", help="run a JobSpec JSON file")
    if chosen == "job":
        sp.add_argument("jobfile")
    return parser


def _scalars(text: str | None, flag: str, mode: KappaMode, ell: int) -> tuple:
    """The comma list of --flag, of length ell; an omitted or empty --h is all zeros."""
    if flag == "h" and not text:
        entries = [mode.zero()] * ell
    else:
        entries = [parse_scalar(chunk, mode) for chunk in text.split(",")]
    if len(entries) != ell:
        raise ValueError(f"--{flag} length must equal --ell")
    return tuple(entries)


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    job = JobSpec(**{k: v for k, v in vars(args).items() if k not in ("kappa", "h", "theta")})
    _guard_sizes([job.ell], job.n, job.max_n)
    job.index_mode = IndexMode(job.index_mode)
    job.inputs = tuple(job.inputs)
    if hasattr(args, "kappa"):
        mode = KappaMode.from_label(args.kappa)
        if hasattr(args, "h"):
            job.params = Params(mode, _scalars(args.h, "h", mode, args.ell))
        else:
            job.theta = Stability(_scalars(args.theta, "theta", mode, args.ell))
    return job


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        if args.command == "job":
            job = JobSpec.from_json(_read_json(args.jobfile))
        else:
            job = _job_from_args(args)
        return run(job)
    except RecursionError:
        print("cherloc: input nested too deeply", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError) as err:
        message = f"missing field {err}" if isinstance(err, KeyError) else err
        print(f"cherloc: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
