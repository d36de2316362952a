"""Command-line surface.

A subgroup token is ``distinguished``, ``auto-<order>`` (the one normal
subgroup of that order, in ASCII digits) or ``gens=i,j,...``.  One
certificate, the coset profile included, is ``certify DSET --checks NAME``.

Exit codes: 0 all requested checks pass, 1 some check failed, 2 usage or
file error, 3 search budget exceeded.  All output is deterministic: reruns
produce byte-identical bytes.  The one exception is the line ``search``
prints to stderr when it stops, which reports its nodes, leaves and wall
time; nodes and leaves count the reduced walk of ``exhaustive_search`` (one
first-coset choice per orbit of the central involutions of H), not the
whole tree.

Each process runs one subcommand, and each subcommand imports the layers it
uses: only ``construct``, ``thm81`` and ``search`` import ``constructions``
(and with it ``f2``), so ``certify`` and ``export-hadamard`` never load them.
The subgroup lattice, the screens and the Cayley-table proof are in the
module ``rshds.screen``, which the ``screen`` and ``quotient`` commands, an
``auto-<order>`` subgroup token and a ``file:`` spec load; ``construct``,
``certify``, ``export-hadamard`` and ``thm81`` on a gnk: or c4n: spec never
do.  The Schur-ring, spectrum and Hadamard certificates are in
``rshds.schur``, which only a ``certify`` that runs one of them loads.

A process runs ``run``, the entry of ``python -m rshds.cli`` and of the
``rshds`` console script: it calls ``main()``, then ``gc.freeze()``, then
exits with the code.  At shutdown CPython runs full collections over every
object the collector tracks, some twelve thousand after a ``certify``, at 1
to 2 ms each; they skip frozen objects.  Nothing else of the exit changes:
refcount teardown, atexit handlers, the flush of stdout and stderr and the
exit code are as before.  ``main`` neither freezes nor exits, so in-process
callers leave the collector as they found it.

The command table ``_COMMANDS`` is the one parser, not argparse.  It reads a
command line as argparse did but for unique option prefixes (``--js``), an
option after the required positionals on Python 3.12 and later, ``-h`` after a
leading dash word or a bare flag's value, and a second or a trailing ``--``.
"""
from __future__ import annotations

import gc
import json
import re
import sys
import time
from types import SimpleNamespace
from typing import List, NoReturn, Optional, Sequence

from . import certify, formats
from .certify import CHECK_ORDER, CertReport, PreconditionError
from .formats import FormatError, GroupSpec
from .groups import (
    FiniteGroup,
    GroupError,
    ParameterSet,
    Subgroup,
    closure,
    normal_subgroups_of_prime_index,
    subgroups_of_order,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_AUTO_RE = re.compile(r"auto-([0-9]+)")
_INDEX_RE = re.compile(r"[0-9]+")


def _parse_subgroup(group: FiniteGroup, token: str) -> Subgroup:
    """Resolve a subgroup token: distinguished | auto-<order> | gens=i,j."""
    if token == "distinguished":
        sub = group.distinguished_subgroup()
        if sub is None:
            raise FormatError(
                f"group has no distinguished subgroup; use gens=... ({token!r})"
            )
        return sub
    m = _AUTO_RE.fullmatch(token)
    if m:
        order = int(m.group(1))
        candidates = subgroups_of_order(group, order, normal=True)
        if len(candidates) != 1:
            raise FormatError(
                f"expected exactly one normal subgroup of order {order}, found {len(candidates)}"
            )
        return candidates[0]
    if token.startswith("gens="):
        gens = [x for x in token[5:].split(",") if x != ""]
        if not all(map(_INDEX_RE.fullmatch, gens)):
            raise FormatError(f"subgroup generators must be ASCII integers ({token!r})")
        return closure(group, [int(x) for x in gens])
    raise FormatError(f"unrecognized subgroup token {token!r}")


def _subgroup_field(group: FiniteGroup, sub: Subgroup):
    """The dset-v1 subgroup field: "distinguished" if it is, else the members."""
    return "distinguished" if group.distinguished_subgroup() == sub else list(sub.members)


def _emit_reports(reports: Sequence[CertReport], as_json: bool) -> None:
    if as_json:
        print(json.dumps([r.to_json_dict() for r in reports], separators=(",", ":")))
        return
    for r in reports:
        print(r.summary())
        for w in r.warnings:
            print(f"  warning: {w}")
        if not r.passed:
            print(f"  witnesses: {json.dumps(r.witnesses, separators=(',', ':'), default=str)}")


def _default_out(spec: GroupSpec, suffix: str) -> str:
    stem = str(spec).replace(":", "_").replace(",", "_").replace("/", "_")
    return f"{stem}.{suffix}"


def _params_line(params) -> str:
    return f"(v,k,lambda)=({params.v},{params.k},{params.lam})"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_params(args) -> int:
    print(_params_line(ParameterSet(args.h)))
    return EXIT_OK


def _cmd_construct(args) -> int:
    from . import constructions

    spec = GroupSpec.parse(args.spec)
    if spec.kind == "gnk":
        candidate = constructions.gnk_difference_set(spec.n, spec.k)
        report = certify.check_rshds(*candidate)
    elif spec.kind == "c4n":
        candidate = constructions.c4n_difference_set(spec.n)
        report = certify.check_difference_set(candidate.group, candidate.elements)
    else:
        raise FormatError("construct needs a gnk: or c4n: spec")
    out = args.out or _default_out(spec, "dset.json")
    formats.write_dset(out, spec, "distinguished", candidate.elements)
    print(_params_line(candidate.params))
    _emit_reports([report], args.json)
    print(f"wrote {out}")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_certify(args) -> int:
    group, sub, elements, _ = formats.read_dset(args.dset)
    if args.checks is not None:
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not names:
            raise FormatError(f"--checks {args.checks!r} names no check")
        for c in names:
            if c not in CHECK_ORDER:
                raise FormatError(f"unknown check {c!r}; choose from {','.join(CHECK_ORDER)}")
        names = [c for c in CHECK_ORDER if c in names]
    else:
        names = list(CHECK_ORDER)
    reports = certify.run_checks(group, sub, elements, names)
    _emit_reports(reports, args.json)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _cmd_thm81(args) -> int:
    from . import constructions

    spec = GroupSpec.parse(args.spec)
    group = formats.build_group(spec)
    sub = _parse_subgroup(group, args.subgroup)
    assignment = constructions.find_hyperplane_assignment(group, sub)
    if assignment is None:
        print("none")
        return EXIT_OK
    h = sub.order
    n = h.bit_length() - 1
    for i in range(1, h):
        rep = assignment.decomposition.transversal[i]
        print(
            f"coset {i}: rep {group.element_name(rep)} -> hyperplane normal "
            f"{assignment.normals[i]:0{n}b}"
        )
    candidate = constructions.assignment_difference_set(assignment)
    report = certify.check_difference_set(group, candidate.elements)
    _emit_reports([report], args.json)
    out = args.out or _default_out(spec, "thm81.dset.json")
    formats.write_dset(out, spec, _subgroup_field(group, sub), candidate.elements)
    print(f"wrote {out}")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_screen(args) -> int:
    from .screen import _screen_order

    spec = GroupSpec.parse(args.spec)
    group = formats.build_group(spec)
    _screen_order(group, args.h)
    sub: Optional[Subgroup]
    if args.subgroup:
        sub = _parse_subgroup(group, args.subgroup)
    else:
        sub = group.distinguished_subgroup()
    report = certify.structural_tests(group, args.h, sub, unique_normal_h=True)
    _emit_reports([report], args.json)
    return EXIT_OK if report.passed else EXIT_FAIL


def _search_stats(nodes: int, leaves: int, seconds: float) -> None:
    rate = nodes / seconds if seconds > 0 else 0.0
    print(f"search: {nodes} nodes, {leaves} leaves, {seconds:.3f} s, {rate:.0f} nodes/s",
          file=sys.stderr)


def _cmd_search(args) -> int:
    from .constructions import BudgetExceededError, exhaustive_search

    spec = GroupSpec.parse(args.spec)
    group = formats.build_group(spec)
    sub = _parse_subgroup(group, args.subgroup)
    start = time.perf_counter()
    try:
        result = exhaustive_search(group, sub, budget=args.budget)
    except BudgetExceededError as exc:
        _search_stats(exc.nodes, exc.leaves, time.perf_counter() - start)
        print(
            f"budget exceeded: {exc} (nodes={exc.nodes}, leaves={exc.leaves}, found={exc.found})",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    _search_stats(result.nodes, result.leaves, time.perf_counter() - start)
    print(f"found {result.count} difference set(s) "
          f"({result.nodes} nodes, {result.leaves} leaves)")
    if result.candidates and result.candidates[0].params.h == 2:
        print("warning: degenerate h=2, lambda = 0")
    for c in result.candidates:
        print("  " + ",".join(str(e) for e in c.elements))
    if args.out and result.candidates:
        first = result.candidates[0].elements
        formats.write_dset(args.out, spec, _subgroup_field(group, sub), first)
        print(f"wrote the first set to {args.out}")
    elif args.out:
        print(f"no set found; {args.out} not written")
    return EXIT_OK


def _cmd_quotient(args) -> int:
    group, sub, elements, _ = formats.read_dset(args.dset)
    kernels = []
    if args.kernel:
        kernels.append(_parse_subgroup(group, args.kernel))
    else:
        kernels = [s for s, _ in normal_subgroups_of_prime_index(group)]
    reports = [
        certify.quotient_check(group, sub, elements, n) for n in kernels
    ]
    _emit_reports(reports, args.json)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _cmd_export_hadamard(args) -> int:
    group, sub, elements, _ = formats.read_dset(args.dset)
    base = certify.check_rshds(group, sub, elements)
    if not base.passed:
        _emit_reports([base], args.json)
        print("refusing to export: candidate is not a certified m=0 set", file=sys.stderr)
        return EXIT_FAIL
    matrix = certify.hadamard_matrix(group, elements)
    formats.write_hadamard(args.out, matrix)
    print(f"wrote {args.out} ({len(matrix)}x{len(matrix)})")
    return EXIT_OK


def _cmd_dump_table(args) -> int:
    spec = GroupSpec.parse(args.spec)
    group = formats.build_group(spec)
    out = args.out or _default_out(spec, "cayley.json")
    formats.write_cayley(group, out)
    print(f"wrote {out} (order {group.order})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# the command table, and the one parser that reads it
# ---------------------------------------------------------------------------

# name -> (handler, help, usage).  The help prints the usage after "rshds NAME
# [-h]": a bracketed item is optional, and an option followed by a METAVAR
# takes a value.  _parse runs what the module holds under the handler's name,
# so a wrapper set on the handler runs.
_COMMANDS = {
    "params": (_cmd_params, "print (v,k,lambda) = (h^2, h(h-1)/2, h(h-2)/4) for an even h", "h"),
    "construct": (_cmd_construct, "build the canonical difference set of a gnk: or c4n: group",
                  "[--json] [--out OUT] spec"),
    "certify": (_cmd_certify, "run certificates on a dset-v1 file; CHECKS is a comma list from "
                f"{','.join(CHECK_ORDER)} (default all)", "[--json] [--checks CHECKS] dset"),
    "thm81": (_cmd_thm81, "search a hyperplane-to-coset matching and build its difference set",
              "[--json] [--out OUT] spec subgroup"),
    "screen": (_cmd_screen, "run the four structural tests", "[--json] spec h [subgroup]"),
    "search": (_cmd_search, "exhaustively enumerate all partition difference sets; N is a node "
               "budget", "[--out OUT] [--budget N] spec subgroup"),
    "quotient": (_cmd_quotient, "quotient distribution checks for a dset-v1 file against the "
                 "normal KERNEL (default: each of prime index)", "[--json] [--kernel KERNEL] dset"),
    "export-hadamard": (_cmd_export_hadamard, "write the +-1 matrix of a certified m=0 set",
                        "[--json] --out OUT dset"),
    "dump-table": (_cmd_dump_table, "write a cayley-v1 table", "[--out OUT] spec"),
}
# a dash-led word that is not "-" and not a negative number
_OPTION_LIKE_RE = re.compile(r"-(?!\d+$|\d*\.\d+$).", re.S)


def _stop(name: Optional[str], error: Optional[str] = None) -> NoReturn:
    """Print the help of ``name`` and exit 0, or its usage and ``error`` and exit 2."""
    if name is None:
        usage = "usage: rshds [-h] {" + ",".join(_COMMANDS) + "} ..."
        about = ["Construct and exactly certify difference sets disjoint from a subgroup.", "",
                 "commands:", *(f"  {cmd:<16} {entry[1]}" for cmd, entry in _COMMANDS.items())]
    else:
        usage = f"usage: rshds {name} [-h] {_COMMANDS[name][2]}"
        about = [_COMMANDS[name][1]]
    if error is None:
        print(usage, "", *about, sep="\n")
        raise SystemExit(EXIT_OK)
    print(usage, f"error: {error}", sep="\n", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _is_option(arg: str, flags) -> bool:
    """Whether argparse read ``arg`` as an option: an option-like word with no
    space in it, or one whose part before ``=`` names a flag (``--out=a b``)."""
    flag = arg.partition("=")[0]
    return bool(_OPTION_LIKE_RE.match(arg)) and (
        " " not in arg or flag in flags or flag in ("-h", "--help"))


def _value(name: str, dest: str, value: str):
    try:
        return int(value) if dest in ("h", "--budget") else value
    except ValueError:
        _stop(name, f"argument {dest}: invalid int value: {value!r}")


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """The command, its handler and its arguments, read as the module docstring says."""
    name, *rest = argv or [None]
    if name in ("-h", "--help"):
        _stop(None)
    if name not in _COMMANDS:
        _stop(None, f"invalid choice: {name!r} (choose from {', '.join(_COMMANDS)})"
              if name else "the following arguments are required: command")
    handler, _, usage = _COMMANDS[name]
    items = []  # [optional, word, METAVAR or None] for each item of the usage
    for word in usage.split():
        if word.strip("[]").isupper():  # the METAVAR of the option before it
            items[-1][2] = word.strip("[]")
        else:
            items.append([word[0] == "[", word.strip("[]"), None])
    dests = [word for _, word, _ in items if word[0] != "-"]
    required = sum(not optional for optional, word, _ in items if word[0] != "-")
    flags = {word: (optional, metavar) for optional, word, metavar in items if word[0] == "-"}
    values = dict.fromkeys(dests)
    values.update((flag[2:], None if metavar else False) for flag, (_, metavar) in flags.items())
    taken, extras, limit, args = 0, [], len(dests), iter(rest)
    for arg in args:
        if arg == "--" or not _is_option(arg, flags):
            for word in list(args) if arg == "--" else [arg]:
                if taken < limit:
                    values[dests[taken]] = _value(name, dests[taken], word)
                    taken += 1
                else:
                    extras.append(word)
            continue
        if arg in ("-h", "--help"):
            _stop(name)
        if taken >= required:  # as argparse did, an option here ends the positionals
            limit = taken
        flag, eq, value = arg.partition("=")
        if flag in flags and flags[flag][1]:
            value = value if eq else next(args, None)
            if value is None or (not eq and _is_option(value, flags)):
                _stop(name, f"argument {flag}: expected one argument")
            values[flag[2:]] = _value(name, flag, value)
        elif flag in flags and not eq:
            values[flag[2:]] = True
        else:
            extras.append(arg)
    missing = dests[taken:required] + [
        flag for flag, (optional, _) in flags.items() if not optional and values[flag[2:]] is None]
    if missing:
        _stop(name, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _stop(name, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=name, func=globals()[handler.__name__], **values)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (FormatError, GroupError, PreconditionError, OSError) as exc:
        # a ConstructionError is a GroupError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> NoReturn:
    """Run ``main()``, freeze the heap it leaves, and exit with its code.

    The freeze runs however ``main`` ends, a usage error's ``SystemExit``
    included, so that no exit path pays the shutdown collections.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
