"""Command line surface: enumerate, decompose, verify, count, export.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 malformed
certificate, 4 resource bound exceeded.  A reader that closes stdout
early (`| head`) ends the command quietly with exit 0; a stdout that
cannot be written (a full device, or closed from the start) is a usage
error, as is an `--out` file that cannot be written.  A stderr that is
closed or cannot be written loses the diagnostic line, not the exit
code.  Output is deterministic for identical flags.  The tube modules
are imported only by the commands on a tube.

`_COMMANDS` lists every command's arguments once.  `main` parses argv with
`_parse_plain`, which reads that table and accepts only the plain form;
`build_parser` makes the argparse parser of the same table, and argparse,
imported only then, parses whatever else `main` is given: `--help` and the
argv the plain parse declines, and writes every help and usage text.
"""

from __future__ import annotations

import errno
import math
import os
import sys
import types
from collections.abc import Iterable, Iterator

from . import jsonio
from .decompose import (
    _mask_walk,
    count_torsion_pairs,
    decompose as peel,
    iter_torsion_pairs,
    same_residual,
)
from .intervals import model_for
from .jsonio import CertificateError
from .quiver import LINEAR_UNION, STRONG_ONE, BoundExceededError, linear_an
from .torsion import bit_indices, is_ntp, is_torsion_pair, mask_of

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CERTIFICATE = 3
EXIT_BOUND = 4

DEFAULT_MAX_N = 6
DEFAULT_CERTIFICATE_MAX_N = 40
DEFAULT_CAP = 8


def _check_bound(value: int, bound: int, what: str) -> None:
    if value > bound:
        raise BoundExceededError(f"{what} {value} exceeds the bound {bound}")


def _certificate_vertices(obj: dict) -> int | None:
    """Vertices of the certificate's quiver, read from the raw JSON: `n`,
    the component lengths summed, or a tube's `rank`.  A tube partition
    must cover 1..rank, so one naming fewer vertices is bounded by that
    count and left for decoding to reject.  None for a malformed category
    or tube payload, which decoding then reports."""
    category = obj.get("category")
    try:
        if "rank" in obj:
            named = len(obj["delta"]) + sum(len(p) for p in obj["residual_partition"])
            return min(jsonio.json_int(obj["rank"]), named)
        if category.get("shape") == LINEAR_UNION:
            return sum(len(c) for c in category["components"])
        return jsonio.json_int(category["n"])
    except (AttributeError, KeyError, TypeError, ValueError):
        return None


def _load_certificate(args) -> tuple[dict, str]:
    """The certificate and its payload kind, once its size is within
    `--max-n`, before any quiver or model is built.  Only here is `json`
    imported: the commands that print load none of it."""
    import json

    try:
        with open(args.certificate, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise CertificateError(f"cannot read {args.certificate}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, an integer past the digit limit
        raise CertificateError(f"{args.certificate} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per level of nesting
        raise CertificateError(f"{args.certificate} is nested too deeply") from exc
    kind = jsonio.certificate_kind(obj)
    vertices = _certificate_vertices(obj)
    if vertices is not None:
        _check_bound(vertices, args.max_n, "certificate size")
    return obj, kind


def _emit(args, text: str) -> None:
    _write(args, (text, "\n"))


def _write(args, pieces: Iterable[str]) -> None:
    """Write the pieces in order to `--out` or stdout.  `writelines` pulls
    them one at a time, so output is written as it is made.  A write that
    fails ends the command as a usage error and leaves what was written
    before it; on stdout, what the buffer still holds is dropped, so the
    final flush does not report the failure again."""
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    elif sys.stdout is None:  # the process started with stdout closed
        raise ValueError(_unwritable_stdout(OSError(errno.EBADF, os.strerror(errno.EBADF))))
    else:
        try:
            sys.stdout.writelines(pieces)
        except BrokenPipeError:
            raise
        except OSError as exc:
            _drop_stdout()
            raise ValueError(_unwritable_stdout(exc)) from exc


def _drop_stdout() -> None:
    """Send what stdout's buffer holds, and every later write, to devnull."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _unwritable_stdout(exc: OSError) -> str:
    return f"cannot write stdout: {exc.strerror}"


def _report(line: str) -> None:
    """Print a diagnostic line to stderr.  A stderr that is closed or cannot
    be written loses the line, never the exit code."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr, flush=True)
        except OSError:
            pass


def cmd_enumerate(args) -> int:
    """Print every torsion pair of the path (`--an`) or the tube (`--tube`)
    as a certificate: one JSON array, or one numbered line per pair.

    The output is written as it is made: each certificate is encoded when
    the walk reaches it and `_write` hands it on at once, so the run holds
    one certificate's text, never the whole output.  The path pairs come
    one at a time as class masks from the mask walk (`decompose._mask_walk`),
    whose records are joined from the byte-chunk tables of
    `jsonio.PairRecords` without building the pairs' objects.  The tube
    certificates are encoded from the partitions of `tubepairs._classified`,
    without pair objects; the run holds one (kind, delta) group's walk.
    """
    if args.an is not None:
        _check_bound(args.an, args.max_n, "n")
        q = linear_an(args.an)
        records = jsonio.PairRecords(q)
        walk = _mask_walk(model_for(q), STRONG_ONE, 0)
        texts = (records.record(torsion, free) for _, torsion, free in walk)
    else:
        from .tubepairs import _classified

        _check_bound(args.tube, args.max_n, "rank")
        texts = (
            jsonio.dumps_canonical(jsonio.tube_partition_obj(args.tube, kind, delta, tail))
            for kind, delta, _, walk in _classified(args.tube)
            for tail, _, _ in walk
        )
    if args.format == "json":
        _write(args, _json_array(texts))
    else:
        _write(args, (f"{i}: {text}\n" for i, text in enumerate(texts)))
    return EXIT_OK


def _json_array(texts: Iterable[str]) -> Iterator[str]:
    """The JSON array of the encoded texts and a newline, in pieces."""
    yield "["
    for i, text in enumerate(texts):
        yield "," + text if i else text
    yield "]\n"


def _certificate_model(q, modules):
    """Model of q, once every interval the certificate names is a segment of q."""
    model = model_for(q)
    for X in modules:
        try:
            model.check_interval(X)
        except ValueError as exc:
            raise CertificateError(str(exc)) from exc
    return model


def cmd_decompose(args) -> int:
    obj, kind = _load_certificate(args)
    if kind != "pair":
        raise CertificateError("decompose needs a torsion pair certificate")
    q, tp = jsonio.pair_from_obj(obj)
    _certificate_model(q, tp.torsion | tp.free)
    sides = ("left", "right") if args.side == "both" else (args.side,)
    try:  # each peel checks that its input is a torsion pair
        results = {side: peel(q, tp, side) for side in sides}
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc
    payload: dict = {side: jsonio.decomposition_to_obj(r) for side, r in results.items()}
    if args.side == "both":
        payload["residuals_agree"] = same_residual(results["left"], results["right"])
    else:
        payload = payload[args.side]
    _emit(args, jsonio.dumps_canonical(payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    obj, kind = _load_certificate(args)
    if kind == "pair":
        q, tp = jsonio.pair_from_obj(obj)
        check = is_torsion_pair(_certificate_model(q, tp.torsion | tp.free), tp.torsion, tp.free)
    elif kind == "ntp":
        q, ntp = jsonio.ntp_from_obj(obj)
        check = is_ntp(_certificate_model(q, frozenset().union(*ntp.parts)), ntp.parts)
    else:
        from .tubepairs import truncated_check

        data = jsonio.tube_pair_from_obj(obj)
        _check_bound(args.cap, args.max_cap, "cap")
        check = truncated_check(data, args.cap)
    if check:
        _emit(args, "PASS")
        return EXIT_OK
    _emit(args, f"FAIL: {check.reason} (witness: {check.witness})")
    return EXIT_VERIFY


def cmd_count(args) -> int:
    """Print the count, refusing one longer than Python's int-to-str digit
    limit: before computing it if its lower bound 2^(k - 1) already is."""
    if args.an is not None:
        _check_bound(args.an, args.max_n, "n")
        count, size, k = count_torsion_pairs, args.an, args.an + 1
    else:
        from .tubepairs import count_tube_tps

        _check_bound(args.tube, args.max_n, "rank")
        count, size, k = count_tube_tps, args.tube, args.tube
    limit = sys.get_int_max_str_digits()
    too_long = f"the count has more than {limit} digits, Python's int-to-str conversion limit"
    if limit and (k - 1) * math.log10(2) >= limit:
        raise BoundExceededError(too_long)
    value = count(size, check=args.check)
    if limit and value >= 10**limit:
        raise BoundExceededError(too_long)
    _emit(args, str(value))
    return EXIT_OK


def _dot_ar_linear(q) -> Iterator[str]:
    objects = model_for(q).objects
    yield "digraph ar {\n"
    for X in objects:
        yield f'  "[{X.a},{X.b}]";\n'
    for X in objects:
        if X.b > X.a:  # drop the socle
            yield f'  "[{X.a},{X.b}]" -> "[{X.a},{X.b - 1}]";\n'
        if X.a > 1:  # extend at the top
            yield f'  "[{X.a},{X.b}]" -> "[{X.a - 1},{X.b}]";\n'
    yield "}\n"


def _dot_ar_tube(rank: int, cap: int) -> Iterator[str]:
    from .tube import all_tube_modules, tau_inv_tube

    modules = all_tube_modules(rank, cap)
    yield "digraph ar {\n"
    for X in modules:
        yield f'  "U({X.socle},{X.length})";\n'
    for X in modules:
        if X.length > 1:
            down = tau_inv_tube(X)
            yield f'  "U({X.socle},{X.length})" -> "U({down.socle},{X.length - 1})";\n'
        if X.length < cap:
            yield f'  "U({X.socle},{X.length})" -> "U({X.socle},{X.length + 1})";\n'
    yield "}\n"


def _dot_lattice(q) -> Iterator[str]:
    """Hasse diagram of the torsion classes of the path, ordered by size
    and then by their sorted intervals, with its edges in that order.

    Every brick B of a torsion class T gives the smaller torsion class
    T & perp(B), perp(B) being the objects with no map to B, and every
    lower cover of T is one of these, labelled by its brick
    (Demonet-Iyama-Reading-Reiten-Thomas).  Every interval is a brick, so
    the lower covers of T are the maximal classes T & perp(B), B in T.

    The classes, their covers and their labels are made before the first
    line and the lines one at a time, so the run holds the labels but
    never the whole text.
    """
    model = model_for(q)
    records = jsonio.PairRecords(q)
    # the model lists its objects in (a, b) order, so bit order is interval order
    classes = sorted(
        (mask_of(model, tp.torsion) for tp in iter_torsion_pairs(q)),
        key=lambda T: (T.bit_count(), bit_indices(T)),
    )
    position = {T: k for k, T in enumerate(classes)}
    rows = model.hom_rows
    perp = [~sum(1 << i for i, row in enumerate(rows) if row >> b & 1) for b in range(len(rows))]
    # the upper covers of each class, each list in increasing order
    uppers: list[list[int]] = [[] for _ in classes]
    for k, T in enumerate(classes):
        # a candidate inside another lies inside a maximal one, found earlier
        maxima: list[int] = []
        for low in sorted({T & perp[b] for b in bit_indices(T)}, key=int.bit_count, reverse=True):
            if all(low & high != low for high in maxima):
                maxima.append(low)
        for low in maxima:
            uppers[position[low]].append(k)
    labels = ['"{' + records.join(T) + '}"' for T in classes]
    yield "digraph lattice {\n"
    for label in labels:
        yield f"  {label};\n"
    for low, highs in enumerate(uppers):
        for high in highs:
            yield f"  {labels[low]} -> {labels[high]};\n"
    yield "}\n"


def cmd_export(args) -> int:
    """Write the DOT text line by line as it is made.  Every check that can
    fail runs first, so a failing command leaves no `--out` file."""
    if args.an is not None:
        _check_bound(args.an, args.max_n, "n")
        q = linear_an(args.an)
        lines = _dot_ar_linear(q) if args.dot == "ar" else _dot_lattice(q)
    else:
        _check_bound(args.tube, args.max_n, "rank")
        if args.tube < 1:
            raise ValueError("rank must be positive")
        if args.dot == "lattice":
            raise ValueError("lattice export is only available for linear quivers")
        if args.cap < 1:
            raise ValueError("cap must be at least 1")
        _check_bound(args.cap, args.max_cap, "cap")
        lines = _dot_ar_tube(args.tube, args.cap)
    _write(args, lines)
    return EXIT_OK


# Each command's arguments as argparse keywords, in the order `--help` lists
# them: `build_parser` passes them on, `_parse_plain` reads them.
_TARGET = (  # a required, mutually exclusive group
    ("--an", {"type": int, "metavar": "N", "help": "linear quiver with N vertices"}),
    ("--tube", {"type": int, "metavar": "N", "help": "tube of rank N"}),
)
_SIZE_BOUND = ("--max-n", {"type": int, "default": DEFAULT_MAX_N, "help": "size bound"})
_CERTIFICATE = ("certificate", {})
_VERTEX_BOUND = ("--max-n", {"type": int, "default": DEFAULT_CERTIFICATE_MAX_N, "help": "vertex bound"})
_CAP_BOUND = ("--max-cap", {"type": int, "default": DEFAULT_CAP, "help": "cap bound"})
_OUT = ("--out", {"help": "write to a file instead of stdout"})
_COMMANDS = {  # command: handler, help, target group, arguments
    "enumerate": (cmd_enumerate, "list all torsion pairs", _TARGET, (
        _SIZE_BOUND, ("--format", {"choices": ("json", "text"), "default": "json"}), _OUT)),
    "decompose": (cmd_decompose, "peel a torsion pair certificate", (), (
        _CERTIFICATE, ("--side", {"choices": ("left", "right", "both"), "default": "left"}), _VERTEX_BOUND, _OUT)),
    "verify": (cmd_verify, "check a certificate", (), (
        _CERTIFICATE, ("--cap", {"type": int, "default": 6, "help": "tube truncation cap"}), _CAP_BOUND,
        _VERTEX_BOUND, _OUT)),
    "count": (cmd_count, "count torsion pairs", _TARGET, (
        _SIZE_BOUND, ("--check", {"action": "store_true", "default": False, "help": "cross-verify the count"}), _OUT)),
    "export": (cmd_export, "DOT export of the AR quiver or the lattice", _TARGET, (
        _SIZE_BOUND, ("--dot", {"choices": ("ar", "lattice"), "required": True}),
        ("--cap", {"type": int, "default": 4, "help": "tube truncation cap"}), _CAP_BOUND, _OUT)),
}


def build_parser():
    """The argparse parser of `_COMMANDS`, the only writer of help and
    usage text.  argparse is imported here, by the commands that need it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports a parse error through `_report`, so a stderr that is closed
        loses the usage line rather than sending it to stdout; the subparsers
        are made with the same class."""

        def error(self, message: str):
            _report(f"{self.format_usage()}{self.prog}: error: {message}")
            self.exit(EXIT_USAGE)

    parser = _Parser(
        prog="torsionpairs",
        description="Enumerate, verify and decompose torsion pairs on A-type "
        "path algebras and tubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, target, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if target:
            group = p.add_mutually_exclusive_group(required=True)
            for flag, keywords in target:
                group.add_argument(flag, **keywords)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _parse_plain(argv):
    """What `build_parser().parse_args(argv)` returns, for the plain form:
    the command, then its positional, flags and exact `--name value` pairs,
    each once.  Anything else (help, `--`, `--name=value`, an abbreviation, a
    value starting with `-`, a repeat, a missing or clashing target, an
    unknown token, a bad choice or integer) is None, for argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, target, arguments = _COMMANDS[argv[0]]
    table = {name: (name.lstrip("-").replace("-", "_"), keywords) for name, keywords in target + arguments}
    positional = next((name for name in table if not name.startswith("-")), None)
    values: dict = {}
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            name = token if token.startswith("-") else positional
            dest, keywords = table[name]
            if name == positional:
                value = token
            elif keywords.get("action") == "store_true":
                value = True
            else:
                value = next(tokens)
                if value.startswith("-") or "choices" in keywords and value not in keywords["choices"]:
                    return None
                value = keywords.get("type", str)(value)
            if dest in values:
                return None
            values[dest] = value
    except (KeyError, StopIteration, ValueError):
        return None
    if target and sum(table[flag][0] in values for flag, _ in target) != 1:
        return None
    if any((name == positional or keywords.get("required")) and dest not in values
           for name, (dest, keywords) in table.items()):
        return None
    for dest, keywords in table.values():
        values.setdefault(dest, keywords.get("default"))
    return types.SimpleNamespace(command=argv[0], func=func, **values)


def main(argv=None) -> int:
    args = _parse_plain(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CertificateError as exc:
        _report(f"certificate error: {exc}")
        return EXIT_CERTIFICATE
    except BoundExceededError as exc:
        _report(f"bound exceeded: {exc}")
        return EXIT_BOUND
    except ValueError as exc:
        _report(f"usage error: {exc}")
        return EXIT_USAGE


def _observed() -> bool:
    """A profiler, tracer or coverage tool is attached; it writes its
    report as the interpreter winds down."""
    if sys.getprofile() or sys.gettrace():
        return True
    monitoring = getattr(sys, "monitoring", None)  # cProfile's hook from Python 3.12
    return monitoring is not None and any(monitoring.get_tool(i) for i in range(6))


def entry() -> None:
    """Run `main` and end the process with its exit code.

    Once stdout and stderr are flushed nothing is left to do, so the
    process ends at once (`os._exit`), without the interpreter's teardown;
    under a profiler or tracer it ends through `sys.exit`, so that the
    tool still writes its report."""
    try:
        code = main()
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except BrokenPipeError:
            raise
        except OSError as exc:  # a full device, say
            _report(f"usage error: {_unwritable_stdout(exc)}")
            code = EXIT_USAGE
            _drop_stdout()  # rather than write it again
    except BrokenPipeError:
        _drop_stdout()  # the reader is gone; so is the interpreter's final flush
        code = EXIT_OK
    if _observed():
        sys.exit(code)
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):  # stderr closed or unwritable: the lines are lost
        pass
    os._exit(code)


if __name__ == "__main__":
    entry()
