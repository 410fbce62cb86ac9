"""Command line surface: enumerate, decompose, verify, count, export.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 malformed
certificate, 4 resource bound exceeded.  A reader that closes stdout
early (`| head`) ends the command quietly with exit 0.  Output is
deterministic for identical flags.  The tube modules are imported only
by the commands on a tube.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import jsonio
from .decompose import (
    _iter_class_masks,
    count_torsion_pairs,
    decompose as peel,
    iter_torsion_pairs,
    same_residual,
)
from .intervals import model_for
from .jsonio import CertificateError
from .quiver import LINEAR_UNION, BoundExceededError, linear_an
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
    `--max-n`, before any quiver or model is built."""
    try:
        with open(args.certificate, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise CertificateError(f"cannot read {args.certificate}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, an integer past the digit limit
        raise CertificateError(f"{args.certificate} is not valid JSON: {exc}") from exc
    kind = jsonio.certificate_kind(obj)
    vertices = _certificate_vertices(obj)
    if vertices is not None:
        _check_bound(vertices, args.max_n, "certificate size")
    return obj, kind


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        print(text)


def cmd_enumerate(args) -> int:
    """Print every torsion pair of the path (`--an`) or the tube (`--tube`)
    as a certificate: one JSON array, or one numbered line per pair.

    Each certificate is encoded as soon as its pair is built, so the run
    keeps only the encoded text.  The path pairs come one at a time as
    class masks, whose records are joined from the model's fragment table
    without building the pairs' objects.
    """
    if args.an is not None:
        _check_bound(args.an, args.max_n, "n")
        q = linear_an(args.an)
        records = jsonio.PairRecords(q)
        texts = [records.record(torsion, free) for torsion, free in _iter_class_masks(q)]
    else:
        from .tubepairs import enumerate_tube_tps

        _check_bound(args.tube, args.max_n, "rank")
        texts = [jsonio.dumps_canonical(jsonio.tube_certificate(d)) for d in enumerate_tube_tps(args.tube)]
    if args.format == "json":
        _emit(args, "[" + ",".join(texts) + "]")
    else:
        _emit(args, "\n".join(f"{i}: {text}" for i, text in enumerate(texts)))
    return EXIT_OK


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


def _dot_ar_linear(n: int) -> str:
    q = linear_an(n)
    model = model_for(q)
    lines = ["digraph ar {"]
    for X in model.objects:
        lines.append(f'  "[{X.a},{X.b}]";')
    for X in model.objects:
        if X.b > X.a:  # drop the socle
            lines.append(f'  "[{X.a},{X.b}]" -> "[{X.a},{X.b - 1}]";')
        if X.a > 1:  # extend at the top
            lines.append(f'  "[{X.a},{X.b}]" -> "[{X.a - 1},{X.b}]";')
    lines.append("}")
    return "\n".join(lines)


def _dot_ar_tube(rank: int, cap: int) -> str:
    from .tube import all_tube_modules, tau_inv_tube

    lines = ["digraph ar {"]
    for X in all_tube_modules(rank, cap):
        lines.append(f'  "U({X.socle},{X.length})";')
    for X in all_tube_modules(rank, cap):
        if X.length > 1:
            down = tau_inv_tube(X)
            lines.append(f'  "U({X.socle},{X.length})" -> "U({down.socle},{X.length - 1})";')
        if X.length < cap:
            lines.append(f'  "U({X.socle},{X.length})" -> "U({X.socle},{X.length + 1})";')
    lines.append("}")
    return "\n".join(lines)


def _dot_lattice(n: int) -> str:
    """Hasse diagram of the torsion classes of the path, ordered by size
    and then by their sorted intervals, with its edges in that order.

    Every brick B of a torsion class T gives the smaller torsion class
    T & perp(B), perp(B) being the objects with no map to B, and every
    lower cover of T is one of these, labelled by its brick
    (Demonet-Iyama-Reading-Reiten-Thomas).  Every interval is a brick, so
    the lower covers of T are the maximal classes T & perp(B), B in T.
    """
    q = linear_an(n)
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
    edges = []
    for k, T in enumerate(classes):
        # a candidate inside another lies inside a maximal one, found earlier
        maxima: list[int] = []
        for low in sorted({T & perp[b] for b in bit_indices(T)}, key=int.bit_count, reverse=True):
            if all(low & high != low for high in maxima):
                maxima.append(low)
        edges.extend((position[low], k) for low in maxima)
    edges.sort()
    labels = ['"{' + records.join(T) + '}"' for T in classes]
    lines = ["digraph lattice {"]
    lines.extend(f"  {label};" for label in labels)
    lines.extend(f"  {labels[low]} -> {labels[high]};" for low, high in edges)
    lines.append("}")
    return "\n".join(lines)


def cmd_export(args) -> int:
    if args.an is not None:
        _check_bound(args.an, args.max_n, "n")
        text = _dot_ar_linear(args.an) if args.dot == "ar" else _dot_lattice(args.an)
    else:
        _check_bound(args.tube, args.max_n, "rank")
        if args.tube < 1:
            raise ValueError("rank must be positive")
        if args.dot == "lattice":
            raise ValueError("lattice export is only available for linear quivers")
        if args.cap < 1:
            raise ValueError("cap must be at least 1")
        _check_bound(args.cap, args.max_cap, "cap")
        text = _dot_ar_tube(args.tube, args.cap)
    _emit(args, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionpairs",
        description="Enumerate, verify and decompose torsion pairs on A-type "
        "path algebras and tubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_target(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--an", type=int, metavar="N", help="linear quiver with N vertices")
        group.add_argument("--tube", type=int, metavar="N", help="tube of rank N")
        p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="size bound")

    p = sub.add_parser("enumerate", help="list all torsion pairs")
    add_target(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("decompose", help="peel a torsion pair certificate")
    p.add_argument("certificate")
    p.add_argument("--side", choices=("left", "right", "both"), default="left")
    p.add_argument("--max-n", type=int, default=DEFAULT_CERTIFICATE_MAX_N, help="vertex bound")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="check a certificate")
    p.add_argument("certificate")
    p.add_argument("--cap", type=int, default=6, help="tube truncation cap")
    p.add_argument("--max-cap", type=int, default=DEFAULT_CAP, help="cap bound")
    p.add_argument("--max-n", type=int, default=DEFAULT_CERTIFICATE_MAX_N, help="vertex bound")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="count torsion pairs")
    add_target(p)
    p.add_argument("--check", action="store_true", help="cross-verify the count")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("export", help="DOT export of the AR quiver or the lattice")
    add_target(p)
    p.add_argument("--dot", choices=("ar", "lattice"), required=True)
    p.add_argument("--cap", type=int, default=4, help="tube truncation cap")
    p.add_argument("--max-cap", type=int, default=DEFAULT_CAP, help="cap bound")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CertificateError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except BoundExceededError as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; send the interpreter's final flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    entry()
