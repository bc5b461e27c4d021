"""Command-line interface and the text/JSON square formats.

Commands:
    gen         sample squares from the random walk
    path        explicit move sequence between two squares
    verify      validate a square file
    enumerate   exhaustive enumeration (n <= 5)
    graph       state-graph report (n <= 4)
    uniformity  chi-square uniformity report

Standard output carries only data; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import IO, Iterator

from .chain import ChainConfig, iter_chains
from .connect import transform_path
from .core import ImproperCell, InvalidSquare, LatinSquareError, SquareState, cube_from_grid
from .oracle import (
    build_state_graph,
    check_connectivity_and_diameter,
    count_latin_squares,
    enumerate_latin_squares,
)
from .stats import cell_symbol_frequency_test, chi_square_uniformity

# ---------------------------------------------------------------------------
# square formats


def format_square_text(state: SquareState) -> str:
    lines = [f"n {state.n}"]
    lines.extend(" ".join(str(s) for s in row) for row in state.grid)
    if state.improper is not None:
        rec = state.improper
        p, q = rec.positive_pair
        lines.append(f"improper {rec.row} {rec.col} {p} {q} {rec.negative}")
    return "\n".join(lines) + "\n"


def format_square_json(state: SquareState) -> str:
    rec = None
    if state.improper is not None:
        rec = {
            "row": state.improper.row,
            "col": state.improper.col,
            "positive": list(state.improper.positive_pair),
            "negative": state.improper.negative,
        }
    return json.dumps({"n": state.n, "grid": [list(r) for r in state.grid], "improper": rec})


def parse_square_text(text: str) -> SquareState:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = re.fullmatch(r"n +([+-]?\d+)", lines[0]) if lines else None
    if header is None:
        raise InvalidSquare("expected header line 'n <order>'")
    n = int(header[1])
    if n < 1:
        raise InvalidSquare(f"order {n} is not positive")
    if len(lines) < 1 + n:
        raise InvalidSquare(f"expected {n} grid rows")
    grid = [[int(x) for x in lines[1 + r].split()] for r in range(n)]
    improper = None
    rest = lines[1 + n :]
    if len(rest) > 1:
        raise InvalidSquare(f"unexpected line after the trailer: {rest[1]!r}")
    if rest:
        parts = rest[0].split()
        if parts[0] != "improper" or len(parts) != 6:
            raise InvalidSquare(f"unrecognized trailer line: {rest[0]!r}")
        row, col, p, q, neg = (int(x) for x in parts[1:])
        improper = ImproperCell(row, col, (p, q), neg)
    return cube_from_grid(grid, improper)


def _json_int(value: object, what: str) -> int:
    if type(value) is not int:
        raise InvalidSquare(f"{what} must be an integer, got {value!r}")
    return value


def parse_square_json(text: str) -> SquareState:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise InvalidSquare("JSON nested too deeply") from None
    if not isinstance(obj, dict) or "n" not in obj or "grid" not in obj:
        raise InvalidSquare("expected an object with keys 'n' and 'grid'")
    rows = obj["grid"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InvalidSquare("'grid' must be a list of rows")
    grid = [[_json_int(s, "symbol") for s in row] for row in rows]
    if _json_int(obj["n"], "'n'") != len(grid):
        raise InvalidSquare(f"'n' is {obj['n']} but the grid has {len(grid)} rows")
    improper = None
    rec = obj.get("improper")
    if rec is not None:
        positive = rec.get("positive") if isinstance(rec, dict) else None
        if not isinstance(positive, list) or len(positive) != 2:
            raise InvalidSquare("'improper' must be null or a record with two positive symbols")
        row, col, neg = (_json_int(rec.get(k), f"improper {k}") for k in ("row", "col", "negative"))
        p, q = (_json_int(s, "improper positive") for s in positive)
        improper = ImproperCell(row, col, (p, q), neg)
    return cube_from_grid(grid, improper)


def _read_squares_text(fh: IO[str]) -> Iterator[SquareState]:
    """Stream concatenated text records (each starting with its header)."""
    block: list[str] = []
    for line in fh:
        stripped = line.strip()
        if stripped.startswith("n ") and block:
            yield parse_square_text("\n".join(block))
            block = []
        if stripped:
            block.append(stripped)
    if block:
        yield parse_square_text("\n".join(block))


def _load_state(path: str) -> SquareState:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_square_json(text)
    return parse_square_text(text)


# ---------------------------------------------------------------------------
# commands


def cmd_gen(args: argparse.Namespace) -> int:
    config = ChainConfig(args.n, seed=args.seed, burn_in=args.burn_in, thin=args.thin)
    for state in iter_chains(config, args.chains, args.samples):
        if args.format == "json":
            sys.stdout.write(format_square_json(state) + "\n")
        else:
            sys.stdout.write(format_square_text(state))
    return 0


def cmd_path(args: argparse.Namespace) -> int:
    a = _load_state(args.file_a)
    b = _load_state(args.file_b)
    if a.n != b.n:
        print(f"order mismatch: {a.n} vs {b.n}", file=sys.stderr)
        return 1
    seq = transform_path(a, b)
    for m in seq.moves:
        sys.stdout.write(m.text() + "\n")
    if args.verify:
        bound = 2 * (a.n - 1) ** 3
        try:
            endpoint = seq.replay(check=True)
        except LatinSquareError as exc:
            print(f"verification failed: {exc}", file=sys.stderr)
            return 3
        if endpoint != b or len(seq) > bound:
            print("verification failed: endpoint or bound", file=sys.stderr)
            return 3
        sys.stdout.write(f"OK {len(seq)} {bound}\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    state = _load_state(args.file)  # checked: a violation exits 1 as a parse failure
    sys.stdout.write(f"valid {state.kind}\n")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.count_only:
        sys.stdout.write(f"{count_latin_squares(args.n)}\n")
        return 0
    for state in enumerate_latin_squares(args.n):
        sys.stdout.write(format_square_text(state))
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    g = build_state_graph(args.n)
    result = check_connectivity_and_diameter(g)
    bound = 2 * (args.n - 1) ** 3
    kind = "diameter" if result["exact"] else "probed diameter bound"
    ok = result["connected"] and result["diameter"] <= bound
    sys.stdout.write(
        f"{g.proper_count} proper, {g.improper_count} improper, "
        f"{'connected' if result['connected'] else 'DISCONNECTED'}, "
        f"{kind} {result['diameter']}\n"
    )
    sys.stdout.write(f"bound 2(n-1)^3 = {bound} satisfied: {'yes' if ok else 'no'}\n")
    return 0 if ok else 1


def cmd_uniformity(args: argparse.Namespace) -> int:
    n = args.n
    if args.stdin:
        samples = list(_read_squares_text(sys.stdin))
        if any(s.improper is not None for s in samples):
            print("uniformity input must be proper squares", file=sys.stderr)
            return 2
        if any(s.n != n for s in samples):
            print(f"input squares must have order {n}", file=sys.stderr)
            return 2
    else:
        config = ChainConfig(n, seed=args.seed, burn_in=args.burn_in, thin=args.thin)
        samples = list(iter_chains(config, args.chains, args.samples))
    if n <= 4:  # exact categories; above that, per-cell symbol frequencies
        report = chi_square_uniformity(samples, enumerate_latin_squares(n))
    else:
        report = cell_symbol_frequency_test(samples, n)
    sys.stdout.write(report.to_json() + "\n")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser


def _add_walk_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--burn-in", dest="burn_in", type=int, default=None,
                   help="raw walk steps discarded first (default n^3)")
    p.add_argument("--thin", type=int, default=None,
                   help="proper visits between samples (default 2 n^2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latinsq",
        description="Generate, transform and verify Latin squares via +/-1-moves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample approximately uniform squares")
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1)
    _add_walk_options(p)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("path", help="move sequence transferring one square into another")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("verify", help="validate a square file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="list all squares of a small order")
    p.add_argument("n", type=int)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("graph", help="state-graph connectivity and diameter report")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("uniformity", help="chi-square uniformity report")
    p.add_argument("n", type=int)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    _add_walk_options(p)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--stdin", action="store_true", help="read squares from stdin instead of sampling")
    p.set_defaults(func=cmd_uniformity)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place where errors become exit codes.

    Unreadable or malformed input exits 1 with "parse failure: ..."; any
    other package error (flags, order limits, too few samples) exits 2.  A
    stdout closed by its reader exits 141, as a SIGPIPE kill would, silently.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet exit flush
        return 141
    except (InvalidSquare, ValueError, OSError) as exc:
        print(f"parse failure: {exc}", file=sys.stderr)
        return 1
    except LatinSquareError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
