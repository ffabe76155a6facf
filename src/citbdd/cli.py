"""Command-line front end: generate suites, verify them, run benchmarks.

Subcommands::

    citbdd generate MODEL -t 2 --handler bdd-partial-up -o suite.csv
    citbdd verify MODEL suite.csv -t 2
    citbdd verify MODEL suite.csv -t 2 --indices   # a generate --indices suite
    citbdd bench MODEL_DIR -t 3 --repeats 12 --trim 1 -o bench.csv

Suites are CSV files: the header row holds the parameter names, each
following row one test case with value labels (0-based indices with
``--indices``, which ``verify`` must then be given too) and ``-`` for
unspecified entries.  Benchmark output is one record per (instance,
handler) with columns ``instance,handler,t,status,seconds,suite_size``,
written as each record finishes; a second file with suffix
``.cactus.csv`` holds per-handler sorted times for cactus plots.

Exit codes: 0 on success, 1 when ``verify`` finds the suite failed, and 2
with one ``error:`` line on stderr for any bad input or exhausted resource.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, TextIO

from .bdd import BddError
from .ipog import generate, verify
from .model import Assignment, ModelError, SutModel, parse_model
from .validity import (
    HANDLER_AND, HANDLER_KINDS, HANDLER_PARTIAL_DOWN, HANDLER_PARTIAL_UP,
    build_handler,
)

DEFAULT_TIMEOUT = 600.0


class GenerationTimeout(Exception):
    pass


def _load_model(path: str) -> SutModel:
    """Read and parse a model file; a parse failure names the file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return parse_model(text)
    except (ModelError, RecursionError) as exc:
        raise ModelError(f"{path}: {exc}") from None


def _format_row(model: SutModel, row: Assignment, indices: bool) -> list[str]:
    cells = []
    for p, v in enumerate(row):
        if v is None:
            cells.append("-")
        elif indices:
            cells.append(str(v))
        else:
            cells.append(model.params[p].domain[v])
    return cells


def _parse_cell(model: SutModel, param: int, cell: str, indices: bool) -> Optional[int]:
    cell = cell.strip()
    if cell == "-":
        return None
    domain = model.params[param].domain
    if not indices and cell in domain:
        return domain.index(cell)
    # ASCII digits only: str.isdigit also passes "²", which int() rejects.
    if cell.isascii() and cell.isdigit():
        v = int(cell)
        if v < len(domain):
            return v
    raise ValueError(f"unknown value {cell!r} for parameter "
                     f"{model.params[param].name!r}")


def read_suite_csv(model: SutModel, stream: TextIO,
                   indices: bool = False) -> list[Assignment]:
    """Read a suite CSV.  A cell is ``-``, a value label or, failing that, a
    0-based index; with ``indices`` (the ``write_suite_csv`` option of the
    same name) every cell is ``-`` or an index and labels are not read, so
    a label that looks like an index cannot shadow it."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("suite CSV is empty (missing header)")
    expected = [p.name for p in model.params]
    if [h.strip() for h in header] != expected:
        raise ValueError(f"CSV columns {header!r} do not match model parameters "
                         f"{expected!r}")
    rows = []
    for line in reader:
        if not line:
            continue
        if len(line) != model.n:
            raise ValueError(f"row {len(rows) + 1} has {len(line)} cells, "
                             f"expected {model.n}")
        rows.append(tuple(_parse_cell(model, p, cell, indices)
                          for p, cell in enumerate(line)))
    return rows


def write_suite_csv(model: SutModel, rows: Sequence[Assignment], stream: TextIO,
                    indices: bool = False) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([p.name for p in model.params])
    for row in rows:
        writer.writerow(_format_row(model, row, indices))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate(model_path: str, t: int, handler_kind: str, fill: bool,
                 out_path: Optional[str], indices: bool = False) -> int:
    model = _load_model(model_path)
    suite = generate(model, t, build_handler(model, handler_kind), fill_dashes=fill)
    if suite.diagnostic:
        print(f"warning: {suite.diagnostic}", file=sys.stderr)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            write_suite_csv(model, suite.rows, fh, indices)
    else:
        write_suite_csv(model, suite.rows, sys.stdout, indices)
    return 0


def cmd_verify(model_path: str, suite_path: str, t: int,
               handler_kind: str = HANDLER_PARTIAL_UP, indices: bool = False) -> int:
    model = _load_model(model_path)
    with open(suite_path, "r", encoding="utf-8", newline="") as fh:
        rows = read_suite_csv(model, fh, indices)
    report = verify(model, rows, t, build_handler(model, handler_kind))
    print(report.describe(model))
    return 0 if report.ok else 1


@dataclass
class BenchmarkRecord:
    instance: str
    handler: str
    t: int
    status: str  # "OK" | "NA"
    seconds: Optional[float]  # trimmed mean; None for NA
    suite_size: Optional[int]


def trimmed_mean(values: Sequence[float], trim: int) -> float:
    """Mean after dropping the ``trim`` smallest and largest values."""
    if trim < 0:
        raise ValueError("trim must be >= 0")
    if len(values) <= 2 * trim:
        raise ValueError(f"cannot trim {trim} from each end of {len(values)} values")
    ordered = sorted(values)
    kept = ordered[trim:len(ordered) - trim] if trim else ordered
    return statistics.fmean(kept)


class _deadline:
    """Raise GenerationTimeout in the main thread after ``seconds``."""

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds

    def __enter__(self):
        if self.seconds is not None:
            def handle(signum, frame):
                raise GenerationTimeout()
            self._old = signal.signal(signal.SIGALRM, handle)
            signal.setitimer(signal.ITIMER_REAL, max(self.seconds, 1e-6))
        return self

    def __exit__(self, *exc):
        if self.seconds is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)
        return False


def _run_once(model: SutModel, t: int, handler_kind: str,
              timeout: Optional[float]) -> tuple[float, int]:
    """One timed generation run, handler setup included."""
    with _deadline(timeout):
        start = time.perf_counter()
        handler = build_handler(model, handler_kind)
        suite = generate(model, t, handler)
        elapsed = time.perf_counter() - start
    return elapsed, len(suite.rows)


def bench_instance(name: str, model: SutModel, t: int, handler_kind: str,
                   repeats: int, trim: int,
                   timeout: Optional[float]) -> BenchmarkRecord:
    times = []
    size = None
    for _ in range(repeats):
        try:
            elapsed, size = _run_once(model, t, handler_kind, timeout)
        except (GenerationTimeout, MemoryError, RecursionError):
            return BenchmarkRecord(name, handler_kind, t, "NA", None, None)
        times.append(elapsed)
    return BenchmarkRecord(name, handler_kind, t, "OK", trimmed_mean(times, trim), size)


def cmd_bench(model_dir: str, t: int, handler_kinds: Sequence[str],
              repeats: int = 12, trim: int = 1,
              timeout_secs: Optional[float] = DEFAULT_TIMEOUT,
              out_csv: Optional[str] = None) -> int:
    if trim < 0:
        raise ValueError(f"trim must be >= 0, got {trim}")
    if timeout_secs is not None and not (timeout_secs > 0 and math.isfinite(timeout_secs)):
        raise ValueError(f"timeout must be a finite number of seconds > 0, got {timeout_secs}")
    directory = Path(model_dir)
    if not directory.is_dir():
        raise ValueError(f"{model_dir!r} is not a directory")
    paths = sorted(directory.glob("*.model"))
    if not paths:
        raise ValueError(f"no *.model files in {model_dir!r}")
    if repeats <= 2 * trim:
        raise ValueError(f"repeats={repeats} leaves nothing after trim={trim}")

    records: list[BenchmarkRecord] = []
    with (open(out_csv, "w", encoding="utf-8", newline="") if out_csv
          else contextlib.nullcontext(sys.stdout)) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["instance", "handler", "t", "status", "seconds", "suite_size"])
        for path in paths:
            model = _load_model(str(path))
            for kind in handler_kinds:
                rec = bench_instance(path.stem, model, t, kind, repeats, trim,
                                     timeout_secs)
                records.append(rec)
                writer.writerow([
                    rec.instance, rec.handler, rec.t, rec.status,
                    "" if rec.seconds is None else f"{rec.seconds:.6f}",
                    "" if rec.suite_size is None else rec.suite_size,
                ])
                out.flush()
                shown = "NA" if rec.seconds is None else f"{rec.seconds:.4f}s"
                print(f"{rec.instance},{rec.handler}: {rec.status} {shown}",
                      file=sys.stderr)

    if out_csv:
        _write_cactus(records, list(handler_kinds),
                      Path(out_csv).with_suffix(".cactus.csv"))
    return 0


def _write_cactus(records: Sequence[BenchmarkRecord], handler_kinds: list[str],
                  path: Path) -> None:
    """Per-handler times sorted ascending: row k = time of the k-th fastest
    solved instance, ready to plot instances-solved against time budget."""
    by_handler = {kind: sorted(r.seconds for r in records
                               if r.handler == kind and r.seconds is not None)
                  for kind in handler_kinds}
    depth = max((len(v) for v in by_handler.values()), default=0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["solved"] + handler_kinds)
        for k in range(depth):
            row = [k + 1]
            for kind in handler_kinds:
                times = by_handler[kind]
                row.append(f"{times[k]:.6f}" if k < len(times) else "")
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citbdd",
        description="Constrained covering-array generation with BDD-backed "
                    "validity checking.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a t-wise covering suite")
    gen.add_argument("model", help="model file")
    gen.add_argument("--strength", "-t", type=int, required=True)
    gen.add_argument("--handler", choices=HANDLER_KINDS, default=HANDLER_PARTIAL_UP)
    gen.add_argument("--fill", action="store_true",
                     help="complete unspecified entries with valid values")
    gen.add_argument("--output", "-o", default=None, help="suite CSV (default stdout)")
    gen.add_argument("--indices", action="store_true",
                     help="write 0-based value indices instead of labels")

    ver = sub.add_parser("verify", help="verify a suite CSV against a model")
    ver.add_argument("model", help="model file")
    ver.add_argument("suite", help="suite CSV file")
    ver.add_argument("--strength", "-t", type=int, required=True)
    ver.add_argument("--handler", choices=HANDLER_KINDS, default=HANDLER_PARTIAL_UP)
    ver.add_argument("--indices", action="store_true",
                     help="read 0-based value indices, as written by generate --indices")

    ben = sub.add_parser("bench", help="time generation over a directory of models")
    ben.add_argument("model_dir", help="directory containing *.model files")
    ben.add_argument("--strength", "-t", type=int, required=True)
    ben.add_argument("--handler", action="append", choices=HANDLER_KINDS,
                     default=None,
                     help="handler to benchmark (repeatable; default: the three "
                          "BDD handlers)")
    ben.add_argument("--repeats", type=int, default=12)
    ben.add_argument("--trim", type=int, default=1,
                     help="drop this many smallest and largest timings")
    ben.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                     help="per-run wall-clock limit in seconds")
    ben.add_argument("--output", "-o", default=None, help="records CSV (default stdout)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args.model, args.strength, args.handler, args.fill,
                                args.output, args.indices)
        if args.command == "verify":
            return cmd_verify(args.model, args.suite, args.strength, args.handler,
                              args.indices)
        handlers = args.handler or [HANDLER_AND, HANDLER_PARTIAL_UP, HANDLER_PARTIAL_DOWN]
        return cmd_bench(args.model_dir, args.strength, handlers,
                         repeats=args.repeats, trim=args.trim,
                         timeout_secs=args.timeout, out_csv=args.output)
    except (OSError, ValueError, BddError, MemoryError, RecursionError) as exc:
        # A bare MemoryError has no message; name it so the line says what ran out.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
