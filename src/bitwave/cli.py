"""Command-line entry point: simulate, compare, explore, validate.

Exit codes: 0 success, 1 validation-fuzz mismatch, 2 file/parse/usage
errors, 3 input validation errors, 4 laser-budget infeasibility. Every
output artifact embeds the run manifest; identical inputs and manifest
produce byte-identical outputs (no timestamps were harmed). A command
renders all its artifacts before it makes the output directory, then writes
each to a temp path; the renames start only once every temp file is written
and no artifact path is a directory. So a render or write failure replaces
no artifact, and any failure leaves no temp file behind.
"""

import argparse
import csv
import errno
import functools
import hashlib
import io
import json
import math
import os
import random
import sys
from dataclasses import fields, replace
from operator import mul
from pathlib import Path

from . import __version__
from . import arch_model as am
from . import bitslice_engine as bse
from . import dse
from . import workload_ir as wir
from .device_catalog import DEFAULT_CATALOG, load_catalog

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_LASER = 4

DEFAULT_P_BITS = (1, 2, 4, 6, 8, 10, 16)
DEFAULT_B_BITS = (1, 2, 4, 8)


def as_dict(report: am.SimReport) -> dict:
    """A report's fields as a JSON-ready dict; its per-layer reports become dicts too.

    Tuples stay tuples, which ``json`` writes as lists.
    """
    return {**vars(report), "per_layer": [vars(l) for l in report.per_layer]}


def _manifest(args, command: str, inputs: list[str], pipelined: bool) -> dict:
    """The run manifest every artifact embeds; a command without ``--catalog``, ``--seed`` or
    ``--aggregate`` records null for it."""
    return {
        "command": command,
        "inputs": inputs,
        "catalog": getattr(args, "catalog", None),
        "seed": getattr(args, "seed", None),
        "out_dir": args.out_dir,
        "aggregate": getattr(args, "aggregate", None),
        "pipelined": pipelined,
        "version": __version__,
    }


_NON_FINITE = "{} would hold a non-finite number; the inputs overflow the float range"


def _render_json(name: str, manifest: dict, payload: dict) -> str:
    doc = {"manifest": manifest, **payload}
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError(_NON_FINITE.format(name)) from None


def _render_csv(name: str, manifest: dict, header: list[str], rows: list[list]) -> str:
    if not all(math.isfinite(x) for row in rows for x in row if isinstance(x, float)):
        raise ValueError(_NON_FINITE.format(name))
    buf = io.StringIO()
    buf.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _number_line(cells: list) -> str:
    """One CSV line of ints and floats: the text ``csv.writer`` writes for them.

    ``csv`` writes an int or a float with ``str``, which equals ``repr`` for
    both, and a number never needs quoting.
    """
    return ",".join(map(repr, cells)) + "\n"


def _write(out_dir: str, artifacts: dict[str, str]) -> None:
    """Write each rendered artifact (file name -> text) into ``out_dir``, replacing none unless all can be.

    Every temp file is written, and no artifact or temp path may be a
    directory, before the first rename; a failure removes the temp files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tmps: list[Path] = []
    try:
        for name, text in artifacts.items():
            for path in (out / name, out / f"{name}.tmp"):
                if path.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            tmps.append(out / f"{name}.tmp")
            tmps[-1].write_text(text, encoding="utf-8")
        for name, tmp in zip(artifacts, tmps):
            os.replace(tmp, out / name)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def _load_catalog_arg(args):
    if args.catalog:
        return load_catalog(args.catalog)
    return DEFAULT_CATALOG


def _load_config(args) -> am.ArchConfig:
    cfg = am.load_arch_config(args.config)
    if args.no_pipeline:
        cfg = replace(cfg, pipelined=False)
    return cfg


# -- subcommands ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    catalog = _load_catalog_arg(args)
    model = wir.load_workload(args.model)
    cfg = _load_config(args)
    report = am.simulate_inference(model, cfg, catalog)

    manifest = _manifest(args, "simulate", [args.model, args.config], cfg.pipelined)
    header = [f.name for f in fields(am.LayerReport)]
    rows = [[getattr(l, h) for h in header] for l in report.per_layer]
    _write(args.out_dir, {
        "report.json": _render_json("report.json", manifest, {"report": as_dict(report)}),
        "report_layers.csv": _render_csv("report_layers.csv", manifest, header, rows),
    })
    print(
        f"{model.name}: {report.total_time_steps} steps, "
        f"latency {report.latency_s:.3e} s, energy {report.energy_j:.3e} J, "
        f"EPB {report.epb_j_per_bit:.3e} J/bit, GOPS/EPB {report.gops_per_epb:.3e}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    catalog = _load_catalog_arg(args)
    cfg = _load_config(args)
    models = [wir.load_workload(p) for p in args.models]

    baselines = []
    if args.baselines:
        if not Path(args.baselines).is_dir():
            raise NotADirectoryError(f"--baselines {args.baselines} is not a directory")
        baselines = [am.load_baseline_spec(p) for p in sorted(Path(args.baselines).glob("*.json"))]
    # compare.csv has one row per (model, accelerator); the architecture's rows are am.ARCH_NAME
    reason = "compare writes one row per (model, accelerator)"
    wir.check_unique("model", [m.name for m in models], reason)
    wir.check_unique("accelerator", [am.ARCH_NAME, *(spec.name for spec in baselines)], reason)
    if not baselines:
        print("warning: no baseline specs found; comparing the architecture alone", file=sys.stderr)

    rows = []
    for model in models:
        reports = [am.simulate_inference(model, cfg, catalog)]
        reports += [am.simulate_baseline(model, spec, cfg, catalog) for spec in baselines]
        for rep in reports:
            rows.append([
                rep.model_name, rep.accelerator, rep.epb_j_per_bit,
                rep.gops, rep.gops_per_epb, rep.energy_j, rep.latency_s,
            ])

    manifest = _manifest(args, "compare", [*args.models, args.config], cfg.pipelined)
    header = ["model", "accelerator", "epb_j_per_bit", "gops", "gops_per_epb", "energy_j", "latency_s"]
    _write(args.out_dir, {"compare.csv": _render_csv("compare.csv", manifest, header, rows)})
    print(f"wrote {len(rows)} rows to {Path(args.out_dir) / 'compare.csv'}")
    return EXIT_OK


def cmd_explore(args) -> int:
    catalog = _load_catalog_arg(args)
    models = [wir.load_workload(p) for p in args.models]
    space = dse.load_search_space(args.space)
    result = dse.explore(models, space, catalog, aggregate=args.aggregate)

    manifest = _manifest(args, "explore", [*args.models, args.space], True)
    header = ["rank", "v", "k", "b", "V", "K", "score", "max_power_w"]
    model_names = [m.name for m in models]
    for name in model_names:
        header += [f"{name}_epb", f"{name}_gops_per_epb"]
    # the manifest and header go through csv, which quotes a model name where it must;
    # every data cell is an int or a float, so each row is one _number_line
    lines = [_render_csv("ranking.csv", manifest, header, [])]
    for rank, entry in enumerate(result.ranked):
        c = entry.config
        floats = [entry.score, entry.max_power_w]
        for name in model_names:
            score = entry.per_model[name]
            floats += [score.epb_j_per_bit, score.gops_per_epb]
        if not all(map(math.isfinite, floats)):
            raise ValueError(_NON_FINITE.format("ranking.csv"))
        lines.append(_number_line([rank, c.v, c.k, c.b, c.V, c.K, *floats]))
    ranking = "".join(lines)

    best_payload: dict = {
        "infeasible_count": result.infeasible_count,
        "diagnostics": result.diagnostics,
        "evaluated": len(result.ranked),
        "best": None,
    }
    if result.best is not None:
        c = result.best.config
        best_payload["best"] = {
            "config": {"v": c.v, "k": c.k, "b": c.b, "V": c.V, "K": c.K},
            "score": result.best.score,
            "max_power_w": result.best.max_power_w,
            "per_model": {name: s._asdict() for name, s in result.best.per_model.items()},
        }
    _write(args.out_dir, {"ranking.csv": ranking, "best.json": _render_json("best.json", manifest, best_payload)})

    if result.best is None:
        print(f"no feasible configuration ({result.infeasible_count} rejected: {result.diagnostics})")
    else:
        c = result.best.config
        print(
            f"best (v,k,b,V,K) = ({c.v},{c.k},{c.b},{c.V},{c.K}), "
            f"score {result.best.score:.4e}, max power {result.best.max_power_w:.2f} W"
        )
    return EXIT_OK


def _draw_operands(rng: random.Random, p: int, n: int) -> list[int]:
    """``[rng.randrange(1 << p) for _ in range(n)]`` without ``randrange``'s call overhead.

    In CPython, ``randrange(1 << p)`` is ``_randbelow_with_getrandbits(1 << p)``:
    it calls ``getrandbits(p + 1)`` (the bit length of ``1 << p``) until a
    draw falls below ``1 << p``. This loop makes exactly those calls and
    keeps exactly those draws, so the values and the generator's state
    afterwards are the same, and the ``validate`` digest stays pinned.
    """
    getrandbits = rng.getrandbits
    k = p + 1
    limit = 1 << p
    values: list[int] = []
    append = values.append
    while n:
        r = getrandbits(k)
        if r < limit:
            append(r)
            n -= 1
    return values


def cmd_validate(args) -> int:
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    p_bits = args.p_bits
    b_bits = args.b_bits
    for p in p_bits:
        wir.check_bits("p", p)
    for b in b_bits:
        wir.check_bits("b", b)
    rng = random.Random(args.seed)
    digest = hashlib.sha256()

    failures = 0
    first_failure = None
    for trial in range(args.trials):
        p_a = rng.choice(p_bits)
        p_w = rng.choice(p_bits)
        b = rng.choice(b_bits)
        mode = rng.choice((bse.FC, bse.CONV))
        n = rng.randint(1, 64)
        a = _draw_operands(rng, p_a, n)
        w = _draw_operands(rng, p_w, n)
        result, _ = bse.execute_dot(a, w, p_a, p_w, b, mode)
        expected = sum(map(mul, a, w))
        digest.update(repr((trial, p_a, p_w, b, mode, a, w, result)).encode())
        if result != expected:
            failures += 1
            if first_failure is None:
                first_failure = (trial, p_a, p_w, b, mode, a, w, result, expected)

    print(f"{args.trials - failures}/{args.trials} ok")
    print(f"trial digest: {digest.hexdigest()[:16]}")
    if args.out_dir:
        summary = {
            "trials": args.trials,
            "p_bits": p_bits,
            "b_bits": b_bits,
            "failures": failures,
            "digest": digest.hexdigest()[:16],
        }
        manifest = _manifest(args, "validate", [], True)
        _write(args.out_dir, {"validate.json": _render_json("validate.json", manifest, summary)})
    if failures:
        t, p_a, p_w, b, mode, a, w, got, want = first_failure
        print(
            f"first mismatch at trial {t}: p_a={p_a} p_w={p_w} b={b} mode={mode} "
            f"a={a} w={w} got={got} want={want}",
            file=sys.stderr,
        )
        return EXIT_MISMATCH
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------


def _int(text: str) -> int:
    """``int(text)``, whose usage error quotes a bad value through ``wir.brief`` rather than whole."""
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {wir.brief(text)}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {wir.brief(text)}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one int, got {wir.brief(text)}")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``bitwave`` argument parser, built once per process.

    Every ``main`` call shares the returned parser: parsing does not change
    it, and callers must not change it either.
    """
    parser = argparse.ArgumentParser(
        prog="bitwave",
        description="Bit-sliced TDM/WDM photonic CNN accelerator simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--catalog", help="device catalog override file (JSON)")
        p.add_argument("--out-dir", default="runs", help="output directory (default: runs)")

    def no_pipeline(p):  # simulate and compare run a config; explore and validate do not
        p.add_argument("--no-pipeline", action="store_true",
                       help="sum the per-step device chain instead of taking its max")

    p = sub.add_parser("simulate", help="simulate one workload on one configuration")
    p.add_argument("model", help="workload file (JSON)")
    p.add_argument("--config", required=True, help="architecture configuration file (JSON)")
    common(p)
    no_pipeline(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="compare against baseline accelerators")
    p.add_argument("models", nargs="+", help="workload files (JSON)")
    p.add_argument("--config", required=True, help="architecture configuration file (JSON)")
    p.add_argument("--baselines", help="directory of baseline spec files")
    common(p)
    no_pipeline(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("explore", help="grid-search configurations over workloads")
    p.add_argument("models", nargs="+", help="workload files (JSON)")
    p.add_argument("--space", required=True, help="search-space file (JSON)")
    p.add_argument("--aggregate", default="geomean", choices=dse.AGGREGATES,
                   help="cross-model score aggregation (default: geomean)")
    common(p)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("validate", help="fuzz the bit-slice engine against exact arithmetic")
    p.add_argument("--trials", type=_int, default=1000)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--p-bits", type=_int_list, default=DEFAULT_P_BITS,
                   help="operand bitwidths to draw from (comma-separated)")
    p.add_argument("--b-bits", type=_int_list, default=DEFAULT_B_BITS,
                   help="slice widths to draw from (comma-separated)")
    p.add_argument("--out-dir", default=None, help="also write a JSON summary here")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except am.LaserInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LASER
    except (wir.InputFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # every input-validation error is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OverflowError as exc:
        print(f"error: the inputs overflow the float range ({exc})", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
