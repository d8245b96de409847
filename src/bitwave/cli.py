"""Command-line entry point: simulate, compare, explore, validate.

Exit codes: 0 success, 1 validation-fuzz mismatch, 2 file/parse/usage
errors, 3 input validation errors, 4 laser-budget infeasibility. Every
output artifact embeds the run manifest; identical inputs and manifest
produce byte-identical outputs (no timestamps were harmed). Files are
written to a temp path and renamed on success, so failures never leave
partial outputs behind.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass, replace
from operator import mul
from pathlib import Path

from . import __version__
from . import arch_model as am
from . import bitslice_engine as bse
from . import dse
from . import workload_ir as wir
from .device_catalog import DEFAULT_CATALOG, CatalogError, load_catalog

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_LASER = 4

DEFAULT_P_BITS = (1, 2, 4, 6, 8, 10, 16)
DEFAULT_B_BITS = (1, 2, 4, 8)


@dataclass(frozen=True)
class RunManifest:
    command: str
    inputs: tuple[str, ...]
    catalog: str | None
    seed: int | None
    out_dir: str
    aggregate: str | None
    pipelined: bool
    version: str


def as_dict(value) -> dict:
    """The fields of a manifest or report as a JSON-ready dict; per-layer reports become dicts too.

    Tuples stay tuples, which ``json`` writes as lists.
    """
    doc = dict(vars(value))
    if "per_layer" in doc:
        doc["per_layer"] = [vars(l) for l in doc["per_layer"]]
    return doc


def _manifest(args, command: str, inputs: list[str]) -> RunManifest:
    return RunManifest(
        command=command,
        inputs=tuple(inputs),
        catalog=getattr(args, "catalog", None),
        seed=getattr(args, "seed", None),
        out_dir=str(getattr(args, "out_dir", "runs")),
        aggregate=getattr(args, "aggregate", None),
        pipelined=True,  # simulate and compare record the loaded config's setting instead
        version=__version__,
    )


def _atomic_write(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data, encoding="utf-8")
    os.replace(tmp, path)


_NON_FINITE = "{} would hold a non-finite number; the inputs overflow the float range"


def _write_json(path: Path, manifest: RunManifest, payload: dict) -> None:
    doc = {"manifest": as_dict(manifest), **payload}
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError(_NON_FINITE.format(path.name)) from None
    _atomic_write(path, text + "\n")


def _write_csv(path: Path, manifest: RunManifest, header: list[str], rows: list[list]) -> None:
    if not all(math.isfinite(x) for row in rows for x in row if isinstance(x, float)):
        raise ValueError(_NON_FINITE.format(path.name))
    buf = io.StringIO()
    buf.write("# manifest: " + json.dumps(as_dict(manifest), sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _load_catalog_arg(args):
    if getattr(args, "catalog", None):
        return load_catalog(args.catalog)
    return DEFAULT_CATALOG


def _load_config(args) -> am.ArchConfig:
    cfg = am.load_arch_config(args.config)
    if args.no_pipeline:
        cfg = replace(cfg, pipelined=False)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommands ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    catalog = _load_catalog_arg(args)
    model = wir.load_workload(args.model)
    cfg = _load_config(args)
    report = am.simulate_inference(model, cfg, catalog)

    out = _out_dir(args)
    manifest = replace(_manifest(args, "simulate", [args.model, args.config]), pipelined=cfg.pipelined)
    _write_json(out / "report.json", manifest, {"report": as_dict(report)})
    header = [
        "index", "kind", "time_steps", "step_period_ns", "latency_s",
        "energy_j", "macs", "processed_bits", "mvus_used",
    ]
    rows = [[getattr(l, h) for h in header] for l in report.per_layer]
    _write_csv(out / "report_layers.csv", manifest, header, rows)
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

    out = _out_dir(args)
    manifest = replace(_manifest(args, "compare", list(args.models) + [args.config]), pipelined=cfg.pipelined)
    header = ["model", "accelerator", "epb_j_per_bit", "gops", "gops_per_epb", "energy_j", "latency_s"]
    _write_csv(out / "compare.csv", manifest, header, rows)
    print(f"wrote {len(rows)} rows to {out / 'compare.csv'}")
    return EXIT_OK


def cmd_explore(args) -> int:
    catalog = _load_catalog_arg(args)
    models = [wir.load_workload(p) for p in args.models]
    space = dse.load_search_space(args.space)
    result = dse.explore(models, space, catalog, aggregate=args.aggregate)

    out = _out_dir(args)
    manifest = _manifest(args, "explore", list(args.models) + [args.space])
    header = ["rank", "v", "k", "b", "V", "K", "score", "max_power_w"]
    model_names = [m.name for m in models]
    for name in model_names:
        header += [f"{name}_epb", f"{name}_gops_per_epb"]
    rows = []
    for rank, entry in enumerate(result.ranked):
        c = entry.config
        row = [rank, c.v, c.k, c.b, c.V, c.K, entry.score, entry.max_power_w]
        for name in model_names:
            score = entry.per_model[name]
            row += [score.epb_j_per_bit, score.gops_per_epb]
        rows.append(row)
    _write_csv(out / "ranking.csv", manifest, header, rows)

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
            "per_model": {name: vars(s) for name, s in result.best.per_model.items()},
        }
    _write_json(out / "best.json", manifest, best_payload)

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
        wir.check_bits("p", p, ValueError)
    for b in b_bits:
        wir.check_bits("b", b, ValueError)
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
        result, trace = bse.execute_dot(a, w, p_a, p_w, b, mode)
        expected = sum(map(mul, a, w))
        rebuilt = bse.reconstruct(trace)
        ok = result == expected and rebuilt == expected
        digest.update(repr((trial, p_a, p_w, b, mode, a, w, result)).encode())
        if not ok:
            failures += 1
            if first_failure is None:
                first_failure = (trial, p_a, p_w, b, mode, a, w, result, expected)

    print(f"{args.trials - failures}/{args.trials} ok")
    print(f"trial digest: {digest.hexdigest()[:16]}")
    if getattr(args, "out_dir", None):
        out = _out_dir(args)
        manifest = _manifest(args, "validate", [])
        _write_json(
            out / "validate.json",
            manifest,
            {
                "trials": args.trials,
                "p_bits": p_bits,
                "b_bits": b_bits,
                "failures": failures,
                "digest": digest.hexdigest()[:16],
            },
        )
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


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one int, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-bits", type=_int_list, default=DEFAULT_P_BITS,
                   help="operand bitwidths to draw from (comma-separated)")
    p.add_argument("--b-bits", type=_int_list, default=DEFAULT_B_BITS,
                   help="slice widths to draw from (comma-separated)")
    p.add_argument("--out-dir", default=None, help="also write a JSON summary here")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except am.LaserInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LASER
    except (json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (wir.WorkloadError, am.ConfigError, CatalogError, dse.SearchSpaceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OverflowError as exc:
        print(f"error: the inputs overflow the float range ({exc})", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
