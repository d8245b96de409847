"""Time one cold set-up: import bitwave and parse a workload's inputs once.

Usage: python3 setup_probe.py SRC_DIR KIND:VALUE ...

KIND is model, config, baseline or space (VALUE is a file path) or argv
(VALUE is a space-separated ``bitwave`` command line). Prints the seconds
taken, wall then CPU. Only ``sys`` and ``time`` are imported before the clock
starts, so the standard-library modules bitwave pulls in are measured too.
"""

import sys
import time


def main(argv: list[str]) -> int:
    t0, c0 = time.perf_counter(), time.process_time()
    sys.path.insert(0, argv[0])
    from bitwave import arch_model, cli, dse, workload_ir

    parsers = {
        "model": workload_ir.load_workload,
        "config": arch_model.load_arch_config,
        "baseline": arch_model.load_baseline_spec,
        "space": dse.load_search_space,
        "argv": lambda text: cli.build_parser().parse_args(text.split()),
    }
    for item in argv[1:]:
        kind, _, value = item.partition(":")
        parsers[kind](value)
    print(repr(time.perf_counter() - t0), repr(time.process_time() - c0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
