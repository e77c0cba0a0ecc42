"""Run the hetwishart CLI with spans recorded around each module's calls.

Usage: python -m hwbench.traced_cli SPANS_JSON CLI_ARG...

Writes the spans, the wrappers installed, the time ``import hetwishart.cli``
took and the cache statistics of ``moment_oracle.gaussian_moment`` to
SPANS_JSON when the CLI returns, and exits with the CLI's exit code.
"""

import sys
from time import perf_counter

from hwbench.tracing import Recorder, install


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = perf_counter()
    from hetwishart import cli, moment_oracle

    import_s = perf_counter() - start
    rec = Recorder()
    installed = install(rec)
    try:
        return rec.wrap("cli.main", cli.main)(cli_args)
    finally:
        info = getattr(moment_oracle.gaussian_moment, "cache_info", None)
        cache = info()._asdict() if info else {}
        rec.dump(spans_path, import_s=import_s, gaussian_moment_cache=cache, installed=installed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
