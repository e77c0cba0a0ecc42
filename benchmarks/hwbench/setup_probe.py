"""Set-up cost of a workload: import the CLI and load its input files.

Usage: python -m hwbench.setup_probe LOADER=PATH...

LOADER is ``profile`` (a profile file, through ``profiles.load_profile``) or
``config`` (a JSON config, with its noise model and ``sigmas`` parsed the
way the CLI parses them).  Runs no replicate and enumerates no cycle.
"""

import json
import sys


def main(argv: list[str]) -> int:
    import numpy as np

    from hetwishart import cli, profiles, samplers  # noqa: F401  (the import is the cost)

    for item in argv:
        loader, path = item.split("=", 1)
        if loader == "profile":
            profiles.load_profile(path)
        elif loader == "config":
            with open(path, encoding="utf-8") as fh:
                cfg = json.load(fh)
            if "model" in cfg:
                samplers.model_from_json_dict(cfg["model"])
            if "sigmas" in cfg:
                np.asarray(cfg["sigmas"], dtype=float)
        else:
            raise SystemExit(f"unknown loader {loader!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
