"""Traced stand-in for `python -m bklv`, one command per process.

    python perfbench/bootstrap.py SPANS_FILE -- BKLV_ARGS...

It times `import bklv.cli` as the `cli.import` span, installs the layer
wrappers, runs `bklv.cli.main(argv)` as the `cli.main` span and writes the
spans to SPANS_FILE when the command ends: one JSON line of spans, then
one line with the seconds that writing them took. Interpreter start-up,
import and first-call costs therefore stay inside the traced command.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: bootstrap.py SPANS_FILE -- BKLV_ARGS...")
    tracer = Tracer()
    idx = tracer.open("cli.import")
    import bklv.cli

    tracer.close(idx)
    tracer.install()
    idx = tracer.open("cli.main")
    try:
        code = bklv.cli.main(argv)
    finally:
        tracer.close(idx)
        tracer.uninstall()
        t0 = time.perf_counter()
        with open(out_path, "w") as fh:
            fh.write(json.dumps(tracer.export()) + "\n")
            fh.write(json.dumps({"dump_s": time.perf_counter() - t0, "bklv": bklv.__file__}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
