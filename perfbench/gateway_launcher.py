"""Run ``python -m repro gateway`` with the benchmark's span wrappers.

Usage (from the repository root)::

    python3 perfbench/gateway_launcher.py SPANS.json gateway [flags...]

The wrappers are installed in this process before the gateway starts
and the spans are written to ``SPANS.json`` when it shuts down.  Under
``--executor process`` the pool workers are fresh interpreters, so the
solver layers inside them run untraced.  Everything happens under the
``__main__`` guard: spawned workers import this file and must not start
a second gateway.
"""

import sys
from pathlib import Path


def main(argv):
    spans_path, gateway_argv = argv[0], argv[1:]
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    from tracer import Tracer, install_gateway_layers

    from repro.cli import main as repro_main

    tracer = Tracer()
    install_gateway_layers(tracer)
    try:
        return repro_main(gateway_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
