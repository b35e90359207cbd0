"""Start a VSS server the stock way, optionally traced.

    python3 e2ebench/launch.py [--trace-out FILE] -- <python -m repro.server args>

With ``--trace-out`` the benchmark's span wrappers are installed before
``repro.server.__main__.main`` runs, and the spans are written to FILE
when the server stops (on SIGINT or SIGTERM, which the server treats as
shutdown).
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    # A process started in the background by a shell inherits SIGINT
    # ignored, and Python then never raises KeyboardInterrupt: restore it,
    # so the stock shutdown path runs however the benchmark was started.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _interrupt)
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.server.__main__ import main as serve

    tracer = None
    if trace_out is not None:
        from spans import Tracer

        tracer = Tracer("router" if "--router" in argv else "shard")
        tracer.install()
    try:
        return serve(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
