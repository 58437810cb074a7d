"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python daemon.py SPANS_OUT serve [serve args...]``

Installs the in-process and service wrappers from ``tracing.py`` and a
counters-only telemetry sink, then calls the daemon's own entry point
(``repro.__main__.main``).  When the daemon has drained and returned,
the spans and counters are written to ``SPANS_OUT`` as one JSON
document; nothing is written while it serves.
"""

from __future__ import annotations

import json
import sys
import threading
from typing import Any, Dict, List


class CounterSink:
    """Thread-safe telemetry sink that keeps only counter totals."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self._lock = threading.Lock()

    def emit(self, event: Dict[str, Any]) -> None:
        """Fold one event's counters into the totals."""
        if event.get("event") == "span":
            items = event.get("counters", {}).items()
        elif event.get("event") == "counter":
            items = [(event["name"], event["value"])]
        else:
            return
        with self._lock:
            for name, value in items:
                self.counters[name] = self.counters.get(name, 0) + value


def main(argv: List[str]) -> int:
    """Run the daemon traced; returns its exit code."""
    from harness import import_repro
    from tracing import Tracer, install_inprocess, install_service

    spans_out, serve_argv = argv[0], argv[1:]
    import_repro()
    from repro import telemetry
    from repro.__main__ import main as repro_main

    tracer = Tracer()
    install_inprocess(tracer)
    install_service(tracer)
    sink = telemetry.enable(CounterSink())
    try:
        code = repro_main(serve_argv)
    finally:
        telemetry.disable()
        tracer.uninstall()
        with open(spans_out, "w", encoding="utf-8") as stream:
            json.dump({"spans": tracer.spans, "counters": sink.counters}, stream)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
