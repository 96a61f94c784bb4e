"""Run one diracloc CLI job in this process and record its timeline.

    python child.py SIDECAR [--setup-only] [--trace] -- <diracloc arguments>

Runs ``diracloc.cli.main`` exactly as the ``diracloc`` console script
does, and writes SIDECAR (JSON) when the job ends:

* ``ready``: CLOCK_MONOTONIC time at which the CLI was imported and its
  config loaded (the end of set-up);
* ``done``: the time ``main`` returned;
* ``spans``: the tracer's spans, with ``--trace``.

``--setup-only`` stops right after the config is loaded, so set-up can
be sampled without running the command.  The exit code is main's.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list) -> int:
    split = argv.index("--")
    sidecar, options, cli_args = argv[0], argv[1:split], argv[split + 1:]
    import diracloc.cli as cli

    payload = {"diracloc_file": cli.__file__, "spans": []}
    tracer = None
    if "--trace" in options:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        payload["bindings"] = tracer.bindings
    load_config = cli.load_config

    def timed_load_config(path, args):
        cfg = load_config(path, args)
        payload["ready"] = time.monotonic()
        if "--setup-only" in options:
            sys.exit(0)  # the finally clause below writes the sidecar
        return cfg

    cli.load_config = timed_load_config
    try:
        code = cli.main(cli_args)
    finally:
        payload["done"] = time.monotonic()
        if tracer is not None:
            payload["spans"] = tracer.spans
        with open(sidecar, "w") as handle:
            json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
