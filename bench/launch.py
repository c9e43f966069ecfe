"""Run one graphdiag CLI command in this process and report on it.

Usage: python3 launch.py SIDECAR.json MODE SPANS.jsonl -- <graphdiag args>

The command runs through ``graphdiag.cli.main``, exactly as the
``graphdiag`` console script does. The only addition in an untraced run
(MODE ``run``) is a timestamp taken when ``graphdiag.io.load_dataset``
returns, which marks the end of set-up. MODE ``setup`` stops the command
there. MODE ``trace`` installs the wrappers of ``tracing.Tracer`` first;
spans go to SPANS.jsonl and per-layer metrics to the sidecar. The sidecar
is written only when the command returns.
"""

from __future__ import annotations

import json
import sys
import time
import warnings


class SetupDone(Exception):
    """Raised after set-up in MODE ``setup`` to end the command early."""


def main(argv: list[str]) -> int:
    sidecar, mode, spans_path, sep, *cli_args = argv
    if sep != "--" or mode not in ("run", "setup", "trace"):
        raise SystemExit("usage: launch.py SIDECAR run|setup|trace SPANS -- <graphdiag args>")
    import graphdiag.cli
    import graphdiag.io
    from graphdiag.nullmodels import RewireStallWarning

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    setup_end = []
    load_dataset = graphdiag.io.load_dataset

    def timed_load_dataset(*args, **kwargs):
        dataset = load_dataset(*args, **kwargs)
        setup_end.append(time.monotonic())
        if mode == "setup":
            raise SetupDone
        return dataset

    graphdiag.io.load_dataset = timed_load_dataset

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RewireStallWarning)
        try:
            code = graphdiag.cli.main(cli_args)
        except SetupDone:
            code = 0
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    report = {"setup_end": setup_end[0] if setup_end else None}
    if tracer is not None:
        stalls = sum(issubclass(w.category, RewireStallWarning) for w in caught)
        report["layers"] = tracer.metrics(stalls)
        tracer.write_spans(spans_path)
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
