"""Span tracing of fedmimic's public functions, installed from outside.

Run as a script, it traces one CLI stage in-process:

    python3 perfbench/tracer.py SPANS.json --mode central --out-dir run ...

Every function in ``TRACED`` is replaced, in each ``fedmimic.*`` module
namespace that holds a reference to it, by a wrapper that records a span
(name, start, end, parent). ``cli``, ``fedsim`` and ``mimic`` import these
functions by name, so patching only the defining module would miss their
calls. Spans stay in memory and are written to SPANS.json when the stage
ends; the script exits with the stage's exit code. A listed function that no
longer exists is written to the file as absent instead of failing the run.

The wrappers keep one span stack per process, which matches the CLI's
default ``--threads 1``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> public functions whose calls are timed
TRACED = {
    "data": ["parse_records", "fit_pipeline", "apply_pipeline", "map_labels"],
    "features": ["fit_logreg", "rfe", "select_union"],
    "nn": ["forward", "loss", "backward", "adam_step", "train_local",
           "predict"],
    "fedsim": ["fedavg", "test_accuracy", "run_fl"],
    "mimic": ["label_public", "pseudo_label_agreement", "run_ftml"],
    "metrics": ["confusion", "per_class_metrics"],
    "modelio": ["save_model", "load_model"],
    "cli": ["load_prep", "write_runmeta", "build_mimic_clients"],
}


class Tracer:
    """Span recorder. ``spans`` holds ``(name, start, end, parent)`` tuples;
    ``parent`` is the index of the enclosing span, or -1 at top level."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
        return traced

    def install(self) -> list[str]:
        """Wrap every ``TRACED`` function in all loaded ``fedmimic`` module
        namespaces. Returns the ``layer.function`` names that do not exist."""
        modules = [m for n, m in sys.modules.items()
                   if n == "fedmimic" or n.startswith("fedmimic.")]
        absent = []
        for layer, names in TRACED.items():
            home = sys.modules.get(f"fedmimic.{layer}")
            for fname in names:
                orig = getattr(home, fname, None)
                if not callable(orig):
                    absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
        return absent


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import fedmimic.cli as cli  # loads every fedmimic module it uses

    tracer = Tracer()
    absent = tracer.install()
    try:
        rc = cli.main(cli_args)
    finally:
        with open(out_path, "w") as f:
            json.dump({"absent": absent, "spans": tracer.spans}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
