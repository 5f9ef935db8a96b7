"""One sha256 over what every op of benchmark workloads returns or prints.

    python3 tools/argv_digest.py --workload monte-carlo --seed 1 2 3
    python3 tools/argv_digest.py --root ../other-checkout --workload cli-sweep

For each workload and seed, every warm-up, cycle and probe op of
``perfbench/workloads.py`` runs once, in that order, in this process.  A
CLI op runs through ``mfbwalk.cli.main`` with stdout and stderr captured,
and its exit code, stdout and stderr are digested.  A library op calls the
package's function on the op's validated model, and the ``repr`` of what
it returns is digested (a float's repr round-trips, so every bit counts),
or the type and message of what it raises.  The parts of each op,
length-prefixed, feed one sha256 per (workload, seed), printed with the op
count; a last line digests all of them.  Two checkouts whose lines agree
gave the same outcome for every op.  ``--root`` names the checkout whose
``src/`` and ``perfbench/workloads.py`` are read (default: the one holding
this file); the workloads file is only imported.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def _outcome(mfbwalk, models, op) -> tuple[str, ...]:
    """The parts digested for ``op``: a library op's repr of its value, or
    a CLI op's exit code, stdout and stderr."""
    if op.kind != "cli":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                fn = getattr(mfbwalk, op.name)
                return (repr(fn(models[op.model], *op.args)),)
            except Exception as exc:  # a refusal is an outcome
                return (f"raised {type(exc).__name__}: {exc}",)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            rc = str(mfbwalk.cli.main(list(op.args)))
        except Exception as exc:  # an escaping exception is an outcome
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def _digest(mfbwalk, models, ops, total) -> tuple[str, int]:
    """sha256 of the outcome of each op, and the number of ops run;
    ``total`` is fed the same bytes."""
    h = hashlib.sha256()
    for op in ops:
        for part in _outcome(mfbwalk, models, op):
            data = part.encode()
            for sink in (h, total):
                sink.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), len(ops)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", type=Path,
                   default=Path(__file__).resolve().parent.parent)
    p.add_argument("--workload", nargs="+", default=["monte-carlo", "cli-sweep"])
    p.add_argument("--seed", type=int, nargs="+", default=[1, 2, 3])
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    import mfbwalk
    import mfbwalk.cli
    total = hashlib.sha256()
    for name in args.workload:
        for seed in args.seed:
            w = workloads.generate(name, seed)
            models = [mfbwalk.load_model(m) if isinstance(m, Path)
                      else mfbwalk.validate_model(m) for m in w.models]
            digest, count = _digest(mfbwalk, models,
                                    [*w.warmup, *w.cycle, *w.probe], total)
            print(f"{name} seed {seed}: {count} ops {digest}")
    print(f"all: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
