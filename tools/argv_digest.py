"""One sha256 over what the CLI prints for every op of benchmark workloads.

    python3 tools/argv_digest.py --workload monte-carlo --seed 1 2 3
    python3 tools/argv_digest.py --root ../other-checkout --workload cli-sweep

For each workload and seed, every warm-up, cycle and probe op of
``perfbench/workloads.py`` that is a CLI call runs once, in that order,
through ``mfbwalk.cli.main`` in this process, with stdout and stderr
captured.  The exit code, stdout and stderr of each op, length-prefixed,
feed one sha256 per (workload, seed), printed with the op count; a last
line digests all of them.  Two checkouts whose lines agree printed the same
bytes for every op.  ``--root`` names the checkout whose ``src/`` and
``perfbench/workloads.py`` are read (default: the one holding this file);
the workloads file is only imported.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def _digest(main, ops, total) -> tuple[str, int]:
    """sha256 of the (exit code, stdout, stderr) of each CLI op, and the
    number of ops run; ``total`` is fed the same bytes."""
    h, count = hashlib.sha256(), 0
    for op in ops:
        if op.kind != "cli":
            continue
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("always")
            try:
                rc = str(main(list(op.args)))
            except Exception as exc:  # an escaping exception is an outcome
                rc = f"raised {type(exc).__name__}: {exc}"
        for part in (rc, out.getvalue(), err.getvalue()):
            data = part.encode()
            for sink in (h, total):
                sink.update(len(data).to_bytes(8, "little") + data)
        count += 1
    return h.hexdigest(), count


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
    from mfbwalk.cli import main as cli_main
    total = hashlib.sha256()
    for name in args.workload:
        for seed in args.seed:
            w = workloads.generate(name, seed)
            digest, count = _digest(cli_main, [*w.warmup, *w.cycle, *w.probe],
                                    total)
            print(f"{name} seed {seed}: {count} ops {digest}")
    print(f"all: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
