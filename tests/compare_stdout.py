"""Compare the CLI's stdout between two source trees, cell by cell.

Each side runs one fixed grid of CLI cells through `cli.main`, in process,
against the `qpirlab` package under its own `src` directory, and writes
each cell's exit code and stdout to a JSON file.  The grid is the golden
grid (`test_golden.CELLS`) plus `reduce` and `qpir-correctness` on
trivial, index-in-clear, noisy-trivial at delta 0.2 and 0.416768 and
random seeds 1 and 5, at n = 1..7 (random up to 6), `reduce` on
trivial n=8 and noisy-trivial n=8 at delta 0.2, and `qpir-privacy` and
`attack` on trivial, noisy-trivial at delta 0.2 and index-in-clear at
n = 4..7, each with its whole distance matrix.  The comparison then
lists every cell whose exit code or stdout differs, field by field, each
moved float with its absolute difference, then the largest difference
over the grid, and exits 1 if any cell differs.  The name does not start with `test_`, so pytest
does not collect this file.

To compare a change with its parent, check the parent out in a directory
of its own (`git worktree add`, or `git archive` into one) and run, at a
fixed BLAS thread count:

    OPENBLAS_NUM_THREADS=1 python tests/compare_stdout.py PARENT/src src OUT

which writes OUT/a.json and OUT/b.json, one side each in its own
process, and prints the differing cells.  The parts run on their own:

    python tests/compare_stdout.py --run SRC OUT.json
    python tests/compare_stdout.py --diff A.json B.json
"""

import contextlib
import io
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve()


def _protocols(n: int) -> list[str]:
    cells = [f"builtin:trivial?n={n}", f"builtin:index-in-clear?n={n}"]
    cells += [f"builtin:noisy-trivial?n={n}&delta={d}" for d in (0.2, 0.416768)]
    if n <= 6:
        cells += [f"builtin:random?n={n}&seed={seed}" for seed in (1, 5)]
    return cells


#: `reduce` cells past n=7, where the encoding of the basis-map builtins
#: is most of the run.
LARGE = ("builtin:trivial?n=8", "builtin:noisy-trivial?n=8&delta=0.2")

#: Protocols whose privacy reports are diffed past the golden grid's n=3.
PRIVACY = ("builtin:trivial?n={}", "builtin:noisy-trivial?n={}&delta=0.2",
           "builtin:index-in-clear?n={}")


def grid() -> list[list[str]]:
    """The golden cells, then each extra cell the golden grid lacks."""
    from test_golden import CELLS
    cells = [list(argv) for argv in CELLS]
    for n in range(1, 8):
        for protocol in _protocols(n):
            for verb in ("reduce", "qpir-correctness"):
                argv = [verb, "--protocol", protocol]
                if argv not in cells:
                    cells.append(argv)
    cells += [["reduce", "--protocol", protocol] for protocol in LARGE]
    return cells + [[verb, "--protocol", protocol.format(n)] for n in range(4, 8)
                    for protocol in PRIVACY for verb in ("qpir-privacy", "attack")]


def run(src: str, out: str) -> None:
    """Run the grid against `src`'s qpirlab and write {cell: {exit, stdout}}."""
    sys.path.insert(0, str(pathlib.Path(src).resolve()))
    from qpirlab import cli
    if not pathlib.Path(cli.__file__).resolve().is_relative_to(pathlib.Path(src).resolve()):
        raise SystemExit(f"qpirlab imported from {cli.__file__}, not under {src}")
    results = {}
    for argv in grid():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        results[" ".join(argv)] = {"exit": code, "stdout": stdout.getvalue()}
    pathlib.Path(out).write_text(json.dumps(results, indent=1) + "\n")


def _fields(a, b, path: str):
    """Yield (path, a, b) for each leaf where a and b differ, floats by
    their repr, so any moved bit counts."""
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        for key in a:
            yield from _fields(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            yield from _fields(x, y, f"{path}[{k}]")
    elif type(a) is not type(b) or repr(a) != repr(b):
        yield path, a, b


def _parsed(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


def _moved(old, new) -> float | None:
    """|new - old| for two floats (an int counts as one), else None."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (old, new))
    return abs(new - old) if numbers and float in (type(old), type(new)) else None


def diff(a_path: str, b_path: str) -> int:
    """Print every cell that differs, field by field, each moved float with
    its absolute difference, and the largest of those; the count of cells
    that differ."""
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (a_path, b_path))
    differing = 0
    largest = (0.0, None)
    for cell in sorted(set(a) | set(b), key=lambda c: (c not in a, c)):
        if cell not in a or cell not in b:
            print(f"{cell}: only in {a_path if cell in a else b_path}")
            differing += 1
            continue
        x, y = a[cell], b[cell]
        moved = list(_fields(x["exit"], y["exit"], "exit"))
        if x["stdout"] != y["stdout"]:
            moved += list(_fields(_parsed(x["stdout"]), _parsed(y["stdout"]), "stdout"))
            moved = moved or [("stdout", "(formatting)", "(formatting)")]
        if moved:
            differing += 1
            print(f"{cell}:")
            for path, old, new in moved:
                gap = _moved(old, new)
                print(f"  {path}: {old!r} -> {new!r}"
                      + ("" if gap is None else f" (|difference| {gap:.3g})"))
                if gap is not None and gap > largest[0]:
                    largest = (gap, f"{cell} {path}")
    print(f"{differing} of {len(set(a) | set(b))} cells differ")
    if largest[1] is not None:
        print(f"largest float difference: {largest[0]:.3g}, at {largest[1]}")
    return differing


def main(argv: list[str]) -> int:
    if argv[:1] == ["--run"] and len(argv) == 3:
        run(argv[1], argv[2])
        return 0
    if argv[:1] == ["--diff"] and len(argv) == 3:
        return int(diff(argv[1], argv[2]) > 0)
    if len(argv) != 3:
        raise SystemExit(__doc__)
    a_src, b_src, out = argv
    pathlib.Path(out).mkdir(parents=True, exist_ok=True)
    a_out, b_out = (str(pathlib.Path(out) / name) for name in ("a.json", "b.json"))
    for src, dest in ((a_src, a_out), (b_src, b_out)):
        subprocess.run([sys.executable, str(HERE), "--run", src, dest], check=True)
    return int(diff(a_out, b_out) > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
