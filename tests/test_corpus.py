"""A seeded corpus of valid configs, each run through the command line.

`random.Random(SEED)` draws configs that are valid by construction: 1D
ones with one to three wells, and two small 2D ones.  Each is run twice
into the same directory and reported, and every run must keep the
pipeline's promises whatever its verdicts: status 0 or 1, no traceback
and no RuntimeWarning, a named stop reason for every solve, a solve named
by every FAILURE line, every verdict in verdicts.txt, a byte-identical
rerun, and a run directory that `logbump report` reads, listing the
FAILURE lines as its failed solves.
"""

import random
import re
import warnings
from pathlib import Path

from logbump.cli import SolveRow, main, parse_config_text, rows_from_csv
from logbump.penalty import DELTA_MAX

SEED = 20261019
VERDICTS = ("convergence", "positivity", "linfty_outside", "localization_trend",
            "energy_sandwich", "limit_energy_gap", "bump_fidelity")
STOP = re.compile(r"converged|iteration cap|collapse|diverged|non-finite"
                  r"|breakdown( \(.+\))?")
FAILURE = re.compile(r"FAILURE: (well \d+ ground state|(enlarged well \d+ level|gamma "
                     r"\d+(\+\d+)* sweep) at lambda=\S+) (did not converge \(.+\)"
                     r"|has Morse index (\d+|n/a), expected \d+)")


def _draw_config(rng, dim: int, n: int, k: int) -> str:
    """A config of k wells on an n-node grid, valid by construction: each
    enlargement sits in its own slot of axis 0 with 3 cells to spare, holds
    its well with over 2 cells of margin, and each well spans over 32
    nodes per axis."""
    r = rng.uniform(4.0, 10.0)
    h = 2.0 * r / (n - 1)
    lo, hi = -r + 3.0 * h, r - 3.0 * h
    slot = (hi - lo) / k
    lines = [f"dim = {dim}", f"R = {r!r}", f"n = {n}"]
    for j in range(1, k + 1):
        e_half = rng.uniform(20.0 * h, 0.95 * slot / 2.0)
        half = rng.uniform(17.0 * h, e_half - 2.5 * h)
        center = [lo + (j - 0.5) * slot]
        center += [rng.uniform(lo + e_half, hi - e_half) for _ in range(1, dim)]
        lines += [f"well.{j}.center = {', '.join(map(repr, center))}",
                  f"well.{j}.half = {', '.join([repr(half)] * dim)}",
                  f"well.{j}.enlarged_half = {', '.join([repr(e_half)] * dim)}"]
    selection = sorted(rng.sample(range(1, k + 1), rng.randint(1, k)))
    gamma = "all" if rng.random() < 0.5 else ",".join(map(str, selection))
    lambdas = sorted(rng.sample([10.0, 100.0, 1e3, 1e4, 1e5], rng.randint(1, 3)))
    lines += [f"gamma = {gamma}", f"lambdas = {', '.join(map(repr, lambdas))}",
              f"cap = {rng.uniform(0.5, 2.0)!r}",
              f"potential_power = {rng.choice((1.0, 2.0))!r}",
              f"delta = {rng.uniform(0.05, DELTA_MAX)!r}",
              f"l = {rng.uniform(0.1, 0.9)!r}",
              f"max_iters = {rng.choice((3, 40000))}"]
    return "\n".join(lines) + "\n"


def _corpus() -> list[str]:
    rng = random.Random(SEED)
    configs = [_draw_config(rng, 1, rng.choice((161, 201, 241)), rng.randint(1, 3))
               for _ in range(8)]
    return configs + [_draw_config(rng, 2, 61, 1), _draw_config(rng, 2, 97, 2)]


def _run(cfg: Path, out: Path, capsys):
    """(status, stdout, stderr) of `logbump run`, which may warn of nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(["run", "--config", str(cfg), "--out", str(out)])
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    return (status, *capsys.readouterr())


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_seeded_valid_configs_keep_the_run_invariants(tmp_path, capsys):
    for idx, text in enumerate(_corpus()):
        config = parse_config_text(text)
        cfg, out = tmp_path / f"c{idx}.cfg", tmp_path / f"run{idx}"
        cfg.write_text(text)
        first = _run(cfg, out, capsys)
        status, stdout, stderr = first
        context = f"config {idx}:\n{text}\nstderr:\n{stderr}"
        assert status in (0, 1), context
        assert "Traceback" not in stderr, context
        failures = stderr.splitlines()
        assert all(FAILURE.fullmatch(line) for line in failures), context

        solves, _ = rows_from_csv((out / "solves.csv").read_text(), SolveRow, "solves.csv")
        assert all(STOP.fullmatch(r.stop) for r in solves), context

        k = len(config.wells)
        every = len(config.gamma_subsets()) == 2**k - 1
        names = [*VERDICTS, "multiplicity"] if every else list(VERDICTS)
        verdicts = (out / "verdicts.txt").read_text().splitlines()
        assert [ln.split()[0] for ln in verdicts] == [f"criterion={n}" for n in names], context
        printed = [ln for ln in stdout.splitlines() if ln.startswith(("PASS ", "FAIL "))]
        assert [ln.split()[0] for ln in printed] == [
            ln.split()[1].removeprefix("status=") for ln in verdicts], context
        assert status == int(bool(failures) or "FAIL" in [ln[:4] for ln in printed])

        files = _files(out)
        assert _run(cfg, out, capsys) == first, context
        assert _files(out) == files, context

        assert main(["report", str(out)]) == 0, context
        captured = capsys.readouterr()
        listed = captured.out.split(
            "solves not converged or of another Morse index:\n")[1].split("solves with")[0]
        assert [f"FAILURE: {ln.strip()}" for ln in listed.splitlines()
                if ln != "  none"] == failures, context
        assert captured.err == "", context
