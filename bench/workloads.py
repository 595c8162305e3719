"""The three benchmark workloads as seeded sequences of `magnet` commands.

A workload is a list of :class:`Command`.  The workload seed only feeds the
``--seed`` flags and the INI ``seed`` keys, so sizes (and therefore the work
done) are the same for every seed while the sampled bytes differ.  A
command with ``twin`` set repeats the ``--threads 1`` command of that key at
``--threads 2``; its output must be byte-identical to the twin's.

``scale`` shrinks every draw count and graph size; the self-test uses it for
a quick single pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import law

WORKLOADS = ("analytics", "degrees", "graph")

#: ``pmf`` at n = 10^12 needs an explicit --d-max: the default 1 - 1e-9
#: quantile scan never reaches its level there (sum of pmf is ~2e-3 short
#: of 1) and grows its chunk until the process is killed for memory.
PMF_1E12_DMAX = 2000
BOUND_GRID = (10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12)


@dataclass(frozen=True)
class Command:
    key: str                  # unique within a pass; names the output file
    args: tuple[str, ...]     # magnet arguments; "{dir}" is the output directory
    threads: int
    check: str                # validator name in checks.py
    info: dict = field(default_factory=dict)   # validator inputs
    twin: str | None = None   # key of the --threads 1 command with the same arguments
    config: str | None = None  # INI text of an `experiment` command

    def argv(self, out_dir: str) -> list[str]:
        return ([a.replace("{dir}", out_dir) for a in self.args]
                + ["--threads", str(self.threads), "--out", self.out_path(out_dir)])

    def out_path(self, out_dir: str) -> str:
        return f"{out_dir}/{self.key}.out"

    def config_path(self, out_dir: str) -> str:
        """Where the INI text of an `experiment` command is written."""
        return self.args[1].replace("{dir}", out_dir)


def _ini(kind: str, grid, draws: int, seed: int) -> str:
    return (
        "[model]\n"
        f"q11 = {law.Q11!r}\nq10 = {law.Q10!r}\nq00 = {law.Q00!r}\nmu1 = {law.MU1!r}\n"
        "[scaling]\nrho = 1.0\n"
        "[experiment]\n"
        f"kind = {kind}\nn_grid = {' '.join(str(n) for n in grid)}\n"
        f"draws = {draws}\nseed = {seed}\n"
    )


def _pair(key: str, args: list[str], check: str, info: dict,
          config: str | None = None, both: bool = True) -> list[Command]:
    """The command at --threads 1 and, when ``both``, its --threads 2 twin."""
    t1 = Command(f"{key}_t1", tuple(args), 1, check, info, None, config)
    if not both:
        return [t1]
    return [t1, Command(f"{key}_t2", tuple(args), 2, check, info, t1.key, config)]


def _experiment(key: str, kind: str, grid, draws: int, seed: int,
                both: bool = True) -> list[Command]:
    config = _ini(kind, grid, draws, seed)
    info = {"kind": kind, "grid": tuple(grid), "draws": draws, "seed": seed}
    return _pair(key, ["experiment", "{dir}/" + key + ".ini"], "report", info, config, both)


def _analytics(rng: random.Random, scale: float) -> list[Command]:
    # Every call also runs at --threads 2.  None of them uses threads, so the
    # twins check that the flag changes no byte and costs nothing, and
    # wall_t1_s / wall_t2_s each sum twelve calls spread over the pass.
    def seed() -> list[str]:
        return ["--seed", str(rng.getrandbits(64))]

    cmds = []
    for r in (1, 2):
        cmds += _pair(f"regime_rho{r}", ["regime", "--rho", str(r), *seed()], "regime",
                      {"rho": float(r)})
    for n, d_max in ((10 ** 6, None), (10 ** 9, None), (10 ** 12, PMF_1E12_DMAX)):
        extra = ["--d-max", str(d_max)] if d_max is not None else []
        cmds += _pair(f"pmf_n{n}", ["pmf", "--n", str(n), *extra, *seed()], "pmf",
                      {"n": n, "rho": 1.0, "d_max": d_max})
    for n in (10 ** 6, 10 ** 9):
        cmds += _pair(f"approx_n{n}", ["approx", "--n", str(n), *seed()], "approx",
                      {"n": n, "rho": 1.0})
    grid_args = [a for n in BOUND_GRID for a in ("--n", str(n))]
    for fmt in ("csv", "json"):
        cmds += _pair(f"bound_{fmt}", ["bound", *grid_args, "--format", fmt, *seed()], "bound",
                      {"grid": BOUND_GRID, "rho": 1.0, "format": fmt})
    cmds += _experiment("exp_bound_check", "bound_check", BOUND_GRID, 100, rng.getrandbits(64))
    cmds += _experiment("exp_zero_one_law", "zero_one_law",
                        (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6), 100, rng.getrandbits(64))
    cmds += _experiment("exp_kl_reconcile", "kl_reconcile", (10 ** 3, 10 ** 6, 10 ** 9), 100,
                        rng.getrandbits(64))
    return cmds


#: Direct-sampler branch mixes: (key, n, rho, draws).  At the reference
#: parameters the rejection branch takes ~0.8%, ~40% and 100% of draws.
DIRECT_MIXES = (
    ("inv", 10 ** 6, 1.0, 200_000),
    ("mixed", 10 ** 12, 1.0, 200_000),
    ("rej", 10 ** 6, 0.5, 25_000),
)


def _degrees(rng: random.Random, scale: float) -> list[Command]:
    cmds = []
    for mix, n, rho, count in DIRECT_MIXES:
        count = max(100, int(count * scale))
        args = ["degrees", "--method", "direct", "--n", str(n), "--rho", str(rho),
                "--count", str(count), "--seed", str(rng.getrandbits(64))]
        cmds += _pair(f"direct_{mix}", args, "degrees",
                      {"n": n, "rho": rho, "count": count, "mix": mix})
    cmds += _experiment("exp_lognormal_ks", "lognormal_ks",
                        (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6), max(100, int(30_000 * scale)),
                        rng.getrandbits(64), both=False)
    return cmds


GENERATE_N = 8_000
FULLGRAPH_N, FULLGRAPH_COUNT = 2_000, 1_200
DEGREE_FIT_GRID, DEGREE_FIT_DRAWS = (1_000, 2_000), 5_000


def _graph(rng: random.Random, scale: float) -> list[Command]:
    n_gen = max(100, int(GENERATE_N * scale ** 0.5))
    cmds = [Command("generate_t1", ("generate", "--n", str(n_gen), "--seed",
                                    str(rng.getrandbits(64))), 1, "edges",
                    {"n": n_gen, "rho": 1.0})]
    n_fg, count = max(50, int(FULLGRAPH_N * scale ** 0.5)), max(100, int(FULLGRAPH_COUNT * scale))
    cmds += _pair("fullgraph", ["degrees", "--method", "fullgraph", "--n", str(n_fg),
                                "--count", str(count), "--seed", str(rng.getrandbits(64))],
                  "degrees", {"n": n_fg, "rho": 1.0, "count": count, "mix": "fullgraph"})
    grid = tuple(max(50, int(n * scale ** 0.5)) for n in DEGREE_FIT_GRID)
    cmds += _experiment("exp_degree_fit", "degree_fit", grid,
                        max(400, int(DEGREE_FIT_DRAWS * scale)), rng.getrandbits(64))
    return cmds


def build(workload: str, seed: int, scale: float = 1.0) -> list[Command]:
    """The command sequence of one pass of ``workload`` under ``seed``."""
    make = {"analytics": _analytics, "degrees": _degrees, "graph": _graph}[workload]
    return make(random.Random(f"{workload}:{seed}"), scale)
