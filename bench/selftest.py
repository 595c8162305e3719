#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

1. Runs one reduced-size pass of every workload through the CLI; every
   command must pass its checks.
2. Replays those outputs with one corruption at a time (a flipped byte in a
   ``--threads 2`` output, a rerun that differs, truncated or altered
   files) and requires each to be counted as a failed command, and the
   unaltered replay to count none.

Exits 0 when every expectation holds.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.05


def flip_last_digit(data: bytes) -> bytes:
    i = max(i for i in range(len(data)) if data[i:i + 1].isdigit())
    return data[:i] + bytes([ord("0") + (data[i] - ord("0") + 1) % 10]) + data[i + 1:]


def drop_last_line(data: bytes) -> bytes:
    return data[:data.rstrip(b"\n").rfind(b"\n") + 1]


def cut_mid_line(data: bytes) -> bytes:
    return data[:len(data) // 2]


def double_degrees(data: bytes) -> bytes:
    head, body = data.split(b"degree\n", 1)
    return head + b"degree\n" + b"".join(b"%d\n" % (2 * int(x) + 1) for x in body.split())


def drop_edges(data: bytes) -> bytes:
    lines = data.split(b"\n")
    return b"\n".join(lines[:3 + (len(lines) - 3) // 2]) + b"\n"


def dup_edge(data: bytes) -> bytes:
    lines = data.rstrip(b"\n").split(b"\n")
    return b"\n".join(lines + lines[-1:]) + b"\n"


def bump_kl_residual(data: bytes) -> bytes:
    lines = data.split(b"\n")
    i = next(i for i, ln in enumerate(lines) if b",kl_var_resid_max," in ln)
    n, stat, _, *rest = lines[i].split(b",")
    lines[i] = b",".join([n, stat, b"0.001", *rest])
    return b"\n".join(lines)


def replace(old: bytes, new: bytes):
    def mutate(data: bytes) -> bytes:
        if old not in data:
            raise AssertionError(f"{old!r} not in output")
        return data.replace(old, new, 1)
    mutate.__name__ = f"replace {old.decode()!r}"
    return mutate


#: (workload, key to corrupt, corruption, keys that must be counted failed).
CASES = [
    ("degrees", "direct_inv_t2", flip_last_digit, {"direct_inv_t2"}),
    ("degrees", "direct_mixed_t1", drop_last_line, {"direct_mixed_t1", "direct_mixed_t2"}),
    ("degrees", "direct_rej_t1", double_degrees, {"direct_rej_t1", "direct_rej_t2"}),
    ("degrees", "exp_lognormal_ks_t1", drop_last_line, {"exp_lognormal_ks_t1"}),
    ("analytics", "pmf_n1000000_t1", cut_mid_line, {"pmf_n1000000_t1", "pmf_n1000000_t2"}),
    ("analytics", "pmf_n1000000000000_t1", drop_last_line,
     {"pmf_n1000000000000_t1", "pmf_n1000000000000_t2"}),
    ("analytics", "approx_n1000000_t1", flip_last_digit,
     {"approx_n1000000_t1", "approx_n1000000_t2"}),
    ("analytics", "bound_json_t1", replace(b'"term_be": 0.', b'"term_be": 1.'),
     {"bound_json_t1", "bound_json_t2"}),
    ("analytics", "bound_csv_t1", replace(b"\n1000,", b"\n1001,"),
     {"bound_csv_t1", "bound_csv_t2"}),
    ("analytics", "regime_rho2_t1", replace(b"subcritical", b"supercritical"),
     {"regime_rho2_t1", "regime_rho2_t2"}),
    ("analytics", "exp_kl_reconcile_t2", flip_last_digit, {"exp_kl_reconcile_t2"}),
    ("analytics", "exp_kl_reconcile_t1", bump_kl_residual,
     {"exp_kl_reconcile_t1", "exp_kl_reconcile_t2"}),
    ("analytics", "exp_zero_one_law_t1", replace(b"100,p0,0.", b"100,p0,1."),
     {"exp_zero_one_law_t1", "exp_zero_one_law_t2"}),
    ("graph", "generate_t1", drop_edges, {"generate_t1"}),
    ("graph", "generate_t1", dup_edge, {"generate_t1"}),
    ("graph", "fullgraph_t2", drop_last_line, {"fullgraph_t2"}),
]


def replay(outputs: dict[str, bytes], corrupt: dict, exit_codes: dict | None = None):
    """A runner that writes recorded (optionally corrupted) outputs."""
    def runner(cmd, out_dir: Path):
        data = outputs[cmd.key]
        if cmd.key in corrupt:
            data = corrupt[cmd.key](data)
        Path(cmd.out_path(str(out_dir))).write_bytes(data)
        return 0.0, 0.0, (exit_codes or {}).get(cmd.key, 0)
    return runner


def failed_keys(p: run.Pass) -> set[str]:
    return {r["key"] for r in p.records if not r["ok"]}


def main() -> int:
    out = run.OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    errors = []
    recorded = {}
    for wl in workloads.WORKLOADS:
        d = out / wl
        d.mkdir(parents=True)
        cmds = workloads.build(wl, seed=12345, scale=SCALE)
        p = run.Pass(cmds, d, run.child_runner, {})
        print(f"reduced pass {wl}: {len(p.records)} commands, {p.wall_s:.1f} s, "
              f"failed {sorted(failed_keys(p))}")
        errors += [f"reduced pass {wl}: {f}" for f in p.failures]
        recorded[wl] = (cmds, d, p.outputs)
        clean = run.Pass(cmds, d, replay(p.outputs, {}), {})
        errors += [f"clean replay {wl}: {f}" for f in clean.failures]

    for wl, key, mutate, expect in CASES:
        cmds, d, outputs = recorded[wl]
        if key not in outputs:
            errors.append(f"{wl}: no output {key} to corrupt")
            continue
        got = failed_keys(run.Pass(cmds, d, replay(outputs, {key: mutate}), {}))
        status = "ok" if got == expect else "WRONG"
        print(f"{status:5s} {wl}/{key} {mutate.__name__}: failed {sorted(got)}")
        if got != expect:
            errors.append(f"{wl}/{key} {mutate.__name__}: counted {sorted(got)}, "
                          f"expected {sorted(expect)}")

    # A rerun whose bytes differ from the first pass is a failure too.
    cmds, d, outputs = recorded["graph"]
    reference = dict(outputs, fullgraph_t1=flip_last_digit(outputs["fullgraph_t1"]))
    got = failed_keys(run.Pass(cmds, d, replay(outputs, {}), reference))
    print(f"{'ok' if got == {'fullgraph_t1'} else 'WRONG':5s} graph rerun mismatch: "
          f"failed {sorted(got)}")
    if got != {"fullgraph_t1"}:
        errors.append(f"rerun mismatch counted {sorted(got)}")
    # So is a command that exits non-zero, whatever it wrote.
    got = failed_keys(run.Pass(cmds, d, replay(outputs, {}, {"generate_t1": 4}), {}))
    print(f"{'ok' if got == {'generate_t1'} else 'WRONG':5s} graph exit code 4: "
          f"failed {sorted(got)}")
    if got != {"generate_t1"}:
        errors.append(f"non-zero exit counted {sorted(got)}")

    shutil.rmtree(out, ignore_errors=True)
    for e in errors:
        print(f"SELFTEST FAIL {e}")
    print("selftest passed" if not errors else f"selftest failed: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
