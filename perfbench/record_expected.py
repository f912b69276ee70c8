"""Rebuild expected.json from the sgdecomp in this checkout.

    python3 perfbench/record_expected.py

The benchmark byte-compares non-search CLI reports with the digests
recorded here, and checks complete searches against the recorded orbit
counts.  Re-record only when an output is meant to change, and say which
and why in the change.  The full (169, 14) search alone takes over a
minute.
"""

import json
import shutil
import sys

import checks
import run
import workloads


def orbit_keys():
    keys = {(q, d, a) for q, d, a, _ in workloads.ORBIT_POOL}
    keys |= {(q, d, 2) for q, d in workloads.CLI_SEARCH_A + workloads.CLI_SEARCH_B
             + workloads.CLI_SMALL_SEARCH}
    keys |= {(p, 2, 2) for p in workloads.QR_PRIMES}
    return sorted(keys)


def cli_argvs():
    argvs = list(workloads.CLI_FIXED) + list(workloads.CLI_SMALL_FIXED)
    for pool in workloads.CLI_POOLS.values():
        argvs += pool
    return argvs


def main() -> int:
    sg = run.load_package()
    counts = {}
    for q, d, arity in orbit_keys():
        task = sg.search.SearchTask(q=q, d=d, arity=arity)
        runner = sg.search.search_binary if arity == 2 else sg.search.search_ternary
        res = runner(task)
        if not res.complete:
            raise SystemExit(f"search {q}/{d} did not complete")
        counts[f"{q},{d},{arity}"] = len(res.witnesses)
        print(f"orbits {q},{d},{arity}: {len(res.witnesses)}", flush=True)
    work = run.ROOT / ".bench_work" / "record"
    env = workloads.Env(root=run.ROOT, work=work, expected={})
    cli = workloads.Cli(env)
    digests = {}
    try:
        for argv in cli_argvs():
            proc = cli.invoke(argv, cli.fresh_dir("cache"), None)
            if proc.returncode != 0:
                raise SystemExit(f"{argv} exited {proc.returncode}")
            digests[workloads.cli_key(argv)] = checks.sha256(proc.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"orbit_counts": counts, "cli": digests},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
