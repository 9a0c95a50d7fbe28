#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--seconds S]

1. Determinism: sim-paper with a fixed seed reports identical simulated
   metrics and delivery-order hash in two untraced runs and in a traced run.
2. The checker judges hand-made delivery streams (clean, last two
   deliveries swapped at one member, duplicate, loss, epoch regression)
   as expected: perfbench_driver --checker-selftest.
3. The checker catches SP's injected drain fault
   (SwitchConfig::fault_skip_count_sender) as a failed old-before-new check:
   sim-paper --inject-sp-fault replays a switching scenario (the
   library-default SP stack, a switch every 500 ms) without the fault
   first, which must be clean, then with it, which must exit non-zero with
   old_before_new > 0.
4. Tracing overhead: every workload runs untraced and traced with the same
   seed; their end-to-end numbers are printed side by side.

Exits non-zero when check 1, 2 or 3 fails.
"""
import argparse
import json
import os
import re
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["sim-paper", "loopback-hybrid", "udp-fifo"]


def driver(*args):
    p = subprocess.run([sys.executable, RUN, *args], capture_output=True, text=True)
    return p.returncode, p.stdout.strip().splitlines()


def bench(workload, seed, seconds, trace, *extra):
    return driver("--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(trace), *extra)


def counter(line, name):
    m = re.search(rf"\b{name}=(\d+)", line)
    return int(m.group(1)) if m else None


def sim_line(lines):
    """The simulated results of a sim-paper run, minus replay bookkeeping."""
    for line in lines:
        if line.startswith("sim: "):
            return re.sub(r" replays=\d+ divergent_replays=\d+", "", line)
    return None


def e2e_table(lines):
    """Parse the end-to-end table printed above the JSON result."""
    out, inside = {}, False
    for line in lines:
        if line.startswith("end-to-end"):
            inside = True
            continue
        if inside:
            parts = line.split()
            if len(parts) != 3 or not line.startswith("  "):
                break
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    ok = True

    runs = [bench("sim-paper", 7, 1, 0), bench("sim-paper", 7, 1, 0), bench("sim-paper", 7, 1, 1)]
    sims = [sim_line(lines) for _, lines in runs]
    same = all(rc == 0 for rc, _ in runs) and sims[0] is not None and len(set(sims)) == 1
    print(f"[{'PASS' if same else 'FAIL'}] sim-paper deterministic across runs and tracing")
    for s in sims:
        print(f"       {s}")
    ok = ok and same

    rc, lines = driver("--checker-selftest")
    print("\n".join(lines))
    ok = ok and rc == 0

    rc, lines = bench("sim-paper", 7, 1, 0, "--inject-sp-fault")
    control = next((l for l in lines if l.startswith("control check: ")), "")
    check = next((l for l in lines if l.startswith("check: ")), "")
    clean = counter(control, "failed") == 0 and counter(control, "old_before_new") == 0
    print(f"[{'PASS' if clean else 'FAIL'}] switching scenario without the fault is clean")
    print(f"       {control}")
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    caught = (rc != 0 and (counter(check, "old_before_new") or 0) > 0
              and result.get("correct") is False)
    print(f"[{'PASS' if caught else 'FAIL'}] injected SP drain fault reported as old-before-new")
    print(f"       exit={rc} {check}")
    ok = ok and clean and caught

    print(f"tracing overhead (seed 3, {args.seconds:g} s; traced / untraced):")
    for w in WORKLOADS:
        plain, traced = e2e_table(bench(w, 3, args.seconds, 0)[1]), e2e_table(bench(w, 3, args.seconds, 1)[1])
        print(f"  {w}")
        for name, (value, unit) in plain.items():
            t = traced.get(name, (float("nan"), unit))[0]
            ratio = t / value if value else float("nan")
            print(f"    {name:16s} {value:14.6g} {t:14.6g} {unit:6s} x{ratio:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
