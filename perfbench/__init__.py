"""Benchmark of the bklv lab: workloads, an outside-in layer tracer and checks.

Run it with `python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>` from the repository root; see README.md in
this directory.
"""
