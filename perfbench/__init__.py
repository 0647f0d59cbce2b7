"""The repository benchmark: open-loop serving workloads over one shard.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
drives a one-shard :class:`repro.serve.ShardCluster` through one named
workload and prints its end-to-end metrics (``--trace 0``) or its
per-layer metrics (``--trace 1``).  See ``perfbench/README.md``.
"""
