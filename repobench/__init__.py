"""The repository benchmark: four seeded workloads over the ``repro`` API.

Run it from the repository root::

    python3 repobench/run.py --workload cold-corpus --seed 1 \
        --seconds 15 --trace 0

See ``run.py`` for the workloads, the metrics and the output format.
"""
