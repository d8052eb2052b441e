"""End-to-end benchmark of the repro stack (see ``bench_e2e/README.md``).

Entry point: ``python3 bench_e2e/run.py``.  Nothing here is imported by
the product; the benchmark only calls the product's public names.
"""
