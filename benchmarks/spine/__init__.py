"""X17 — the benchmark spine (see README.md; entry point is run.py)."""
