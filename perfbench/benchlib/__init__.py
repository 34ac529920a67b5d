"""Helpers of the repository benchmark (``python3 perfbench/run.py``).

The modules here never touch ``src/``: per-layer timing is installed at
run time by :mod:`benchlib.trace` around the public callables listed in
:mod:`benchlib.layers`, and removed again when the traced region ends.
"""
