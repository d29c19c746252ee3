"""The finite-difference gradient check now lives in ``verify``.

This module only re-exports ``grad_check``: the benchmark's tracer looks
the function up here and patches every binding of it, ``verify``'s too.
"""
from .verify import grad_check  # noqa: F401
