"""Environment identity for performance records.

:func:`.suite.environment_fingerprint` tells a later comparison whether
two timings came from comparable environments.  The perf-tracking front
end is ``python -m benchmarks.e2e run|compare``.
"""
