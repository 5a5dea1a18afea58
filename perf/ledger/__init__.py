"""The layered performance ledger (see perf/README.md).

Everything here measures the program *from outside*: it calls the public
API (``repro.api.render``, ``repro.shard.net.render_sharded_tcp``), reads
the result objects the program already returns, folds the run's own
telemetry stream, and — in traced runs only — installs timing wrappers
around each layer's public callables.  Nothing under ``src/`` is edited.
"""
