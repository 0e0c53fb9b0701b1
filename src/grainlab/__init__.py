"""grainlab: coding and capacity analysis for 1-D granular media.

Modules:
  model    - words, error vectors, the grain operator, confusability
  graph    - confusability graphs, exact maximum code sizes, clique partitions
  codes    - code constructions, verifiers, decoders, code files
  bounds   - cardinality and rate bounds, rate curve tables
  series   - the SIR series and closed-form channel rates (channel re-exports
             sir, capacity_curves and output_entropy_series for the benchmark)
  channel  - grains / no-adjacent-erasures channels, simulation, exact oracles
  cli      - the `grainlab` command

errors, config, manifest, bounds, series and cli import no numpy.
"""

__version__ = "0.1.0"
