"""Fleet-scale city simulation: sharded households, deterministic merge.

The packages below this one simulate a handful of households in detail;
``fleet/`` scales the same models to a whole city (ROADMAP item 2,
"millions of users"). A :class:`~repro.fleet.population.Population`
samples households — DSLAM attachment, cell-sector attachment, adoption
flag, a demand mix drawn from the DSLAM trace model — from one seed; a
dispatcher / shard-worker / measurer decomposition partitions them by
cell sector into shards, advances each shard in vectorized rounds on the
discrete-event engine's clock, and resolves cross-shard coupling (DSLAM
backhaul spanning shards, the global permit server) by a bounded
fixed-point exchange between rounds. Shard results merge
deterministically: reports are byte-identical at any shard count (see
``docs/FLEET.md`` for the contract).
"""
