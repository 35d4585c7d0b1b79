"""Synthetic data sources.

The paper's evaluation leans on four proprietary datasets (its Table 1):
3G web-traffic logs, per-user monthly demand from a mobile network
operator (MNO), a DSLAM flow-level trace, and the handset measurement
campaign. None are publicly available, so this package generates seeded
synthetic equivalents matching every statistic the paper reports about
them; DESIGN.md §2 records the substitutions.
"""
