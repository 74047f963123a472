"""Partitioned copying garbage collector and partition-selection policies."""
