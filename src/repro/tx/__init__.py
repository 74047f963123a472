"""Transactions: atomic operation groups with physical undo, GC exclusion."""
