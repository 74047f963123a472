"""Storage substrate: object model, partitions, buffer pool, heap, I/O stats."""
