"""Repository benchmark of the MemPool reproduction (see README.md)."""
