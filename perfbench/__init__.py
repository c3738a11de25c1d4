"""Layer-resolved benchmark of the decomposition flow; see ``README.md``."""
