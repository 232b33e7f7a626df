"""The performance ledger: the repo's one benchmark (see README.md)."""
