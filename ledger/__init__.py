"""The performance ledger: the repo's benchmark (see ``ledger/README.md``)."""
