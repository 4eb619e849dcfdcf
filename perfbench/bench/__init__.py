"""The repository benchmark's own code (see ``perfbench/README.md``)."""
