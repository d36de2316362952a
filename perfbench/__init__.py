"""The rshds benchmark; see README.md and run.py."""
