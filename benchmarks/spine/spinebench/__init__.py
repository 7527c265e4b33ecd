"""The spine benchmark's harness; ``../run.py`` is the entry point."""
