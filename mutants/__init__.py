"""Mutation gate: mutants of the program that the tier-1 suite must fail (run.py)."""
