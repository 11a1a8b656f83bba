"""Cycle-driven simulation kernel shared by all simulated subsystems."""
