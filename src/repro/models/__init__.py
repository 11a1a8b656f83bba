"""Calibrated implementation models: area (kGE), power (mW), technology
constants.  See DESIGN.md §6 for the calibration anchors."""
