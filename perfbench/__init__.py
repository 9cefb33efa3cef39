"""End-to-end and per-layer benchmark for lapspec; see README.md."""
