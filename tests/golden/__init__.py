"""Golden outcomes: the committed cross-change gate on what the simulation decides."""
