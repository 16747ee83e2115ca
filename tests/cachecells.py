"""What a ResidueCache holds, flattened for the tests."""


def cells_of(cells) -> list:
    """[((variant, index, signs, p), residue)] of a cache's {p: {(variant, index, signs):
    residue}}: the primes in first-seen order, and each prime's cells in first-seen order."""
    return [(cell + (p,), v) for p, held in cells.items() for cell, v in held.items()]
