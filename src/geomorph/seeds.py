"""Random streams of integer seeds, shared by the angle and rotation learners."""
import random


def seeded_random(seed: int) -> random.Random:
    """`random.Random(seed)`, except that -n is keyed by "-n": Random would replay n."""
    return random.Random(seed if seed >= 0 else str(seed))
