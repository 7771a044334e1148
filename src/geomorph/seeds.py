"""The angle learner's random stream of an integer seed (the rotation learner keys its picks instead)."""
import random


def seeded_random(seed: int) -> random.Random:
    """`random.Random(seed)`, except that -n is keyed by "-n": Random would replay n."""
    return random.Random(seed if seed >= 0 else str(seed))
