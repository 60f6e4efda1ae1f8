"""Frozen reference values for the exponent/constant tables.

Truncated decimal strings; used by the table command and regression tests
to cross-check freshly computed values digit-for-digit.
"""

# lambda_{1/i}, truncated
LAMBDA_TABLE = {
    1: "1",
    2: "2.46206",
    3: "4.20605",
    4: "6.15900",
    5: "8.27925",
    6: "10.5395",
    7: "12.9203",
    8: "15.4074",
    9: "17.9892",
    10: "20.6568",
    11: "23.4026",
    12: "26.2206",
    13: "29.1054",
    14: "32.0524",
    15: "35.0578",
    16: "38.1180",
    17: "41.2300",
    18: "44.3909",
    19: "47.5985",
    20: "50.8504",
}

# C_{1/i}; i=1 is exactly 1/(1 - e^-gamma) = 2.28029...
C_TABLE = {
    1: "2.28029",
    2: "3.7815",
    3: "5.7645",
    4: "8.3827",
    5: "11.812",
    6: "16.265",
    7: "22.000",
    8: "29.333",
    9: "38.648",
    10: "50.410",
}

# the dominant complex pole pair (approximate)
COMPLEX_POLE = {1: (-3.03, 11.36), 2: (-4.65, 18.71), 3: (-6.50, 25.73)}

# positive zeros of the oscillatory integral K
K_ZEROS = ["2.383446", "5.510195", "8.647357", "11.786842"]


def truncate_matches(value: float, printed: str) -> bool:
    """True iff ``value`` truncated to the printed precision equals ``printed``."""
    if "." not in printed:
        return int(value) == int(printed) and abs(value - int(printed)) < 1.0
    digits = len(printed.split(".")[1])
    scale = 10**digits
    import math

    return math.floor(value * scale) / scale == float(printed)
