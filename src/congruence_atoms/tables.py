"""Embedded reference values for golden verification (no network).

ELL is the count of indecomposable solutions of the standard congruence
for 2 <= m <= 23 (the same numbers appear as OEIS A096337 for these m).
Q and R are the two closed-form upper bounds at the moduli where
reference values exist; M_TIMES_P is m times the partition function.
LOG2_ELL_REFERENCE is the published one-decimal log2 row; note its
m = 3 entry (1.5) disagrees with round-half-up of log2(3) = 1.585.
"""

ELL = {
    2: 1, 3: 3, 4: 6, 5: 14, 6: 19, 7: 47, 8: 64, 9: 118, 10: 165,
    11: 347, 12: 366, 13: 826, 14: 973, 15: 1493, 16: 2134, 17: 3912,
    18: 4037, 19: 7935, 20: 8246, 21: 12966, 22: 17475, 23: 29161,
}

LOG2_ELL_REFERENCE = {
    2: "0.0", 3: "1.5", 4: "2.6", 5: "3.8", 6: "4.2", 7: "5.6",
    8: "6.0", 9: "6.9", 10: "7.4", 11: "8.4", 12: "8.5", 13: "9.7",
    14: "9.9", 15: "10.5", 16: "11.1", 17: "11.9", 18: "12.0",
    19: "13.0", 20: "13.0", 21: "13.7", 22: "14.1", 23: "14.8",
}

Q = {
    4: 6, 5: 16, 6: 45, 7: 126, 8: 357, 9: 1016, 10: 2907,
    11: 8350, 12: 24068, 13: 69576, 14: 201643,
}

# floors of the real bound 4^(m-1) / (2 sqrt(pi) sqrt(m-1)), confirmed
# by bound_r's proven integer floor and by mpmath in the tests
R = {
    4: 10, 5: 36, 6: 129, 7: 471, 8: 1746, 9: 6536, 10: 24649,
    11: 93539, 12: 356745,
}

M_TIMES_P = {
    4: 20, 5: 35, 6: 66, 7: 105, 8: 176, 9: 270, 10: 420, 11: 616,
    12: 924, 13: 1313, 14: 1890, 15: 2640, 16: 3696, 17: 5049,
    18: 6930, 19: 9310, 20: 12540, 21: 16632, 22: 22044, 23: 28865,
}
