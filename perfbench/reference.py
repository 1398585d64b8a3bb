"""Fixed pure-Python work that measures how fast the machine runs right now.

It imports nothing from picard20, so no change to the program moves it.  Its
mix resembles the program's: interpreter start, integer loops with object
churn (like the form scans), modular character sums (like the point counts)
and Fraction arithmetic.  run.py times it as a subprocess between
invocations and scales their wall times by it.
"""

from fractions import Fraction

buckets = {}
for a in range(1, 120):
    for b in range(a + 1):
        for c in range(a, a + 30):
            buckets.setdefault(b * b - 4 * a * c, []).append((a, b, c))

p = 1009
chi = [-1] * p
for x in range(1, p):
    chi[x * x % p] = 1
chi[0] = 0
total = 0
for t in range(0, p, 20):
    total += sum(chi[(x * x * x + t * x + 7) % p] for x in range(p))

series = Fraction(0)
for i in range(1, 1200):
    series += Fraction(1, i * i)

print(len(buckets), total, series.denominator % 1000)
