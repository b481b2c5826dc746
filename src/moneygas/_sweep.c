/* The uniform pair split, m sweeps of one epoch of the shifted-halves matching.
 *
 * Sweep t pairs slot a[i] with slot b[(i + shifts[t]) mod h] of row
 * (phase + t) mod rows, where row p is the n slots z[p*n .. p*n + n). The pair
 * gets f = u[t*h + i] * s and s - f, s its sum; a pair whose split would break
 * the bound keeps its values. The bound is the one its data implies:
 * - caps (restricted): each slot at or below its cap;
 * - net (the credit ledger, assets in row 0 and liabilities in row 1): cash
 *   M + l - a >= 0 for both agents, tested as a <= M + l;
 * - neither: none beyond z >= 0, which the split keeps.
 * The pairs of a sweep are disjoint, so each reads only values that no
 * earlier pair of that sweep wrote. Returns the number of rejected pairs. */
#include <stddef.h>

long long moneygas_sweeps(double *z, ptrdiff_t n, ptrdiff_t rows, ptrdiff_t phase,
                          const ptrdiff_t *a, const ptrdiff_t *b, ptrdiff_t h,
                          const ptrdiff_t *shifts, const double *u, ptrdiff_t m,
                          const double *caps, const double *net)
{
    long long rejected = 0;
    for (ptrdiff_t t = 0; t < m; t++) {
        ptrdiff_t row = (phase + t) % rows, r = shifts[t];
        double *zr = z + row * n;
        const double *ut = u + t * h;
        for (ptrdiff_t i = 0; i < h; i++) {
            ptrdiff_t j = a[i], k = b[i + r < h ? i + r : i + r - h];
            double zj = zr[j], zk = zr[k], s = zj + zk, f = ut[i] * s, rest = s - f;
            int keep = 1;
            if (caps)
                keep = (f <= caps[j]) & (rest <= caps[k]);
            else if (net && row == 0)
                keep = (f <= net[j] + z[n + j]) & (rest <= net[k] + z[n + k]);
            else if (net)
                keep = (z[j] <= net[j] + f) & (z[k] <= net[k] + rest);
            zr[j] = keep ? f : zj;
            zr[k] = keep ? rest : zk;
            rejected += !keep;
        }
    }
    return rejected;
}
