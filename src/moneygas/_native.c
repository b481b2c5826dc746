/* The compiled parts of moneygas: the sweep loop and the samples.csv rows. */
#include <stddef.h>
#include <string.h>

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

/* The decimal digits of v, written to end just before it; returns their first byte. */
static char *decimal(char *end, long long v)
{
    unsigned long long u = v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v;
    do
        *--end = (char)('0' + u % 10);
    while (u /= 10);
    if (v < 0)
        *--end = '-';
    return end;
}

static char *put(char *to, const char *from, ptrdiff_t size)
{
    memcpy(to, from, (size_t)size);
    return to + size;
}

/* The samples.csv rows of n records. A record holds widths[c] values for each
 * name c = 0 .. k-1 in turn, name c being names[name_ends[c] .. name_ends[c + 1]).
 *
 * Agent a of name c in record r gets the row "step,a,name,literal\n", step
 * being steps[r] in decimal. The literals are the comma-separated texts of
 * lit[0 .. lit_size), one per value in row order. Where the next entry of the
 * ascending alt_index is the value's index in that order, the row takes
 * alt[alt_ends[e] .. alt_ends[e + 1]) instead, and the value's literal is
 * skipped. Returns the number of bytes written to out, or -1 when a row would
 * pass capacity (that row is not written), the literals run out before the
 * last value or some are left over, or an alt index is never reached. */
ptrdiff_t moneygas_csv_rows(char *out, ptrdiff_t capacity, const long long *steps, ptrdiff_t n,
                            const char *names, const ptrdiff_t *name_ends, const ptrdiff_t *widths,
                            ptrdiff_t k, const char *lit, ptrdiff_t lit_size, const char *alt,
                            const ptrdiff_t *alt_ends, const ptrdiff_t *alt_index, ptrdiff_t n_alt)
{
    const char *next = lit, *lit_end = lit + lit_size;
    char *at = out, *out_end = out + capacity, step_digits[20], agent_digits[20];
    ptrdiff_t i = 0, e = 0;
    for (ptrdiff_t r = 0; r < n; r++) {
        const char *step = decimal(step_digits + sizeof step_digits, steps[r]);
        ptrdiff_t step_size = step_digits + sizeof step_digits - step;
        for (ptrdiff_t c = 0; c < k; c++) {
            const char *name = names + name_ends[c];
            ptrdiff_t name_size = name_ends[c + 1] - name_ends[c];
            for (ptrdiff_t a = 0; a < widths[c]; a++, i++) {
                if (next >= lit_end)
                    return -1;
                const char *text = next, *comma = memchr(next, ',', (size_t)(lit_end - next));
                ptrdiff_t size = (comma ? comma : lit_end) - next;
                next = comma ? comma + 1 : lit_end;
                if (e < n_alt && alt_index[e] == i) {
                    text = alt + alt_ends[e];
                    size = alt_ends[e + 1] - alt_ends[e];
                    e++;
                }
                const char *agent = decimal(agent_digits + sizeof agent_digits, a);
                ptrdiff_t agent_size = agent_digits + sizeof agent_digits - agent;
                if (step_size + agent_size + name_size + size + 4 > out_end - at)
                    return -1;
                at = put(at, step, step_size);
                *at++ = ',';
                at = put(at, agent, agent_size);
                *at++ = ',';
                at = put(at, name, name_size);
                *at++ = ',';
                at = put(at, text, size);
                *at++ = '\n';
            }
        }
    }
    return next == lit_end && e == n_alt ? at - out : -1;
}
