/* The package's C kernels, built by kernels.load without fused multiply-add
   (-ffp-contract=off): thomas, residual_rows and jacobian_diag must round as the
   Python and numpy code they replace does, and g17_rows' two-product is exact only
   when every product in it rounds on its own. */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

/* Thomas elimination for lower[k]*x[k-1] + diag[k]*x[k] + upper[k]*x[k+1] = rhs[k],
   k = 0 .. n-1, n >= 1, in tridiag._thomas_loop's operation order.

   x holds the eliminated upper band c until the back substitution overwrites it, and
   d is scratch of n values.  Returns -1, or the lowest row whose pivot is zero or not
   finite; x and d are then partly written. */
long thomas(long n, const double *lower, const double *diag, const double *upper,
            const double *rhs, double *d, double *x)
{
    double c_prev = 0.0, d_prev = 0.0;
    for (long k = 0; k < n; k++) {
        double piv = diag[k] - lower[k] * c_prev;
        if (piv == 0.0 || !isfinite(piv))
            return k;
        c_prev = x[k] = upper[k] / piv;
        d_prev = d[k] = (rhs[k] - lower[k] * d_prev) / piv;
    }
    x[n - 1] = d_prev;
    for (long j = n - 2; j >= 0; j--)
        x[j] = d[j] - x[j] * x[j + 1];
    return -1;
}

/* What the residual and the Jacobian read of assembly.GridTerms, built once per solve
   (kernels.Terms mirrors it): the operator's bands, the volume weights mu, b, the
   weight w at the nodes (read only when penalty > 0), the right-hand side rhs = h * mu
   and the slab bounds.  grid_terms makes each Dirichlet row data: an identity row of
   the operator, mu = 0 and rhs = g, the boundary value, so the one row formula below
   gives u - g there. */
struct terms {
    const double *lower_band, *diag, *upper_band, *mu, *b, *w, *rhs, *lower, *upper;
    double penalty;
};

/* Rows lo .. lo + n - 1 (n >= 1) of assembly.assemble_residual into out, for a field
   that is u there (a neighbour outside the window counts as zero), from clipped (u
   clipped to the slab) and f = f(clipped), in numpy's operation order:
   (diag*u + lower*u_prev) + upper*u_next, then + (b*f)*mu, then, when penalty > 0,
   + ((((u - clipped) + 0.0)*penalty)*w)*mu, then - rhs; on a Dirichlet row, an identity
   row with mu = 0 and rhs = g, that is u - g.  Returns the lowest row where |out| is
   largest, or -1 - k where row k is the lowest that is not finite.  The penalty and the
   window offset are here because the formula still has them. */
long residual_rows(long n, long lo, const struct terms *t, const double *u, const double *f,
                   const double *clipped, double *out)
{
    long peak = 0, bad = -1;
    double top = -1.0;
    for (long i = 0; i < n; i++) {
        long g = lo + i;
        double r = t->diag[g] * u[i];
        if (i > 0)
            r += t->lower_band[g] * u[i - 1];
        if (i < n - 1)
            r += t->upper_band[g] * u[i + 1];
        r += (t->b[g] * f[i]) * t->mu[g];
        if (t->penalty > 0.0)
            r += ((((u[i] - clipped[i]) + 0.0) * t->penalty) * t->w[g]) * t->mu[g];
        r -= t->rhs[g];
        out[i] = r;
        if (!isfinite(r)) {
            if (bad < 0)
                bad = i;
        } else if (fabs(r) > top) {
            top = fabs(r);
            peak = i;
        }
    }
    return bad < 0 ? peak : -1 - bad;
}

/* The n values of assembly.assemble_jacobian's diagonal into out, from slope = f'(u),
   in numpy's operation order: (b*(inside ? slope : 0.0))*mu, then, when penalty > 0,
   + ((penalty*w)*mu)*violated, then + diag, with inside = lower < u < upper and
   violated = (u < lower or u > upper) as 1.0 or 0.0; on a Dirichlet row, where mu = 0
   and diag = 1, that is 1.0.  Returns the lowest row that is not finite, or -1. */
long jacobian_diag(long n, const struct terms *t, const double *u, const double *slope, double *out)
{
    long bad = -1;
    for (long g = 0; g < n; g++) {
        int inside = u[g] > t->lower[g] && u[g] < t->upper[g];
        double d = (t->b[g] * (inside ? slope[g] : 0.0)) * t->mu[g];
        if (t->penalty > 0.0) {
            double violated = u[g] < t->lower[g] || u[g] > t->upper[g] ? 1.0 : 0.0;
            d += ((t->penalty * t->w[g]) * t->mu[g]) * violated;
        }
        d += t->diag[g];
        out[g] = d;
        if (bad < 0 && !isfinite(d))
            bad = g;
    }
    return bad;
}

/* The decimal exponents k = floor(log10|x|) of the values placed here, 1e-280 < |x| <
   1e280, where every partial product of the two-product stays normal and finite; the
   table of 10**(16 - k) starts at K_MIN = -281 for the estimate of k that is one low.
   kernels.pow10 builds it. */
#define K_MIN (-281)
#define TIE_WINDOW 1e-9
#define SPLIT 134217729.0 /* 2**27 + 1 splits a double into two 26-bit halves */

/* The two digits of 0..99 */
static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* '%.17g' % x at p, at most 24 bytes; returns the end.  The digits are
   D = round-half-even(|x| * 10**(16 - k)), from Dekker's exact two-product (Numer.
   Math. 18, 1971) against hi + lo = 10**(16 - k), so D's rounding fraction is known to
   about 1e-14.  snprintf prints what that cannot place exactly: +-inf, |x| outside
   (1e-280, 1e280), a fraction within TIE_WINDOW of 1/2 (exact ties exist, such as
   1250000000000000.25) and a D outside [10**16, 10**17) (k off by one, or rounded up
   to 10**17); *slow counts those.  Every nan prints "nan", as Python prints it, where
   glibc prints "-nan" for a negative one. */
static char *put_g17(char *p, double x, const double *hi, const double *lo, long *slow)
{
    double a = fabs(x);
    if (isnan(x)) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (signbit(x))
        *p++ = '-';
    if (a == 0.0) {
        *p++ = '0';
        return p;
    }
    if (a > 1e-280 && a < 1e280) {
        int e2;
        frexp(a, &e2);
        int k = (int)floor((e2 - 1) * 0.30102999566398120); /* 2**(e2-1) <= a < 2**e2 */
        double h = hi[k - K_MIN], prod = a * h;
        if (prod >= 1e17) {
            h = hi[++k - K_MIN];
            prod = a * h;
        }
        /* a * (h + lo) = prod + (err + a * lo) with prod + err = a * h exactly */
        double c = SPLIT * a, a_h = c - (c - a), a_l = a - a_h;
        c = SPLIT * h;
        double h_h = c - (c - h), h_l = h - h_h;
        double err = ((a_h * h_h - prod) + a_h * h_l + a_l * h_h) + a_l * h_l;
        double whole = floor(prod);
        double frac = (prod - whole) + (err + a * lo[k - K_MIN]);
        double carry = floor(frac);
        frac -= carry;
        int64_t floor_d = (int64_t)whole + (int64_t)carry;
        int64_t d = floor_d + (frac > 0.5);
        if (fabs(frac - 0.5) > TIE_WINDOW && floor_d >= 10000000000000000 && d < 100000000000000000) {
            char digits[17];
            uint32_t top = (uint32_t)(d / 100000000), bottom = (uint32_t)(d % 100000000);
            for (int j = 15; j >= 9; j -= 2, bottom /= 100)
                memcpy(digits + j, PAIRS + 2 * (bottom % 100), 2);
            for (int j = 7; j >= 1; j -= 2, top /= 100)
                memcpy(digits + j, PAIRS + 2 * (top % 100), 2);
            digits[0] = (char)('0' + top);
            int n = 17; /* significant digits, trailing zeros stripped */
            while (n > 1 && digits[n - 1] == '0')
                n--;
            if (k >= 0 && k < 17) { /* the integer digits stay, zeros or not */
                memcpy(p, digits, k + 1);
                p += k + 1;
                if (n > k + 1) {
                    *p++ = '.';
                    memcpy(p, digits + k + 1, n - k - 1);
                    p += n - k - 1;
                }
            } else if (k < 0 && k >= -4) {
                memcpy(p, "0.000", 1 - k);
                p += 1 - k;
                memcpy(p, digits, n);
                p += n;
            } else {
                *p++ = digits[0];
                if (n > 1) {
                    *p++ = '.';
                    memcpy(p, digits + 1, n - 1);
                    p += n - 1;
                }
                int e = k < 0 ? -k : k;
                *p++ = 'e';
                *p++ = k < 0 ? '-' : '+';
                if (e >= 100)
                    *p++ = (char)('0' + e / 100);
                *p++ = (char)('0' + e / 10 % 10);
                *p++ = (char)('0' + e % 10);
            }
            return p;
        }
    }
    ++*slow;
    return p + snprintf(p, 24, "%.17g", a); /* 23 bytes at most without the sign */
}

/* Rows start .. start + rows - 1 of cols float64 columns as CSV text at out: each value
   as '%.17g' % x, then ',' or, after a row's last value, '\n'.  At most 25 bytes a
   value; returns the bytes written. */
long g17_rows(long rows, long cols, const double *const *columns, long start,
              const double *hi, const double *lo, char *out, long *slow)
{
    char *p = out;
    for (long r = start; r < start + rows; r++)
        for (long j = 0; j < cols; j++) {
            p = put_g17(p, columns[j][r], hi, lo, slow);
            *p++ = j + 1 < cols ? ',' : '\n';
        }
    return p - out;
}
