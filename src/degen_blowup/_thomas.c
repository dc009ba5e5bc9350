/* Thomas elimination for lower[k]*x[k-1] + diag[k]*x[k] + upper[k]*x[k+1] = rhs[k],
   k = 0 .. n-1, n >= 1, in tridiag._thomas_loop's operation order, so that a build
   without fused multiply-add (-ffp-contract=off) gives the loop's bits.

   x holds the eliminated upper band c until the back substitution overwrites it, and
   d is scratch of n values.  Returns -1, or the first row whose pivot is zero or not
   finite; x and d are then partly written. */
#include <math.h>

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
