#include "sfunctions.h"

/* Default affine behaviours; replace with the real algorithm
   implementations.  Constants mirror the reference simulator. */

void sfun_control(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.375 * total + 0.076923076923076927 + 0.1 * j;
}

void sfun_drive(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.625 * total + 0.69230769230769229 + 0.1 * j;
}

void sfun_sense(const double *in, int n_in, double *out, int n_out) {
  double total = 0.0;
  for (int i = 0; i < n_in; ++i) total += in[i];
  for (int j = 0; j < n_out; ++j)
    out[j] = 0.25 * total + 0.46153846153846156 + 0.1 * j;
}
